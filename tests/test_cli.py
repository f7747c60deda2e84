"""CLI smoke tests."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.parallel.engine import FAULT_ENV

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


class TestParser:
    def test_subcommands_present(self):
        parser = build_parser()
        args = parser.parse_args(["info"])
        assert args.command == "info"

    def test_fit_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["fit"])
        assert args.vdd == 0.8
        assert args.particles == "alpha,proton"

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_obs_flags_on_every_subcommand(self):
        parser = build_parser()
        for command in ("info", "qcrit", "snm", "fit", "sweep", "build-luts"):
            args = parser.parse_args([command, "--quiet", "--log-level", "debug"])
            assert args.quiet is True
            assert args.log_level == "debug"
            assert args.metrics_out is None
            assert args.trace is None


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "soi-finfet-14nm" in out
        assert "transit time" in out

    def test_qcrit(self, capsys):
        assert main(["qcrit", "--vdd-list", "0.8"]) == 0
        out = capsys.readouterr().out
        assert "Qcrit" in out

    def test_quiet_suppresses_output(self, capsys):
        assert main(["qcrit", "--vdd-list", "0.8", "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_info_quiet(self, capsys):
        assert main(["info", "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_fit_small(self, capsys, tmp_path):
        code = main(
            [
                "fit",
                "--vdd",
                "0.8",
                "--particles",
                "alpha",
                "--mc-particles",
                "3000",
                "--samples",
                "20",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "FIT=" in out
        assert "MBU/SEU" in out


class TestReport:
    def test_report_command(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "report.md"
        code = main(
            [
                "report",
                "--out",
                str(out),
                "--particles",
                "alpha",
                "--mc-particles",
                "2000",
                "--samples",
                "15",
                "--no-variation",
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "Fig. 9" in text
        assert "Fig. 8" in text


def _run_cli(args, env_extra=None, cwd=None):
    """``python -m repro ARGS`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


class TestExpectedErrors:
    """A library error ends in one ``error:`` line, not a traceback."""

    def test_bad_option_value_exits_2(self, tmp_path):
        manifest = tmp_path / "run.json"
        result = _run_cli(
            [
                "sweep",
                "--vdd-list",
                "0.9,0.7",
                "--quiet",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--metrics-out",
                str(manifest),
            ]
        )
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "error: vdd_list must be strictly increasing"
        ]
        assert json.loads(manifest.read_text())["exit_code"] == 2

    def test_fatal_worker_loss_exits_1(self, tmp_path):
        """A worker killed with no retries left: ``WorkerCrashError``."""
        marker = tmp_path / "killed"
        manifest = tmp_path / "run.json"
        result = _run_cli(
            [
                "sweep",
                "--samples",
                "16",
                "--yield-trials",
                "1000",
                "--mc-particles",
                "2000",
                "--vdd-list",
                "0.7,0.9",
                "--seed",
                "3",
                "--jobs",
                "2",
                "--retries",
                "0",
                "--quiet",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--metrics-out",
                str(manifest),
            ],
            env_extra={FAULT_ENV: f"array_mc:3:{marker}"},
        )
        assert marker.exists()
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        errors = [
            line
            for line in result.stderr.splitlines()
            if line.startswith("error:")
        ]
        assert len(errors) == 1
        assert "lost to worker crashes" in errors[0]
        assert json.loads(manifest.read_text())["exit_code"] == 1
