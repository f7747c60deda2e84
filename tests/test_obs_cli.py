"""The ``repro-ser obs`` inspection CLI: tail, summarize, diff, bench-check."""

import json

import pytest

from repro.cli import main as cli_main
from repro.obs import build_manifest, disable_metrics, enable_metrics
from repro.obs.convergence import record_bin, reset_convergence
from repro.obs.events import configure_events, disable_events, emit_event
from repro.obs.inspect import bench_check, diff_manifests, follow_events
from repro.obs.trace import configure_tracing, reset_tracing, span


@pytest.fixture(autouse=True)
def _clean_obs_state():
    disable_events()
    disable_metrics()
    reset_tracing()
    reset_convergence()
    yield
    disable_events()
    disable_metrics()
    reset_tracing()
    reset_convergence()


def make_events_file(path):
    """A small but complete stream: round, progress, heartbeat, convergence."""
    configure_events(path)
    emit_event("round", label="fit.alpha", phase="start", path="pool-warm", tasks=2, workers=2)
    emit_event("progress", label="fit.alpha", index=0, state="started", pid=111)
    emit_event("progress", label="fit.alpha", index=0, state="finished", pid=111, busy_s=0.25)
    emit_event("heartbeat", label="fit.alpha", done=1, total=2, elapsed_s=0.3, eta_s=0.3, final=False)
    emit_event("progress", label="fit.alpha", index=1, state="finished", pid=112, busy_s=0.35)
    record_bin("fit", trials=800, pof=0.1, particle="alpha", vdd_v=0.8, energy_mev=2.0)
    emit_event("round", label="fit.alpha", phase="end", path="pool-warm", tasks=2, lost=0, wall_s=0.7)
    disable_events()
    return path


def make_manifest_file(path, *, jobs=2, extra_stage=None):
    registry = enable_metrics(fresh=True)
    registry.timer("stage.fit").observe(0.5)
    registry.timer("stage.fit").observe(0.7)
    if extra_stage:
        registry.timer(f"stage.{extra_stage}").observe(0.1)
    manifest = build_manifest(
        command="fit",
        argv=["fit"],
        config={"jobs": jobs},
        seed=1,
        started_at="2026-01-01T00:00:00Z",
        duration_s=1.5,
        exit_code=0,
        version="test",
    )
    disable_metrics()
    manifest.write(path)
    return path


def make_trace_file(path):
    configure_tracing(path)
    with span("fit"):
        with span("pof-table"):
            pass
    reset_tracing()
    return path


class TestObsTail:
    def test_tail_renders_and_counts(self, tmp_path, capsys):
        path = make_events_file(tmp_path / "events.jsonl")
        assert cli_main(["obs", "tail", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fit.alpha" in out
        assert "heartbeat" in out
        assert "convergence" in out
        assert "7 events" in out

    def test_tail_last_limits_lines(self, tmp_path, capsys):
        path = make_events_file(tmp_path / "events.jsonl")
        assert cli_main(["obs", "tail", str(path), "--last", "2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len([l for l in out if not l.startswith("--")]) == 2

    def test_tail_follow_exits_on_idle_timeout(self, tmp_path, capsys):
        path = make_events_file(tmp_path / "events.jsonl")
        code = cli_main(
            [
                "obs", "tail", str(path), "--follow",
                "--idle-timeout", "0.3", "--stall-after", "60",
            ]
        )
        assert code == 0
        assert "progress" in capsys.readouterr().out

    def test_follow_flags_a_stalled_stream(self, tmp_path):
        path = make_events_file(tmp_path / "events.jsonl")
        lines = list(
            follow_events(
                path, poll_s=0.02, idle_timeout_s=0.3, stall_after_s=0.1
            )
        )
        assert any(line.startswith("!! stalled") for line in lines)
        # events first, stall warning after the silence
        assert not lines[0].startswith("!!")


class TestObsSummarize:
    def test_events_summary_table(self, tmp_path, capsys):
        path = make_events_file(tmp_path / "events.jsonl")
        assert cli_main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fit.alpha" in out
        assert "busy_p50" in out
        assert "convergence: 1 bins" in out

    def test_manifest_autodetected_by_suffix(self, tmp_path, capsys):
        path = make_manifest_file(tmp_path / "run.json")
        assert cli_main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "manifest: command=fit" in out
        assert "fit" in out and "p50" in out

    def test_trace_autodetected_by_name(self, tmp_path, capsys):
        path = make_trace_file(tmp_path / "trace.jsonl")
        assert cli_main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "pof-table" in out

    def test_json_dump_is_parseable(self, tmp_path, capsys):
        path = make_events_file(tmp_path / "events.jsonl")
        assert cli_main(["obs", "summarize", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["labels"]["fit.alpha"]["finished"] == 2


class TestObsDiff:
    def test_identical_runs_diff_clean(self, tmp_path, capsys):
        a = make_manifest_file(tmp_path / "a.json")
        b = make_manifest_file(tmp_path / "b.json")
        assert cli_main(["obs", "diff", str(a), str(b)]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_config_change_is_reported(self, tmp_path, capsys):
        a = make_manifest_file(tmp_path / "a.json", jobs=2)
        b = make_manifest_file(tmp_path / "b.json", jobs=8)
        assert cli_main(["obs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "config.jobs" in out

    def test_fail_on_diff_exit_code(self, tmp_path):
        a = make_manifest_file(tmp_path / "a.json", jobs=2)
        b = make_manifest_file(tmp_path / "b.json", jobs=8)
        assert (
            cli_main(["obs", "diff", str(a), str(b), "--fail-on-diff"]) == 1
        )

    def test_new_stage_shows_as_absent(self, tmp_path):
        a = make_manifest_file(tmp_path / "a.json")
        b = make_manifest_file(tmp_path / "b.json", extra_stage="lut")
        diffs, meta = diff_manifests(a, b)
        keys = {key for key, _, _ in diffs}
        assert any(key.startswith("stage_timings_s.lut") for key in keys)
        assert meta["a"]["command"] == "fit"
        # the raw sample buffers never appear as diffs
        assert not any(key.endswith(".samples") for key in keys)


class TestBenchCheck:
    @staticmethod
    def _write(path, speedups, metric="speedup"):
        path.write_text(
            json.dumps([{metric: value} for value in speedups])
        )
        return path

    def test_single_entry_passes(self, tmp_path):
        path = self._write(tmp_path / "BENCH_x.json", [2.0])
        ok, report = bench_check(path)
        assert ok and "single entry" in report

    def test_within_floor_passes(self, tmp_path):
        path = self._write(tmp_path / "BENCH_x.json", [2.0, 1.95])
        ok, report = bench_check(path, max_regress=0.10)
        assert ok and "ok" in report

    def test_regression_fails(self, tmp_path):
        path = self._write(tmp_path / "BENCH_x.json", [2.0, 1.0])
        ok, report = bench_check(path, max_regress=0.10)
        assert not ok and "REGRESSION" in report

    def test_characterize_metric_recognized(self, tmp_path):
        path = self._write(
            tmp_path / "BENCH_char.json",
            [3.0, 3.1],
            metric="speedup_default_vs_seed",
        )
        ok, report = bench_check(path)
        assert ok and "speedup_default_vs_seed" in report

    def test_cli_gates_multiple_paths(self, tmp_path, capsys):
        good = self._write(tmp_path / "BENCH_good.json", [2.0, 2.1])
        bad = self._write(tmp_path / "BENCH_bad.json", [2.0, 1.0])
        assert (
            cli_main(
                ["obs", "bench-check", str(good), str(bad), "--max-regress", "0.1"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "ok" in out and "REGRESSION" in out

    def test_garbage_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{}")
        ok, report = bench_check(path)
        assert not ok and "trajectory" in report

    def test_committed_trajectories_are_valid(self):
        """The repo's own BENCH files parse and carry a key figure."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        for name in ("BENCH_adaptive.json",):
            ok, report = bench_check(root / name, max_regress=1.0)
            assert ok, report


def _event_line(seq, label):
    return json.dumps(
        {
            "type": "event",
            "kind": "progress",
            "seq": seq,
            "t": 1000.0 + seq,
            "label": label,
            "index": seq,
            "state": "finished",
        }
    ) + "\n"


class TestRotatedStreams:
    """Readers must see the whole stream across a JSONL rotation."""

    def _write_rotated_stream(self, path):
        """A stream the writer rotated exactly once mid-campaign.

        Emits until the size cap triggers the (real) rotation, then a
        few more events into the fresh file; returns the total count.
        Only one rotated generation is retained, so the test must not
        rotate twice.
        """
        rotated = path.with_name(path.name + ".1")
        configure_events(path, max_bytes=2048)
        count = 0
        while not rotated.exists():
            emit_event("progress", label="rot", index=count, state="finished")
            count += 1
            assert count < 500, "size cap never triggered a rotation"
        for _ in range(5):
            emit_event("progress", label="rot", index=count, state="finished")
            count += 1
        disable_events()
        return count

    def test_tail_stitches_the_rotation_chain(self, tmp_path):
        from repro.obs.inspect import tail_events

        path = tmp_path / "events.jsonl"
        count = self._write_rotated_stream(path)
        lines, stats = tail_events(path)
        # every emitted event is rendered, not just the live file
        assert stats["events"] == count
        assert stats["invalid"] == 0
        assert len(lines) == count

    def test_summarize_counts_across_the_chain(self, tmp_path):
        from repro.obs.inspect import summarize_events

        path = tmp_path / "events.jsonl"
        count = self._write_rotated_stream(path)
        summary = summarize_events(path)
        assert summary["labels"]["rot"]["finished"] == count

    def test_chain_reader_dedups_on_seq(self, tmp_path):
        from repro.obs.inspect import read_event_chain

        path = tmp_path / "events.jsonl"
        # a reader racing the rotation can see one event in both
        # generations; the chain must keep exactly one copy
        (tmp_path / "events.jsonl.1").write_text(
            _event_line(1, "old") + _event_line(2, "both")
        )
        path.write_text(_event_line(2, "both") + _event_line(3, "new"))
        records, invalid = read_event_chain(path)
        assert invalid == 0
        assert [r["seq"] for r in records] == [1, 2, 3]

    def test_follow_survives_rotation_without_skipping(self, tmp_path):
        import os as _os

        path = tmp_path / "events.jsonl"
        path.write_text(_event_line(1, "pre") + _event_line(2, "pre"))
        rotated = {"done": False}

        def sleep_hook(_):
            if not rotated["done"]:
                rotated["done"] = True
                # the writer rotates: live file moves aside (carrying a
                # final event the reader has not consumed yet) and a
                # fresh file starts at the same path with a new inode
                _os.rename(path, str(path) + ".1")
                with open(str(path) + ".1", "a") as handle:
                    handle.write(_event_line(3, "tail"))
                path.write_text(_event_line(4, "post"))

        lines = list(
            follow_events(
                path,
                poll_s=0.01,
                idle_timeout_s=0.2,
                stall_after_s=99,
                _sleep=sleep_hook,
            )
        )
        body = "\n".join(lines)
        # nothing skipped: the rotated file's tail AND the fresh file
        assert "tail" in body
        assert "post" in body
        # ...and in order: the rotated generation drains first
        tail_at = next(i for i, l in enumerate(lines) if "tail" in l)
        post_at = next(i for i, l in enumerate(lines) if "post" in l)
        assert tail_at < post_at
