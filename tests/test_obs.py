"""Tests of the observability substrate (repro.obs)."""

import json
import math

import pytest

from repro import obs
from repro.errors import SerializationError
from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    RunManifest,
    build_manifest,
    configure_tracing,
    disable_metrics,
    enable_metrics,
    get_registry,
    kv,
    metrics_enabled,
    reset_tracing,
    span,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with obs fully disabled."""
    disable_metrics()
    reset_tracing()
    yield
    disable_metrics()
    reset_tracing()


class TestRegistryInstruments:
    def test_counter_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        # same name -> same instrument
        assert registry.counter("x") is counter

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(1.0)
        gauge.set(42.5)
        assert gauge.value == 42.5

    def test_timer_statistics(self):
        registry = MetricsRegistry()
        timer = registry.timer("t")
        timer.observe(1.0)
        timer.observe(3.0)
        assert timer.count == 2
        assert timer.total_s == pytest.approx(4.0)
        assert timer.mean_s == pytest.approx(2.0)
        assert timer.min_s == pytest.approx(1.0)
        assert timer.max_s == pytest.approx(3.0)

    def test_timer_context_manager(self):
        registry = MetricsRegistry()
        with registry.time("body"):
            pass
        assert registry.timer("body").count == 1
        assert registry.timer("body").total_s >= 0.0

    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.timer("t").observe(0.25)
        snap = registry.snapshot()
        assert set(snap) == {"counters", "gauges", "timers"}
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["timers"]["t"]["count"] == 1
        # snapshot must be JSON-serializable as-is
        json.dumps(snap)

    def test_reset_clears_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.snapshot()["counters"] == {}


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert not metrics_enabled()
        assert isinstance(get_registry(), NullRegistry)

    def test_null_registry_is_noop(self):
        registry = get_registry()
        registry.counter("c").inc(10)
        registry.gauge("g").set(5.0)
        registry.timer("t").observe(1.0)
        with registry.time("t"):
            pass
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "timers": {},
        }

    def test_enable_installs_live_registry(self):
        registry = enable_metrics()
        assert metrics_enabled()
        registry.counter("c").inc()
        # enable again without fresh keeps state
        assert enable_metrics().counter("c").value == 1
        # fresh=True resets
        assert enable_metrics(fresh=True).counter("c").value == 0

    def test_disabled_span_is_shared_noop(self):
        first = span("a")
        second = span("b", attr=1)
        assert first is second  # the shared null span


class TestSpans:
    def test_span_records_stage_timer(self):
        registry = enable_metrics(fresh=True)
        with span("unit-stage"):
            pass
        timer = registry.timer("stage.unit-stage")
        assert timer.count == 1

    def test_span_nesting_and_jsonl_output(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        configure_tracing(trace_path)
        assert tracing_enabled()
        with span("outer", level="top") as outer:
            with span("inner") as inner:
                assert inner.depth == outer.depth + 1
                assert inner.parent_id == outer.span_id
        reset_tracing()

        lines = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert lines[0]["type"] == "trace"
        spans = [rec for rec in lines if rec["type"] == "span"]
        # completion order: inner closes first
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner_rec, outer_rec = spans
        assert inner_rec["parent"] == outer_rec["id"]
        assert inner_rec["depth"] == outer_rec["depth"] + 1
        assert inner_rec["dur_s"] <= outer_rec["dur_s"]
        assert outer_rec["attrs"] == {"level": "top"}
        assert all(s["status"] == "ok" for s in spans)

    def test_span_error_status(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        configure_tracing(trace_path)
        with pytest.raises(RuntimeError):
            with span("boom"):
                raise RuntimeError("x")
        reset_tracing()
        spans = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
            if json.loads(line)["type"] == "span"
        ]
        assert spans[0]["status"] == "error"

    def test_tracing_without_metrics_still_traces(self, tmp_path):
        assert not metrics_enabled()
        trace_path = tmp_path / "trace.jsonl"
        configure_tracing(trace_path)
        with span("lone"):
            pass
        reset_tracing()
        assert "lone" in trace_path.read_text()


class TestManifest:
    def _populated_registry(self):
        registry = enable_metrics(fresh=True)
        registry.counter("array_mc.particles").inc(1000)
        registry.counter("array_mc.hits").inc(500)
        registry.counter("lut_cache.hits").inc(2)
        registry.counter("lut_cache.misses").inc(1)
        registry.counter("lut_cache.writes").inc(1)
        registry.gauge("array_mc.rays_per_sec").set(12345.0)
        registry.timer("stage.fit").observe(2.5)
        return registry

    def _manifest(self):
        return build_manifest(
            command="fit",
            argv=["fit", "--vdd", "0.8"],
            config={"vdd": 0.8, "seed": 2014},
            seed=2014,
            started_at="2026-08-06T00:00:00+00:00",
            duration_s=2.5,
            exit_code=0,
            version="1.0.0",
        )

    def test_build_manifest_lifts_summary_sections(self):
        self._populated_registry()
        manifest = self._manifest()
        assert manifest.mc["array_particles"] == 1000
        assert manifest.mc["rays_per_sec"] == 12345.0
        assert manifest.lut_cache == {
            "hits": 2,
            "misses": 1,
            "writes": 1,
            "invalid": 0,
        }
        # per-bin standard errors live in ``convergence_bins`` alone
        assert "convergence" not in manifest.to_dict()
        assert manifest.stage_timings_s["fit"]["total_s"] == pytest.approx(2.5)
        assert manifest.metrics["counters"]["array_mc.hits"] == 500

    def test_round_trip(self):
        self._populated_registry()
        manifest = self._manifest()
        payload = manifest.to_dict()
        clone = RunManifest.from_dict(payload)
        assert clone.to_dict() == payload

    def test_write_and_load(self, tmp_path):
        self._populated_registry()
        manifest = self._manifest()
        path = manifest.write(tmp_path / "run.json")
        loaded = RunManifest.load(path)
        assert loaded.to_dict() == manifest.to_dict()
        # atomic write leaves no temp litter
        assert list(tmp_path.glob("*.tmp")) == []

    def test_from_dict_rejects_bad_payloads(self):
        with pytest.raises(SerializationError):
            RunManifest.from_dict({"kind": "something-else"})
        with pytest.raises(SerializationError):
            RunManifest.from_dict(
                {"kind": "run_manifest", "schema_version": 99}
            )
        with pytest.raises(SerializationError):
            RunManifest.from_dict(
                {"kind": "run_manifest", "schema_version": 1}
            )


class TestKv:
    def test_formats_floats_compactly(self):
        assert kv(a=1, b=0.123456789, c="x") == "a=1 b=0.123457 c=x"


class TestCacheCounters:
    """Cache hit/miss counters across two build-luts CLI runs."""

    ARGS = [
        "build-luts",
        "--particles",
        "alpha",
        "--yield-trials",
        "300",
        "--yield-points",
        "4",
        "--samples",
        "8",
        "--quiet",
    ]

    def test_counters_across_two_runs(self, tmp_path):
        from repro.cli import main

        args = self.ARGS + ["--cache-dir", str(tmp_path)]

        assert main(args) == 0
        first = get_registry().snapshot()["counters"]
        assert first.get("lut_cache.misses", 0) >= 2  # yield LUT + POF table
        assert first.get("lut_cache.hits", 0) == 0
        assert first.get("lut_cache.writes", 0) == first["lut_cache.misses"]

        assert main(args) == 0
        second = get_registry().snapshot()["counters"]
        assert second.get("lut_cache.hits", 0) >= 2
        assert second.get("lut_cache.misses", 0) == 0

    def test_corrupt_cache_entry_counts_invalid(self, tmp_path):
        from repro.cli import main

        args = self.ARGS + ["--cache-dir", str(tmp_path)]
        assert main(args) == 0
        for cached in tmp_path.glob("*.json"):
            cached.write_text("{ not json")
        assert main(args) == 0
        counters = get_registry().snapshot()["counters"]
        assert counters.get("lut_cache.invalid", 0) >= 2
        assert counters.get("lut_cache.misses", 0) >= 2


class TestInstrumentedFlow:
    def test_fit_records_metrics_and_manifest_fields(self, tmp_path):
        """`repro-ser fit --metrics-out` emits the full manifest."""
        from repro.cli import main

        out = tmp_path / "run.json"
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "fit",
                "--vdd",
                "0.8",
                "--particles",
                "alpha",
                "--mc-particles",
                "2000",
                "--samples",
                "8",
                "--yield-trials",
                "300",
                "--yield-points",
                "4",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--metrics-out",
                str(out),
                "--trace",
                str(trace),
                "--quiet",
            ]
        )
        assert code == 0
        manifest = RunManifest.load(out)
        assert manifest.command == "fit"
        assert manifest.exit_code == 0
        assert manifest.seed == 2014
        assert manifest.mc["array_particles"] > 0
        assert manifest.mc["rays_per_sec"] > 0
        assert manifest.mc["transport_trials"] > 0
        assert manifest.lut_cache["misses"] >= 2
        assert "fit" in manifest.stage_timings_s
        assert "pof-table" in manifest.stage_timings_s
        # one convergence record per Monte Carlo bin: every array-MC
        # trial counted once, under its ``array-mc`` bin
        bins = manifest.convergence_bins
        per_bin = bins["per_bin"]
        assert bins["bins"] == len(per_bin) > 0
        assert bins["total_trials"] == sum(
            b["trials"] for b in per_bin.values()
        )
        stages = {key.split(".")[0] for key in per_bin}
        assert stages == {"array-mc", "yield-lut", "characterize"}
        array_bins = [
            b for key, b in per_bin.items() if key.startswith("array-mc.")
        ]
        assert sum(b["trials"] for b in array_bins) == (
            manifest.mc["array_particles"]
        )
        assert all(b["updates"] == 1 for b in per_bin.values())
        for b in array_bins:
            se = b["standard_error"]
            assert math.isnan(se) or (math.isfinite(se) and se >= 0)
        assert not any(
            name.startswith("convergence.")
            for name in manifest.metrics["gauges"]
        )
        # trace contains the nested stages
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
            if json.loads(line).get("type") == "span"
        }
        assert {"cli.fit", "fit", "pof-table", "yield-luts"} <= names


class TestQuantiles:
    """Timer quantiles: the p50/p99 surfaced in manifests."""

    def test_timer_exact_quantiles_in_snapshot(self):
        timer = MetricsRegistry().timer("t")
        for value in range(1, 101):  # 0.01 .. 1.00 s
            timer.observe(value / 100.0)
        assert timer.quantile(0.5) == pytest.approx(0.50, abs=0.01)
        snap = timer.snapshot()
        assert snap["p50_s"] == pytest.approx(0.50, abs=0.01)
        assert snap["p99_s"] == pytest.approx(0.99, abs=0.01)
        assert snap["samples"]  # retention buffer travels with snapshots

    def test_timer_decimation_keeps_quantiles_representative(self):
        from repro.obs.registry import TIMER_MAX_SAMPLES

        timer = MetricsRegistry().timer("t")
        n = TIMER_MAX_SAMPLES * 8
        for value in range(n):
            timer.observe(value / n)
        assert timer.count == n
        assert len(timer.samples) <= TIMER_MAX_SAMPLES
        # uniform stride-doubling subsample: quantiles stay close
        assert timer.quantile(0.5) == pytest.approx(0.5, abs=0.05)
        assert timer.quantile(0.99) == pytest.approx(0.99, abs=0.05)

    def test_timer_merge_folds_samples(self):
        a = MetricsRegistry().timer("t")
        b = MetricsRegistry().timer("t")
        for value in (0.1, 0.2, 0.3):
            a.observe(value)
        for value in (0.7, 0.8, 0.9):
            b.observe(value)
        a.merge(b.snapshot())
        assert a.count == 6
        assert a.quantile(0.5) == pytest.approx(0.5, abs=0.21)
        assert a.max_s == pytest.approx(0.9)

    def test_empty_instruments_report_zero(self):
        assert MetricsRegistry().timer("t").quantile(0.5) == 0.0


class TestJsonlWriter:
    def test_append_and_read(self, tmp_path):
        from repro.obs import JsonlWriter, read_jsonl

        path = tmp_path / "x.jsonl"
        writer = JsonlWriter(path, header={"type": "test", "format": 1})
        writer.write({"type": "rec", "i": 1})
        writer.write({"type": "rec", "i": 2})
        writer.close()
        records, invalid = read_jsonl(path)
        assert invalid == 0
        assert records[0]["type"] == "test"  # header first
        assert [r["i"] for r in records[1:]] == [1, 2]

    def test_torn_line_tolerated(self, tmp_path):
        from repro.obs import JsonlWriter, read_jsonl

        path = tmp_path / "x.jsonl"
        writer = JsonlWriter(path)
        writer.write({"type": "rec", "i": 1})
        writer.close()
        with open(path, "a") as handle:
            handle.write('{"type": "rec", "i":')  # a crash mid-append
        records, invalid = read_jsonl(path)
        assert [r["i"] for r in records] == [1]
        assert invalid == 1

    def test_size_rotation_keeps_one_generation(self, tmp_path):
        from repro.obs import JsonlWriter, read_jsonl

        path = tmp_path / "x.jsonl"
        writer = JsonlWriter(path, max_bytes=1024)
        for i in range(200):
            writer.write({"type": "rec", "i": i, "pad": "y" * 40})
        writer.close()
        rotated = tmp_path / "x.jsonl.1"
        assert rotated.exists()
        assert path.stat().st_size <= 2048  # fresh generation stays small
        for part in (path, rotated):
            _, invalid = read_jsonl(part)
            assert invalid == 0

    def test_writes_survive_after_close_as_noop(self, tmp_path):
        from repro.obs import JsonlWriter

        writer = JsonlWriter(tmp_path / "x.jsonl")
        writer.close()
        writer.write({"type": "rec"})  # must not raise


class TestManifestEnvironment:
    def test_capture_environment_reports_kill_switches(self, monkeypatch):
        from repro.obs import capture_environment

        monkeypatch.setenv("REPRO_NO_SHM", "1")
        monkeypatch.delenv("REPRO_PARALLEL_KILL", raising=False)
        env = capture_environment({"jobs": 4})
        assert env["env"]["REPRO_NO_SHM"] == "1"
        assert env["env"]["REPRO_PARALLEL_KILL"] is None  # recorded unset
        assert "REPRO_NO_WARM_POOL" not in env["env"]
        assert "warm_pool_enabled" not in env and "shm_enabled" not in env
        assert env["n_jobs"] == 4
        assert env["cpu_count"] >= 1

    def test_old_manifest_with_pool_switch_fields_loads_and_diffs(
        self, tmp_path
    ):
        """Manifests that still carry the dropped switch fields load."""
        from repro.obs.inspect import diff_manifests

        new = build_manifest(
            command="fit",
            argv=["fit"],
            config={"jobs": 2},
            seed=1,
            started_at="2026-01-01T00:00:00Z",
            duration_s=1.0,
            exit_code=0,
            version="test",
        )
        old = new.to_dict()
        old["environment"] = dict(
            old["environment"],
            warm_pool_enabled=True,
            shm_enabled=True,
            env=dict(old["environment"]["env"], REPRO_NO_WARM_POOL=None),
        )
        old_path = tmp_path / "old.json"
        old_path.write_text(json.dumps(old))
        new_path = new.write(tmp_path / "new.json")

        loaded = RunManifest.load(old_path)
        assert loaded.environment["warm_pool_enabled"] is True
        diffs, meta = diff_manifests(old_path, new_path)
        assert ("environment.warm_pool_enabled", True, "<absent>") in diffs
        assert ("environment.shm_enabled", True, "<absent>") in diffs
        assert meta["a"]["command"] == meta["b"]["command"] == "fit"

    def test_build_manifest_embeds_environment_and_strips_samples(self):
        from repro.obs import capture_environment  # noqa: F401

        registry = enable_metrics(fresh=True)
        registry.timer("stage.fit").observe(0.5)
        manifest = build_manifest(
            command="fit",
            argv=["fit"],
            config={"jobs": 2},
            seed=1,
            started_at="2026-01-01T00:00:00Z",
            duration_s=1.0,
            exit_code=0,
            version="test",
        )
        assert manifest.environment["n_jobs"] == 2
        assert "REPRO_NO_SHM" in manifest.environment["env"]
        stats = manifest.stage_timings_s["fit"]
        assert "p50_s" in stats and "p99_s" in stats
        # the raw retention buffer stays out of the derived section
        assert "samples" not in stats
        assert manifest.metrics["timers"]["stage.fit"]["samples"]
        # and survives a dict round-trip
        clone = RunManifest.from_dict(manifest.to_dict())
        assert clone.environment == manifest.environment

    def test_manifest_convergence_bins_section(self):
        from repro.obs import record_bin, reset_convergence

        enable_metrics(fresh=True)
        reset_convergence()
        try:
            record_bin(
                "array-mc", trials=500, pof=0.2, particle="alpha", vdd_v=0.8
            )
            manifest = build_manifest(
                command="fit",
                argv=["fit"],
                config={},
                seed=None,
                started_at="2026-01-01T00:00:00Z",
                duration_s=1.0,
                exit_code=0,
                version="test",
            )
        finally:
            reset_convergence()
        bins = manifest.convergence_bins
        se = (0.2 * 0.8 / 500) ** 0.5
        assert bins["bins"] == 1
        assert bins["total_trials"] == 500
        assert bins["worst_bin"] == "array-mc.alpha.vdd=0.8"
        assert bins["p50_se"] == pytest.approx(se)
        assert bins["per_bin"] == {
            "array-mc.alpha.vdd=0.8": {
                "trials": 500,
                "pof": 0.2,
                "standard_error": pytest.approx(se),
                "updates": 1,
            }
        }
        # the tracker is the one store: no per-bin gauge, no histogram
        assert manifest.metrics == {"counters": {}, "gauges": {}, "timers": {}}

    def test_old_manifest_with_convergence_section_loads_and_diffs(
        self, tmp_path
    ):
        """Manifests written with the dropped ``convergence`` section
        and ``metrics.histograms`` still load and diff."""
        from repro.obs.inspect import diff_manifests

        new = build_manifest(
            command="fit",
            argv=["fit"],
            config={"jobs": 2},
            seed=1,
            started_at="2026-01-01T00:00:00Z",
            duration_s=1.0,
            exit_code=0,
            version="test",
        )
        old = new.to_dict()
        assert old["schema_version"] == 1
        old["convergence"] = {"alpha.vdd=0.8": 1e-3}
        old["metrics"] = dict(
            old["metrics"],
            histograms={
                "convergence.pof_se": {"edges": [1e-3], "counts": [1, 0]}
            },
        )
        old_path = tmp_path / "old.json"
        old_path.write_text(json.dumps(old))
        new_path = new.write(tmp_path / "new.json")

        loaded = RunManifest.from_dict(json.loads(old_path.read_text()))
        assert loaded.command == "fit"
        assert "convergence" not in loaded.to_dict()
        assert "histograms" in loaded.metrics
        diffs, meta = diff_manifests(old_path, new_path)
        assert diffs == []
        assert meta["a"]["command"] == meta["b"]["command"] == "fit"
