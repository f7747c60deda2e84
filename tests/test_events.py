"""Streaming telemetry: event bus, worker events, kill ordering, live tail.

The parallel-path tests assert the contract consumers rely on: every
event carries a unique, strictly increasing ``seq`` stamped by the
parent bus; each shard's ``started`` precedes its ``finished``; pooled
rounds are bracketed by ``round`` start/end events and produce
heartbeats; and a worker killed mid-round (``REPRO_PARALLEL_KILL``)
yields ``retrying``/``lost`` progress events in order instead of a
torn stream.  The flow-level tests are the acceptance path: a tiny
``SerFlow`` sweep is live-tailed from another thread *while it runs*
(the same reader behind ``repro-ser obs tail -f``), and a flow whose
plans fork keeps bit-identical FITs with events and trace on.
"""

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import FlowConfig, SerFlow
from repro.obs.convergence import (
    get_convergence_tracker,
    record_bin,
    reset_convergence,
)
from repro.obs.events import (
    EventBus,
    EventRing,
    configure_events,
    disable_events,
    emit_event,
    events_enabled,
    get_event_bus,
)
from repro.obs.inspect import follow_events, tail_events
from repro.obs.jsonl import read_jsonl
from repro.obs.registry import disable_metrics, enable_metrics, get_registry
from repro.obs.trace import configure_tracing, reset_tracing
from repro.parallel import RetryPolicy, get_pack, parallel_map
from repro.parallel.engine import FAULT_ENV
from repro.parallel.pool import get_lease
from repro.sram import CharacterizationConfig


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts and ends with the whole obs plane disabled."""
    disable_events()
    disable_metrics()
    reset_tracing()
    reset_convergence()
    yield
    disable_events()
    disable_metrics()
    reset_tracing()
    reset_convergence()


# -- module-level task functions (picklable by reference) ----------------------


def _square_task(payload, task):
    return task * task


def _counting_task(payload, task):
    get_registry().counter("test.task_runs").inc()
    return task * task


def _stuck_task(payload, task):
    if task == payload:
        time.sleep(10.0)
    return task


class _BrokenPuts:
    """Worker event queue whose pipe is gone: every ``put`` raises."""

    def put(self, item):
        raise BrokenPipeError("event pipe is gone")


def _broken_events_task(payload, task):
    import repro.parallel.engine as engine

    engine._EVENT_QUEUE = _BrokenPuts()
    return task * task


def _read_events(path):
    records, invalid = read_jsonl(path)
    assert invalid == 0
    return [r for r in records if r.get("type") == "event"]


def _assert_ordered(events):
    """The bus contract: unique, strictly increasing sequence numbers."""
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs))


def _progress(events, label, state=None):
    picked = [
        e
        for e in events
        if e["kind"] == "progress" and e.get("label") == label
    ]
    if state is not None:
        picked = [e for e in picked if e.get("state") == state]
    return picked


# -- ring and bus --------------------------------------------------------------


class TestEventRing:
    def test_bounded_with_total(self):
        ring = EventRing(capacity=3)
        for i in range(5):
            ring.append({"kind": "progress", "i": i})
        assert len(ring) == 3
        assert ring.total == 5
        assert [e["i"] for e in ring.snapshot()] == [2, 3, 4]

    def test_kind_filter(self):
        ring = EventRing(capacity=8)
        ring.append({"kind": "round"})
        ring.append({"kind": "progress"})
        assert [e["kind"] for e in ring.snapshot("round")] == ["round"]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            EventRing(capacity=0)


class TestEventBus:
    def test_emit_stamps_seq_and_time(self, tmp_path):
        bus = EventBus(path=tmp_path / "ev.jsonl")
        a = bus.emit("round", label="x", phase="start")
        b = bus.emit("progress", label="x", index=0, state="started")
        bus.close()
        assert (a["seq"], b["seq"]) == (1, 2)
        assert a["t"] <= b["t"]
        events = _read_events(tmp_path / "ev.jsonl")
        assert [e["kind"] for e in events] == ["round", "progress"]

    def test_emit_rejects_unknown_kind(self):
        bus = EventBus(ring=4)
        with pytest.raises(ValueError):
            bus.emit("explosion")

    def test_emit_raw_restamps_worker_event(self):
        bus = EventBus(ring=4)
        bus.emit("round", label="x", phase="start")
        stamped = bus.emit_raw(
            {"kind": "progress", "label": "x", "pid": 1234, "seq": 999}
        )
        assert stamped["seq"] == 2  # parent order wins over worker stamp
        assert stamped["pid"] == 1234

    def test_needs_some_sink(self):
        with pytest.raises(ValueError):
            EventBus(path=None, ring=None)

    def test_configure_and_disable_lifecycle(self, tmp_path):
        assert not events_enabled()
        assert emit_event("round", label="x") is None  # zero-cost no-op
        bus = configure_events(tmp_path / "ev.jsonl")
        assert events_enabled() and get_event_bus() is bus
        emit_event("round", label="x", phase="start")
        disable_events()
        assert not events_enabled()
        assert len(_read_events(tmp_path / "ev.jsonl")) == 1

    def test_event_file_rotates_at_size_cap(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        configure_events(path, max_bytes=1024)
        for i in range(100):
            emit_event("progress", label="rotate", index=i, state="started")
        disable_events()
        assert path.with_name("ev.jsonl.1").exists()
        # both generations stay parseable whole-line JSONL
        for part in (path, path.with_name("ev.jsonl.1")):
            _, invalid = read_jsonl(part)
            assert invalid == 0


# -- parallel execution paths --------------------------------------------------


class TestParallelEvents:
    def _run_and_read(self, tmp_path, n_jobs, tasks=4):
        configure_events(tmp_path / "ev.jsonl")
        try:
            results = parallel_map(
                _square_task,
                list(range(tasks)),
                n_jobs=n_jobs,
                label="evmap",
            )
        finally:
            disable_events()
        assert results == [t * t for t in range(tasks)]
        return _read_events(tmp_path / "ev.jsonl")

    def test_inline_path_emits_bracketed_progress(self, tmp_path):
        events = self._run_and_read(tmp_path, n_jobs=1)
        _assert_ordered(events)
        rounds = [e for e in events if e["kind"] == "round"]
        assert [r["phase"] for r in rounds] == ["start", "end"]
        assert rounds[0]["path"] == "inline"
        assert len(_progress(events, "evmap", "started")) == 4
        assert len(_progress(events, "evmap", "finished")) == 4

    @pytest.mark.parametrize("leased", [False, True])
    def test_pooled_paths_stream_worker_events(self, tmp_path, leased):
        """Worker events stream from a newly forked and a reused pool."""
        get_lease().shutdown_all()
        if leased:
            parallel_map(_square_task, [0, 1], n_jobs=2, label="warmup")
        events = self._run_and_read(tmp_path, n_jobs=2)
        _assert_ordered(events)
        rounds = [e for e in events if e["kind"] == "round"]
        assert [r["phase"] for r in rounds] == ["start", "end"]
        assert rounds[0]["path"] == (
            "pool-warm-reuse" if leased else "pool-warm"
        )
        assert rounds[1]["lost"] == 0
        started = _progress(events, "evmap", "started")
        finished = _progress(events, "evmap", "finished")
        assert len(started) == 4 and len(finished) == 4
        # worker-originated events carry the worker's identity and
        # clock; each shard's started precedes its finished.
        parent_pids = {e["pid"] for e in started}
        assert all(e.get("t_worker") is not None for e in finished)
        assert len(parent_pids) >= 1
        by_index = {e["index"]: e["seq"] for e in started}
        for event in finished:
            assert by_index[event["index"]] < event["seq"]
        beats = [e for e in events if e["kind"] == "heartbeat"]
        assert len(beats) >= 2  # at least round-start and final
        final = [b for b in beats if b.get("final")]
        assert final and final[-1]["done"] == final[-1]["total"] == 4

    def test_warm_pool_reuse_keeps_streaming(self, tmp_path):
        configure_events(tmp_path / "ev.jsonl")
        try:
            for _ in range(2):  # second map reuses the leased pool
                parallel_map(
                    _square_task, [0, 1, 2], n_jobs=2, label="evreuse"
                )
        finally:
            disable_events()
        events = _read_events(tmp_path / "ev.jsonl")
        _assert_ordered(events)
        rounds = [e for e in events if e["kind"] == "round"]
        assert [r["phase"] for r in rounds] == ["start", "end"] * 2
        assert len(_progress(events, "evreuse", "finished")) == 6

    def test_late_finished_events_stay_in_their_round(self, tmp_path):
        """A shard's ``finished`` comes from the parent, in its round.

        The task breaks its worker's event queue, so no ``started``
        after a worker's first shard gets through; every stored shard
        still finishes exactly once, inside the round, and the final
        heartbeat counts it.
        """
        get_lease().shutdown_all()
        configure_events(tmp_path / "ev.jsonl")
        try:
            results = parallel_map(
                _broken_events_task, [2, 3, 4, 5], n_jobs=2, label="evlate"
            )
        finally:
            disable_events()
            # the workers keep the broken queue: retire them
            get_lease().shutdown_all()
        assert results == [4, 9, 16, 25]
        events = _read_events(tmp_path / "ev.jsonl")
        _assert_ordered(events)
        assert len(_progress(events, "evlate", "started")) < 4
        finished = _progress(events, "evlate", "finished")
        assert sorted(e["index"] for e in finished) == [0, 1, 2, 3]
        end = [e for e in events if e["kind"] == "round"][-1]
        assert end["phase"] == "end"
        assert all(e["seq"] < end["seq"] for e in finished)
        final = [e for e in events if e["kind"] == "heartbeat"][-1]
        assert final["final"] and final["done"] == 4

    def test_concurrent_rounds_finish_each_shard_once(self):
        """Two threads' pooled maps share one pool's event queue.

        Each round forwards whatever the queue holds, the other round's
        ``started`` events included, yet every stored shard of each
        label finishes exactly once after its ``started``, each final
        heartbeat counts only its own round, and no round waits out
        the other's stragglers.
        """
        parallel_map(_square_task, [0, 1], n_jobs=2, label="warmup")
        bus = configure_events()
        outputs = {}
        walls = []

        def run(label):
            outputs[label] = parallel_map(
                _square_task, list(range(24)), n_jobs=2, label=label
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for rep in range(5):
                pair = [f"cc{rep}a", f"cc{rep}b"]
                threads = [
                    threading.Thread(target=run, args=(label,))
                    for label in pair
                ]
                t0 = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                walls.append(time.perf_counter() - t0)
                assert not any(thread.is_alive() for thread in threads)
                for label in pair:
                    assert outputs[label] == [t * t for t in range(24)]
            events = bus.ring.snapshot()
        finally:
            sys.setswitchinterval(interval)
            disable_events()
        _assert_ordered(events)
        for label in outputs:
            started = {
                e["index"]: e["seq"] for e in _progress(events, label, "started")
            }
            finished = _progress(events, label, "finished")
            assert sorted(e["index"] for e in finished) == list(range(24))
            assert all(started[e["index"]] < e["seq"] for e in finished)
            final = [
                e
                for e in events
                if e["kind"] == "heartbeat"
                and e["label"] == label
                and e["final"]
            ]
            assert len(final) == 1
            assert final[0]["done"] == final[0]["total"] == 24
        assert min(walls) < 0.6

    def test_watchdog_loses_stuck_shard_while_heartbeats_continue(self):
        """The watchdog window runs from the last completion, not a beat."""
        bus = configure_events(heartbeat_s=0.1)
        t0 = time.perf_counter()
        try:
            results = parallel_map(
                _stuck_task,
                [0, 1, 2, 3],
                payload=1,  # shard 1 sleeps 10 s
                n_jobs=2,
                label="evstuck",
                retry=RetryPolicy(
                    retries=0, allow_partial=True, task_timeout_s=1.0
                ),
            )
            events = bus.ring.snapshot()
        finally:
            disable_events()
        assert time.perf_counter() - t0 < 5.0  # did not wait the 10 s out
        assert results == [0, None, 2, 3]
        _assert_ordered(events)
        lost = _progress(events, "evstuck", "lost")
        assert [e["index"] for e in lost] == [1]
        # the stuck shard's ``started`` names it before it is lost
        assert any(
            e["index"] == 1 and e["seq"] < lost[0]["seq"]
            for e in _progress(events, "evstuck", "started")
        )
        last_finished = max(
            e["seq"] for e in _progress(events, "evstuck", "finished")
        )
        stalled = [
            e
            for e in events
            if e["kind"] == "heartbeat"
            and e["label"] == "evstuck"
            and e["seq"] > last_finished
        ]
        assert len(stalled) >= 5
        assert {e["done"] for e in stalled} == {3}

    def test_no_bus_means_no_events_and_no_queue_for_fresh_pools(self):
        """Without a bus, a newly forked pool's queue carries nothing."""
        get_lease().shutdown_all()
        results = parallel_map(
            _square_task, [0, 1, 2, 3], n_jobs=2, label="dark"
        )
        assert results == [0, 1, 4, 9]
        assert get_event_bus() is None
        queue = get_lease().event_queue(2)
        assert queue.empty()


class TestKillEvents:
    """Event ordering and metric merging under REPRO_PARALLEL_KILL."""

    def test_kill_with_retry_emits_retrying_in_order(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"evkill:1:{marker}")
        configure_events(tmp_path / "ev.jsonl")
        configure_tracing(tmp_path / "trace.jsonl")
        try:
            results = parallel_map(
                _square_task,
                [2, 3, 4, 5],
                n_jobs=2,
                label="evkill",
                retry=RetryPolicy(retries=2, backoff_s=0.01),
            )
        finally:
            disable_events()
            reset_tracing()
        assert marker.exists() and results == [4, 9, 16, 25]
        events = _read_events(tmp_path / "ev.jsonl")
        _assert_ordered(events)
        retrying = _progress(events, "evkill", "retrying")
        assert retrying and retrying[0]["attempt"] == 1
        rounds = [e for e in events if e["kind"] == "round"]
        assert [r["phase"] for r in rounds] == ["start", "end"]
        assert rounds[0]["seq"] < retrying[0]["seq"] < rounds[1]["seq"]
        assert rounds[1]["lost"] == 0
        # every shard eventually finishes, and the retried shard's
        # recovery lands after the retrying event
        finished = _progress(events, "evkill", "finished")
        assert sorted(e["index"] for e in finished) == [0, 1, 2, 3]
        recovered = [e for e in finished if e["index"] == 1]
        assert recovered[-1]["seq"] > retrying[0]["seq"]
        # two pump generations (killed round + retry round) both beat
        beats = [e for e in events if e["kind"] == "heartbeat"]
        assert len(beats) >= 4
        # the abrupt os._exit kill never tears the trace file
        _, invalid = read_jsonl(tmp_path / "trace.jsonl")
        assert invalid == 0

    def test_degraded_round_emits_lost_and_merges_partial_metrics(
        self, tmp_path, monkeypatch
    ):
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"evlost:0:{marker}")
        registry = enable_metrics(fresh=True)
        configure_events(tmp_path / "ev.jsonl")
        try:
            results = parallel_map(
                _counting_task,
                [2, 3, 4, 5],
                n_jobs=2,
                label="evlost",
                retry=RetryPolicy(retries=0, allow_partial=True),
            )
        finally:
            disable_events()
        assert results[0] is None
        survivors = [r for r in results if r is not None]
        lost_count = results.count(None)
        # worker metric snapshots merge only from completed shards --
        # the None shards contribute nothing, and the degradation is
        # itself counted.
        assert registry.counter("test.task_runs").value == len(survivors)
        assert registry.counter("parallel.degraded").value == lost_count
        events = _read_events(tmp_path / "ev.jsonl")
        _assert_ordered(events)
        lost_events = _progress(events, "evlost", "lost")
        assert sorted(e["index"] for e in lost_events) == sorted(
            i for i, r in enumerate(results) if r is None
        )
        rounds = [e for e in events if e["kind"] == "round"]
        assert rounds[-1]["phase"] == "end"
        assert rounds[-1]["lost"] == lost_count
        assert all(
            rounds[0]["seq"] < e["seq"] < rounds[-1]["seq"]
            for e in lost_events
        )


    def test_degraded_round_finishes_each_stored_shard_once(
        self, tmp_path, monkeypatch
    ):
        """A broken round's ``finished`` events are its stored shards."""
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"evpart:3:{marker}")
        configure_events(tmp_path / "ev.jsonl")
        try:
            results = parallel_map(
                _square_task,
                list(range(8)),
                n_jobs=2,
                label="evpart",
                retry=RetryPolicy(retries=0, allow_partial=True),
            )
        finally:
            disable_events()
        assert marker.exists() and results[3] is None
        stored = [i for i, r in enumerate(results) if r is not None]
        assert stored  # shards 0 and 1 returned before shard 3 was taken
        events = _read_events(tmp_path / "ev.jsonl")
        _assert_ordered(events)
        finished = _progress(events, "evpart", "finished")
        assert sorted(e["index"] for e in finished) == stored
        end = [e for e in events if e["kind"] == "round"][-1]
        assert end["phase"] == "end"
        assert all(e["seq"] < end["seq"] for e in finished)


# -- convergence events --------------------------------------------------------


class TestConvergenceEvents:
    def test_record_bin_emits_event_and_tracks(self, tmp_path):
        configure_events(tmp_path / "ev.jsonl")
        try:
            record_bin(
                "fit",
                trials=1000,
                pof=0.25,
                particle="alpha",
                vdd_v=0.8,
                energy_mev=2.0,
            )
        finally:
            disable_events()
        events = _read_events(tmp_path / "ev.jsonl")
        assert len(events) == 1
        event = events[0]
        assert event["kind"] == "convergence"
        assert event["bin"] == "fit.alpha.vdd=0.8.e=2"
        assert event["trials"] == 1000
        assert event["pof_standard_error"] == pytest.approx(
            (0.25 * 0.75 / 1000) ** 0.5
        )
        tracker = get_convergence_tracker()
        assert tracker.summary()["bins"] == 1

    def test_record_bin_noop_when_dark(self):
        assert record_bin("fit", trials=10, pof=0.5) is None
        assert get_convergence_tracker().summary()["bins"] == 0


# -- the acceptance path: live-tail a running sweep ----------------------------


def _tiny_flow(n_jobs=2):
    config = FlowConfig(
        particles=("alpha",),
        vdd_list=(0.8,),
        n_energy_bins=2,
        mc_particles_per_bin=1500,
        array_rows=4,
        array_cols=4,
        deposition_mode="direct",
        characterization=CharacterizationConfig(
            vdd_list=(0.8,),
            n_charge_points=9,
            n_samples=16,
            max_pair_points=3,
            max_triple_points=3,
        ),
        seed=7,
    )
    return SerFlow(config, n_jobs=n_jobs)


class TestLiveSweepTelemetry:
    def test_sweep_events_consumable_mid_run(self, tmp_path, capsys):
        """A concurrent reader sees the sweep's events while it runs."""
        events_path = tmp_path / "events.jsonl"
        configure_events(events_path)
        lines = []
        stop = threading.Event()
        reader = threading.Thread(
            target=lambda: lines.extend(
                follow_events(
                    events_path,
                    poll_s=0.02,
                    stall_after_s=60.0,
                    stop=stop.is_set,
                )
            ),
            daemon=True,
        )
        reader.start()
        try:
            result = _tiny_flow(n_jobs=2).sweep()
        finally:
            time.sleep(0.1)  # let the reader drain the tail
            stop.set()
            reader.join(timeout=10.0)
            disable_events()
        assert not reader.is_alive()
        assert result.get("alpha", 0.8).fit_total > 0
        # the live reader consumed the stream, not a post-hoc dump
        text = "\n".join(lines)
        assert " progress " in text
        assert " heartbeat " in text
        assert " convergence " in text
        assert " round " in text

        # the stream on disk is strictly ordered and well formed
        events = _read_events(events_path)
        _assert_ordered(events)
        kinds = {e["kind"] for e in events}
        assert kinds >= {"round", "progress", "heartbeat", "convergence"}

        # and `repro-ser obs tail` renders it (the CLI surface)
        from repro.cli import main as cli_main

        assert cli_main(["obs", "tail", str(events_path), "--last", "5"]) == 0
        out = capsys.readouterr().out
        assert "events (" in out

    def test_pooled_fits_identical_with_events_and_trace(self, tmp_path):
        """Telemetry never changes the science: FITs of a flow whose
        plans fork are bit-identical with the event bus and the span
        trace live, and warm workers serve repeat tasks from their
        payload cache.  Four bins of 16384 particles clear the array-MC
        auto-inline threshold at two workers."""
        flow = SerFlow(
            FlowConfig(
                particles=("alpha",),
                vdd_list=(0.7, 0.9),
                n_energy_bins=4,
                mc_particles_per_bin=16384,
                array_rows=4,
                array_cols=4,
                deposition_mode="direct",
                characterization=CharacterizationConfig(
                    n_charge_points=9, n_samples=16
                ),
            ),
            n_jobs=2,
        )

        def fits():
            return [flow.fit("alpha", vdd) for vdd in flow.config.vdd_list]

        flow.simulator()  # characterization stays out of the counters
        try:
            registry = enable_metrics(fresh=True)
            bare = fits()
            counters = registry.snapshot()["counters"]
            configure_events(tmp_path / "events.jsonl")
            configure_tracing(tmp_path / "trace.jsonl")
            traced = fits()
        finally:
            get_lease().shutdown_all()
            get_pack().release_all()
        assert counters.get("parallel.maps", 0) >= 1
        assert counters.get("parallel.shm.payload_hits", 0) > 0
        events = _read_events(tmp_path / "events.jsonl")
        assert _progress(events, "array_mc", "finished")
        for a, b in zip(bare, traced):
            assert (a.fit_total, a.fit_seu, a.fit_mbu) == (
                b.fit_total,
                b.fit_seu,
                b.fit_mbu,
            )
            assert np.array_equal(a.pof_per_bin, b.pof_per_bin)

    def test_tail_events_counts_match_file(self, tmp_path):
        configure_events(tmp_path / "ev.jsonl")
        try:
            parallel_map(_square_task, [0, 1], n_jobs=1, label="tailme")
        finally:
            disable_events()
        lines, stats = tail_events(tmp_path / "ev.jsonl")
        assert stats["invalid"] == 0
        assert stats["events"] == len(lines)
        assert stats["kinds"]["progress"] == 4


class TestDeadSink:
    """A lost JSONL sink is dropped once and never re-touched."""

    class _DeadWriter:
        path = "/gone/events.jsonl"

        def __init__(self):
            self.writes = 0
            self.closed = False

        def write(self, record):
            self.writes += 1
            raise OSError("sink is gone")

        def close(self):
            self.closed = True

    def test_emit_survives_sink_loss_and_counts_drops(self, tmp_path):
        registry = enable_metrics(fresh=True)
        bus = EventBus(path=str(tmp_path / "ev.jsonl"), ring=8)
        dead = self._DeadWriter()
        bus.writer.close()
        bus.writer = dead

        first = bus.emit("progress", label="x", index=0, state="started")
        assert first is not None  # emission never breaks the science
        assert bus.writer is None  # the dead sink was dropped for good
        assert dead.closed
        assert bus.dropped == 1

        # later emits never re-touch the dead writer, but keep counting
        bus.emit("progress", label="x", index=1, state="started")
        assert dead.writes == 1
        assert bus.dropped == 2
        assert bus.path is None  # no sink is advertised anymore

        # the ring keeps working through the loss
        assert len(bus.ring.snapshot()) == 2
        counters = registry.snapshot()["counters"]
        assert counters["events.dropped"] == 2

    def test_healthy_bus_never_counts_drops(self, tmp_path):
        registry = enable_metrics(fresh=True)
        bus = EventBus(path=str(tmp_path / "ev.jsonl"), ring=8)
        bus.emit("progress", label="x", index=0, state="started")
        bus.close()
        assert bus.dropped == 0
        assert "events.dropped" not in registry.snapshot()["counters"]
