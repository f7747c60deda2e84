"""SER-as-a-service: query canonicalization, engine scheduling, daemon.

The engine tests drive :class:`~repro.service.CampaignEngine` with
injected (gated) runners so coalescing, admission, fairness, and
memoization are asserted deterministically — no sleeps standing in
for synchronization.  The daemon tests run the real asyncio server on
a unix socket in a background thread and talk to it through
:class:`~repro.service.ServiceClient` (the same path ``repro-ser
query`` uses).  One end-to-end test runs a real (tiny) campaign
through :func:`~repro.service.run_query` and checks bit-identity with
a directly built :class:`~repro.core.SerFlow`.
"""

import asyncio
import contextlib
import json
import socket as socketlib
import threading
import time

import pytest

from repro.cli import main as cli_main
from repro.obs import disable_events, disable_metrics, enable_metrics
from repro.obs.convergence import reset_convergence
from repro.obs.trace import reset_tracing
from repro.service import (
    AdmissionError,
    CampaignEngine,
    ExecutionOptions,
    QueryError,
    QuerySpec,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
    build_flow,
    get_service_ledger,
    reset_service_ledger,
    run_query,
)


@pytest.fixture(autouse=True)
def _clean_state():
    disable_events()
    disable_metrics()
    reset_tracing()
    reset_convergence()
    reset_service_ledger()
    yield
    disable_events()
    disable_metrics()
    reset_tracing()
    reset_convergence()
    reset_service_ledger()


@contextlib.contextmanager
def engine_ctx(**kwargs):
    engine = CampaignEngine(**kwargs)
    try:
        yield engine
    finally:
        engine.shutdown(wait=True, timeout_s=10.0)


def _tiny_spec(**overrides):
    """A spec distinct from every default (cheap canonicalization)."""
    fields = dict(
        particles=("alpha",),
        vdd_list=(0.8,),
        mc_particles=300,
        samples=8,
        yield_trials=120,
        yield_points=3,
    )
    fields.update(overrides)
    return QuerySpec(**fields)


def _fake_result(degraded=False):
    return {
        "kind": "ser_result",
        "key": "k" * 16,
        "cases": [
            {
                "particle": "alpha",
                "vdd": 0.8,
                "fit_total": 1.0,
                "fit_seu": 0.9,
                "fit_mbu": 0.1,
                "mbu_to_seu_ratio": 0.111,
                "degraded": degraded,
            }
        ],
        "degraded": degraded,
    }


def _wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


#: Requests that must get ``QueryError`` (``bad-request`` from the
#: daemon) before any campaign is admitted: out-of-range values, JSON
#: values of the wrong type, non-finite numbers (JSON's ``NaN`` and
#: ``Infinity`` literals on the wire), a config error raised while
#: the spec compiles, and out-of-range adaptive fields with adaptive
#: sampling off.
MALFORMED_SPECS = (
    {"array_rows": 0},
    {"samples": 1.5},
    {"seed": "x"},
    {"seed": -1},
    {"yield_trials": 0},
    {"data_pattern": "zzz"},
    {"mc_particles": True},
    {"particles": "alpha"},
    {"adaptive": True, "target_se": -1},
    {"vdd_list": [float("nan")]},
    {"vdd_list": [float("inf")]},
    {"adaptive": True, "target_se": float("nan")},
    {"target_se": float("nan")},
    {"pilot_trials": -5},
    {"max_trials": 0},
    {"vdd_list": [0.7, 0.7]},
    {"particles": ["alpha", "alpha"]},
)


@pytest.fixture()
def key_derivations(monkeypatch):
    """The specs of every ``QuerySpec.canonical_key`` call, in order."""
    derived = []
    real = QuerySpec.canonical_key
    monkeypatch.setattr(
        QuerySpec,
        "canonical_key",
        lambda spec: derived.append(spec) or real(spec),
    )
    return derived


class _GatedRunner:
    """Counts calls; campaigns whose seed is gated block until released."""

    def __init__(self, gate_seeds=()):
        self.calls = []
        self.order = []
        self.started = threading.Event()
        self.release = threading.Event()
        self.gate_seeds = set(gate_seeds)

    def __call__(self, spec):
        self.calls.append(spec)
        self.order.append(spec.seed)
        self.started.set()
        if spec.seed in self.gate_seeds:
            assert self.release.wait(timeout=10.0)
        return _fake_result()


class TestQuerySpec:
    def test_canonical_key_field_order_independent(self):
        a = _tiny_spec()
        b = QuerySpec.from_dict(
            json.loads(json.dumps(a.to_dict(), sort_keys=True))
        )
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_key_tolerates_list_vs_tuple(self):
        a = QuerySpec(particles=["alpha"], vdd_list=[0.8])
        b = QuerySpec(particles=("alpha",), vdd_list=(0.8,))
        assert a == b
        assert a.canonical_key() == b.canonical_key()

    def test_canonical_key_sensitive_to_physics_fields(self):
        base = _tiny_spec()
        assert base.canonical_key() != _tiny_spec(seed=7).canonical_key()
        assert (
            base.canonical_key()
            != _tiny_spec(ecc="SEC-DED").canonical_key()
        )

    def test_interleave_outside_key_without_ecc(self):
        # analysis knobs only count when the analysis is requested
        assert (
            _tiny_spec(interleave=2).canonical_key()
            == _tiny_spec(interleave=8).canonical_key()
        )

    def test_integer_and_float_spellings_share_one_key(self):
        """Equal specs are one question: a float field spelled as an
        integer keys like its float spelling, whose key is unchanged."""
        as_int = QuerySpec.from_dict({"adaptive": True, "target_se": 1})
        as_float = QuerySpec.from_dict({"adaptive": True, "target_se": 1.0})
        assert as_int == as_float
        assert type(as_int.target_se) is float
        assert as_int.canonical_key() == "c3423fdf1f32394e"
        assert as_float.canonical_key() == "c3423fdf1f32394e"

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(QueryError, match="unknown spec field"):
            QuerySpec.from_dict({"particless": ["alpha"]})

    def test_rejects_bad_values(self):
        with pytest.raises(QueryError):
            QuerySpec(particles=())
        with pytest.raises(QueryError):
            QuerySpec(vdd_list=())
        with pytest.raises(QueryError):
            QuerySpec(ecc="hamming")
        with pytest.raises(QueryError):
            QuerySpec(interleave=0)
        for payload in MALFORMED_SPECS:
            with pytest.raises(QueryError):
                QuerySpec.from_dict(payload)

    def test_defaults_match_cli_defaults(self):
        """An empty query asks what a bare ``repro-ser sweep`` computes."""
        spec = QuerySpec()
        assert spec.particles == ("alpha", "proton")
        assert spec.vdd_list == (0.7, 0.8, 0.9, 1.0, 1.1)
        assert spec.mc_particles == 50000
        assert spec.samples == 200
        assert spec.yield_trials == 20000
        assert spec.seed == 2014
        assert spec.variation is True

    def test_to_flow_config_matches_direct_construction(self):
        from repro.core import FlowConfig
        from repro.io import config_hash
        from repro.sram import CharacterizationConfig

        spec = _tiny_spec()
        direct = FlowConfig(
            particles=("alpha",),
            vdd_list=(0.8,),
            yield_trials_per_energy=120,
            yield_energy_points=3,
            characterization=CharacterizationConfig(
                vdd_list=(0.8,), n_samples=8
            ),
            process_variation=True,
            mc_particles_per_bin=300,
            seed=2014,
        )
        assert config_hash(spec.to_flow_config()) == config_hash(direct)


class TestCampaignEngine:
    def test_identical_inflight_requests_coalesce(self):
        registry = enable_metrics(fresh=True)
        runner = _GatedRunner(gate_seeds={2014})
        with engine_ctx(runner=runner) as engine:
            spec = _tiny_spec()
            futures = [engine.submit(spec) for _ in range(3)]
            assert runner.started.wait(5.0)
            # all three landed on one campaign before it finished
            runner.release.set()
            results = [f.result(timeout=10.0) for f in futures]
        assert len(runner.calls) == 1
        assert [r["source"] for r in results] == [
            "campaign",
            "coalesced",
            "coalesced",
        ]
        snapshot = registry.snapshot()["counters"]
        assert snapshot["service.requests"] == 3
        assert snapshot["service.coalesced"] == 2
        assert snapshot["service.campaigns"] == 1

    def test_coalesced_request_labelled_and_shares_the_outcome(self):
        """A key submitted twice in flight: the second is ``coalesced``,
        with the campaign's result, or with its error."""
        runner = _GatedRunner(gate_seeds={2014})
        with engine_ctx(runner=runner) as engine:
            first = engine.submit(_tiny_spec())
            assert runner.started.wait(5.0)
            second = engine.submit(_tiny_spec())
            assert second is not first
            runner.release.set()
            started = first.result(timeout=10.0)
            coalesced = second.result(timeout=10.0)
        assert started["source"] == "campaign"
        assert coalesced["source"] == "coalesced"
        assert dict(coalesced, source="campaign") == started

        release = threading.Event()
        calls = []

        def failing(spec):
            calls.append(spec)
            assert release.wait(timeout=10.0)
            raise RuntimeError("campaign blew up")

        with engine_ctx(runner=failing) as engine:
            first = engine.submit(_tiny_spec())
            assert _wait_until(lambda: len(calls) == 1)
            second = engine.submit(_tiny_spec())
            release.set()
            for future in (first, second):
                with pytest.raises(RuntimeError, match="blew up"):
                    future.result(timeout=10.0)
        assert len(calls) == 1

    def test_equal_specs_derive_the_key_once(self, key_derivations):
        """Five equal submissions, in both spellings of a float field,
        and the campaign they start hash the spec once."""
        payload = _tiny_spec().to_dict()
        specs = [
            QuerySpec.from_dict(dict(payload, target_se=value))
            for value in (1, 1.0, 1, 1.0, 1)
        ]
        runner = _GatedRunner(gate_seeds={2014})
        with engine_ctx(runner=runner) as engine:
            futures = [engine.submit(spec) for spec in specs[:4]]
            assert runner.started.wait(5.0)
            runner.release.set()
            results = [f.result(timeout=10.0) for f in futures]
            results.append(engine.submit(specs[4]).result(timeout=10.0))
        assert len(runner.calls) == 1
        assert [r["source"] for r in results] == (
            ["campaign"] + ["coalesced"] * 3 + ["memo"]
        )
        assert len(key_derivations) == 1

    def test_default_runner_hands_its_key_to_run_query(
        self, key_derivations, monkeypatch
    ):
        from repro.service import engine as engine_module

        spec = _tiny_spec()
        expected = spec.canonical_key()
        key_derivations.clear()
        keys = []

        def fake_run_query(spec, flow=None, pair_offsets=None, key=None):
            keys.append(key)
            return _fake_result()

        monkeypatch.setattr(engine_module, "run_query", fake_run_query)
        with engine_ctx() as engine:
            engine.submit(spec).result(timeout=10.0)
        assert keys == [expected]
        assert len(key_derivations) == 1

    def test_completed_results_memoized(self):
        registry = enable_metrics(fresh=True)
        runner = _GatedRunner()
        with engine_ctx(runner=runner) as engine:
            spec = _tiny_spec()
            engine.submit(spec).result(timeout=10.0)
            repeat = engine.submit(spec).result(timeout=10.0)
        assert len(runner.calls) == 1
        assert repeat["source"] == "memo"
        assert registry.snapshot()["counters"]["service.memo_hits"] == 1

    def test_degraded_results_not_memoized(self):
        calls = []

        def runner(spec):
            calls.append(spec)
            return _fake_result(degraded=len(calls) == 1)

        with engine_ctx(runner=runner) as engine:
            spec = _tiny_spec()
            first = engine.submit(spec).result(timeout=10.0)
            second = engine.submit(spec).result(timeout=10.0)
        assert first["degraded"] and not second["degraded"]
        assert len(calls) == 2  # the degraded answer was recomputed

    def test_admission_control_rejects_past_bound(self):
        enable_metrics(fresh=True)
        runner = _GatedRunner(gate_seeds={0})
        with engine_ctx(
            runner=runner, max_concurrent=1, max_pending=1
        ) as engine:
            blocker = engine.submit(_tiny_spec(seed=0))
            assert runner.started.wait(5.0)  # occupies the running slot
            assert _wait_until(lambda: engine.stats()["running"] == 1)
            queued = engine.submit(_tiny_spec(seed=1))  # fills the queue
            with pytest.raises(AdmissionError):
                engine.submit(_tiny_spec(seed=2))
            assert engine.stats()["rejected"] == 1
            # a coalescing request is free: it is NOT a new campaign
            engine.submit(_tiny_spec(seed=1))
            runner.release.set()
            blocker.result(timeout=10.0)
            queued.result(timeout=10.0)

    def test_per_tenant_round_robin_fairness(self):
        runner = _GatedRunner(gate_seeds={0})
        with engine_ctx(runner=runner, max_concurrent=1) as engine:
            blocker = engine.submit(_tiny_spec(seed=0), tenant="z")
            assert runner.started.wait(5.0)
            assert _wait_until(lambda: engine.stats()["running"] == 1)
            hog = [
                engine.submit(_tiny_spec(seed=s), tenant="hog")
                for s in (10, 11, 12)
            ]
            polite = engine.submit(_tiny_spec(seed=20), tenant="polite")
            runner.release.set()
            for future in [blocker, polite] + hog:
                future.result(timeout=10.0)
        order = runner.order
        # round-robin: the single 'polite' campaign is not starved
        # behind the hog's backlog — it runs before the hog's last one
        assert order.index(20) < order.index(12)

    def test_campaign_failure_propagates_to_every_waiter(self):
        registry = enable_metrics(fresh=True)
        boom = RuntimeError("campaign exploded")
        gate = threading.Event()

        def runner(spec):
            assert gate.wait(timeout=10.0)
            raise boom

        with engine_ctx(runner=runner) as engine:
            spec = _tiny_spec()
            futures = [engine.submit(spec) for _ in range(2)]
            gate.set()
            for future in futures:
                with pytest.raises(RuntimeError, match="exploded"):
                    future.result(timeout=10.0)
            # a failure is not memoized: the next request retries
            gate.clear()
            retry = engine.submit(spec)
            gate.set()
            with pytest.raises(RuntimeError):
                retry.result(timeout=10.0)
        assert registry.snapshot()["counters"]["service.failures"] == 2

    def test_shutdown_fails_pending_campaigns(self):
        runner = _GatedRunner(gate_seeds={0})
        engine = CampaignEngine(runner=runner, max_concurrent=1)
        blocker = engine.submit(_tiny_spec(seed=0))
        assert runner.started.wait(5.0)
        assert _wait_until(lambda: engine.stats()["running"] == 1)
        # the second submission coalesces onto the queued campaign
        pending = [engine.submit(_tiny_spec(seed=1)) for _ in range(2)]
        runner.release.set()
        engine.shutdown(wait=True, timeout_s=10.0)
        blocker.result(timeout=10.0)  # in-flight campaign completed
        for future in pending:
            with pytest.raises(ServiceError):
                future.result(timeout=10.0)
        with pytest.raises(ServiceError):
            engine.submit(_tiny_spec(seed=2))

    def test_ledger_records_served_campaigns(self):
        runner = _GatedRunner(gate_seeds={2014})
        with engine_ctx(runner=runner) as engine:
            spec = _tiny_spec()
            futures = [engine.submit(spec, tenant="t") for _ in range(2)]
            assert runner.started.wait(5.0)
            runner.release.set()
            for future in futures:
                future.result(timeout=10.0)
        entries = get_service_ledger().summary()
        assert len(entries) == 1
        assert entries[0]["tenant"] == "t"
        assert entries[0]["requests"] == 2
        assert entries[0]["ok"] is True

    def test_request_latency_percentiles_exposed(self):
        enable_metrics(fresh=True)
        with engine_ctx(runner=_GatedRunner()) as engine:
            engine.submit(_tiny_spec()).result(timeout=10.0)
            stats = engine.stats()
        assert stats["request_p50_s"] > 0.0
        assert stats["request_p99_s"] >= stats["request_p50_s"]


class _DaemonHarness:
    """Run the asyncio daemon in a background thread for blocking tests."""

    def __init__(self, engine, socket_path):
        self.socket_path = str(socket_path)
        self.daemon = ServiceDaemon(engine, socket_path=self.socket_path)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        await self.daemon.start()
        self._ready.set()
        await self.daemon.serve_until_shutdown()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(5.0), "daemon did not start"
        return self

    def __exit__(self, *exc_info):
        try:
            with ServiceClient(
                socket_path=self.socket_path, timeout_s=5.0
            ) as client:
                client.shutdown()
        except (ServiceError, OSError):
            pass  # already stopped by the test body
        self._thread.join(5.0)

    def client(self, timeout_s=10.0):
        return ServiceClient(socket_path=self.socket_path, timeout_s=timeout_s)


class TestServiceDaemon:
    def test_query_round_trip_and_stats(self, tmp_path):
        enable_metrics(fresh=True)
        runner = _GatedRunner()
        engine = CampaignEngine(runner=runner)
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:
                with harness.client() as client:
                    assert client.ping()
                    reply = client.query(_tiny_spec())
                    assert reply["ok"] and reply["source"] == "campaign"
                    assert reply["result"]["cases"][0]["fit_total"] == 1.0
                    repeat = client.query(_tiny_spec())
                    assert repeat["source"] == "memo"
                    stats = client.stats()
                    assert stats["requests"] == 2
                    assert stats["memo_hits"] == 1
                    assert stats["campaigns"] == 1
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)

    def test_concurrent_clients_coalesce(self, tmp_path):
        enable_metrics(fresh=True)
        runner = _GatedRunner(gate_seeds={2014})
        engine = CampaignEngine(runner=runner)
        replies = [None, None]
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:

                def ask(i):
                    with harness.client() as client:
                        replies[i] = client.query(_tiny_spec(), tenant=f"t{i}")

                threads = [
                    threading.Thread(target=ask, args=(i,)) for i in (0, 1)
                ]
                for thread in threads:
                    thread.start()
                assert runner.started.wait(5.0)
                # both requests are in flight on one campaign
                assert _wait_until(
                    lambda: engine.stats()["coalesced"] == 1
                )
                runner.release.set()
                for thread in threads:
                    thread.join(10.0)
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)
        assert len(runner.calls) == 1
        assert all(r is not None and r["ok"] for r in replies)

    def test_malformed_spec_rejected_as_bad_request(self, tmp_path):
        runner = _GatedRunner()
        engine = CampaignEngine(runner=runner)
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:
                with harness.client() as client:
                    with pytest.raises(ServiceError, match="bad-request"):
                        client.query({"no_such_field": 1})
                    for payload in MALFORMED_SPECS:
                        with pytest.raises(ServiceError, match="bad-request"):
                            client.query(payload)
                    # the connection survives a bad request
                    assert client.ping()
            assert runner.calls == []
            assert engine.stats()["campaigns"] == 0
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)

    def test_admission_rejection_reported_with_code(self, tmp_path):
        runner = _GatedRunner(gate_seeds={0})
        engine = CampaignEngine(
            runner=runner, max_concurrent=1, max_pending=0
        )
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:
                blocker_reply = [None]

                def ask_blocker():
                    with harness.client() as client:
                        blocker_reply[0] = client.query(_tiny_spec(seed=0))

                blocker = threading.Thread(target=ask_blocker)
                blocker.start()
                assert runner.started.wait(5.0)
                assert _wait_until(lambda: engine.stats()["running"] == 1)
                with harness.client() as client:
                    with pytest.raises(ServiceError, match="rejected"):
                        client.query(_tiny_spec(seed=1))
                runner.release.set()
                blocker.join(10.0)
                assert blocker_reply[0]["ok"]
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)

    def test_client_disconnect_mid_campaign_leaves_engine_serving(
        self, tmp_path
    ):
        """A flaky client must not kill the shared single-flight."""
        runner = _GatedRunner(gate_seeds={2014})
        engine = CampaignEngine(runner=runner)
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:
                # fire a query and hang up before the answer
                raw = socketlib.socket(
                    socketlib.AF_UNIX, socketlib.SOCK_STREAM
                )
                raw.connect(harness.socket_path)
                raw.sendall(
                    json.dumps(
                        {
                            "op": "query",
                            "id": 1,
                            "spec": _tiny_spec().to_dict(),
                        }
                    ).encode("utf-8")
                    + b"\n"
                )
                assert runner.started.wait(5.0)
                raw.close()  # the client dies mid-campaign
                runner.release.set()
                assert _wait_until(
                    lambda: engine.stats()["campaigns"] == 1
                ) or engine.stats()["served"] == 1
                # the daemon still serves; the orphaned result is memoized
                with harness.client() as client:
                    reply = client.query(_tiny_spec())
                    assert reply["source"] == "memo"
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)

    def test_watch_streams_progress_events(self, tmp_path):
        from repro.obs import configure_events, emit_event

        configure_events(path=None)  # ring-only bus for the fan-out
        release = threading.Event()

        def runner(spec):
            emit_event("progress", label="svc", index=0, state="started")
            emit_event("progress", label="svc", index=0, state="finished")
            assert release.wait(timeout=10.0)
            return _fake_result()

        engine = CampaignEngine(runner=runner)
        seen = []
        try:
            with _DaemonHarness(engine, tmp_path / "ser.sock") as harness:
                with harness.client() as client:

                    def on_event(event):
                        seen.append(event)
                        release.set()  # got a live event: let it finish

                    reply = client.query(
                        _tiny_spec(), watch=True, on_event=on_event
                    )
                    assert reply["ok"]
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)
        assert any(e.get("label") == "svc" for e in seen)


class TestWatchBaseline:
    @staticmethod
    def _full_scan():
        """The highest seq in the ring, by reading every event."""
        from repro.obs import get_event_bus

        events = get_event_bus().ring.snapshot()
        return max((e.get("seq", 0) for e in events), default=0)

    def test_ring_seq_is_the_highest_seq_in_the_ring(self):
        from repro.obs import configure_events, emit_event, get_event_bus

        assert ServiceDaemon._ring_seq() == 0  # telemetry off
        configure_events(path=None, ring=4)
        assert ServiceDaemon._ring_seq() == self._full_scan() == 0
        for total in (3, 4, 11):  # partly filled, full, evicting
            while get_event_bus().ring.total < total:
                emit_event("progress", label="svc", index=0, state="started")
            assert ServiceDaemon._ring_seq() == self._full_scan() == total


class TestCliFrontEnd:
    def test_cli_query_against_daemon(self, tmp_path, capsys):
        engine = CampaignEngine(runner=_GatedRunner())
        sock = tmp_path / "ser.sock"
        try:
            with _DaemonHarness(engine, sock):
                code = cli_main(
                    [
                        "query",
                        "--socket", str(sock),
                        "--particles", "alpha",
                        "--vdd-list", "0.8",
                        "--mc-particles", "300",
                        "--samples", "8",
                        "--yield-trials", "120",
                        "--yield-points", "3",
                    ]
                )
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)
        assert code == 0
        out = capsys.readouterr().out
        assert "source=campaign" in out
        assert "alpha" in out

    def test_cli_query_without_daemon_fails_cleanly(self, tmp_path, capsys):
        code = cli_main(
            ["query", "--socket", str(tmp_path / "nope.sock")]
        )
        assert code == 1
        assert "query failed" in capsys.readouterr().out


class TestRealCampaign:
    def test_run_query_bit_identical_to_direct_flow(self, tmp_path):
        import numpy as np

        from repro.core import SerFlow

        spec = _tiny_spec()
        options = ExecutionOptions(cache_dir=str(tmp_path / "svc-cache"))
        result = run_query(spec, options=options)
        assert result["kind"] == "ser_result"
        case = result["cases"][0]

        direct_flow = SerFlow(
            spec.to_flow_config(), cache_dir=str(tmp_path / "direct-cache")
        )
        direct = direct_flow.sweep().get("alpha", 0.8)
        assert np.isclose(case["fit_total"], direct.fit_total, rtol=0, atol=0)
        assert np.isclose(case["fit_seu"], direct.fit_seu, rtol=0, atol=0)
        assert np.isclose(case["fit_mbu"], direct.fit_mbu, rtol=0, atol=0)

    def test_run_query_with_ecc_analysis(self, tmp_path):
        spec = _tiny_spec(ecc="SEC-DED", interleave=4, ecc_pair_particles=500)
        options = ExecutionOptions(cache_dir=str(tmp_path / "cache"))
        result = run_query(spec, options=options)
        assert len(result["ecc"]) == 1
        analysis = result["ecc"][0]
        assert analysis["scheme"] == "SEC-DED"
        assert analysis["interleave_distance"] == 4
        assert analysis["uncorrectable_rate"] <= analysis["raw_seu_rate"]

    def test_engine_default_runner_end_to_end(self, tmp_path):
        options = ExecutionOptions(cache_dir=str(tmp_path / "cache"))
        with engine_ctx(options=options) as engine:
            spec = _tiny_spec()
            first = engine.submit(spec).result(timeout=120.0)
            repeat = engine.submit(spec).result(timeout=10.0)
        assert first["source"] == "campaign"
        assert repeat["source"] == "memo"
        assert repeat["cases"] == first["cases"]

    def test_models_share_one_live_pof_table(self, tmp_path):
        """Two models of one cell read one POF table object."""
        options = ExecutionOptions(cache_dir=str(tmp_path / "cache"))
        first = build_flow(_tiny_spec(seed=1), options)
        table = first.pof_table()
        second = build_flow(_tiny_spec(seed=2), options)
        assert second.model_key() != first.model_key()
        assert second.pof_table() is table

    def test_build_flow_shares_cache_keys_with_cli_flow(self, tmp_path):
        flow = build_flow(
            _tiny_spec(), ExecutionOptions(cache_dir=str(tmp_path))
        )
        # the flow compiles from the same FlowConfig the CLI produces,
        # so its sweep cache key is a pure function of the spec
        assert flow.config.seed == 2014
        assert flow.config.particles == ("alpha",)


def _result_json(result):
    result = dict(result)
    result.pop("source", None)
    return json.dumps(result, sort_keys=True)


class TestModelReuse:
    """The engine builds each array model once and shares it."""

    #: One changed value per QuerySpec field, and whether the field
    #: changes the model key.
    PERTURBATIONS = [
        ("particles", ("alpha", "proton"), True),
        ("vdd_list", (0.9,), True),
        ("array_rows", 3, True),
        ("array_cols", 4, True),
        ("data_pattern", "checkerboard", True),
        ("n_energy_bins", 3, False),
        ("mc_particles", 600, False),
        ("samples", 10, True),
        ("yield_trials", 150, True),
        ("yield_points", 4, True),
        ("seed", 7, True),
        ("variation", False, True),
        ("adaptive", True, False),
        ("target_se", 1e-3, False),
        ("target_se_relative", True, False),
        ("max_trials", 1000, False),
        ("pilot_trials", 4096, False),
        ("ecc", "SEC-DED", False),
        ("interleave", 2, False),
        ("ecc_pair_particles", 500, False),
    ]

    def test_model_key_changes_exactly_with_the_simulator(self, tmp_path):
        import pickle
        from dataclasses import fields

        covered = {name for name, _, _ in self.PERTURBATIONS}
        assert covered == {f.name for f in fields(QuerySpec)}
        options = ExecutionOptions(cache_dir=str(tmp_path / "cache"))

        def model(spec):
            # the second flow loads every artifact the first one built,
            # so each simulator is assembled the same way
            build_flow(spec, options).simulator()
            flow = build_flow(spec, options)
            return flow.model_key(), pickle.dumps(flow.simulator())

        base_key, base_bytes = model(_tiny_spec())
        for name, value, changes in self.PERTURBATIONS:
            key, pickled = model(_tiny_spec(**{name: value}))
            assert (key != base_key) is changes, name
            assert (pickled != base_bytes) is changes, name

    def test_mixed_batch_matches_fresh_queries(self, tmp_path):
        enable_metrics(fresh=True)
        specs = [
            _tiny_spec(
                particles=particles,
                mc_particles=mc,
                n_energy_bins=bins,
                ecc=ecc,
                ecc_pair_particles=400,
                seed=seed,
            )
            for seed in (3, 4)
            for particles in (("alpha",), ("alpha", "proton"))
            for mc in (300, 600)
            for bins in (2, 3)
            for ecc in (None, "SEC-DED")
        ]
        options = ExecutionOptions(cache_dir=str(tmp_path / "engine"))
        with engine_ctx(options=options) as engine:
            served = [
                engine.submit(spec).result(timeout=120.0) for spec in specs
            ]
            stats = engine.stats()
        fresh = ExecutionOptions(cache_dir=str(tmp_path / "fresh"))
        for spec, result in zip(specs, served):
            assert result["source"] == "campaign"
            assert _result_json(result) == _result_json(
                run_query(spec, options=fresh)
            )
        # 4 models (2 seeds x 2 particle sets) serve 32 campaigns; per
        # model each (particle, energy) pair campaign runs once, then
        # serves the other budget's ECC query
        assert stats["campaigns"] == 32
        assert stats["model_hits"] == 28
        assert stats["pair_offset_hits"] == 12

    def test_degraded_model_is_not_stored(self, tmp_path, monkeypatch):
        from repro.parallel import RetryPolicy, get_lease, get_pack
        from repro.parallel.engine import FAULT_ENV

        enable_metrics(fresh=True)
        get_lease().shutdown_all()
        get_pack().release_all()
        # the last of 5 energy points dies with the pool, so the LUT
        # keeps its first rows (and its campaign something to sample)
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"yield_lut:4:{marker}")
        options = ExecutionOptions(
            cache_dir=str(tmp_path / "cache"),
            n_jobs=2,
            retry=RetryPolicy(retries=0, allow_partial=True),
        )
        try:
            with engine_ctx(options=options) as engine:
                engine.submit(_tiny_spec(yield_points=5)).result(
                    timeout=120.0
                )
                assert marker.exists()
                # the degraded model's pack went with its campaign
                assert len(get_pack()) == 0
                assert engine.stats()["model_hits"] == 0
                engine.submit(
                    _tiny_spec(yield_points=5, mc_particles=400)
                ).result(timeout=120.0)
                assert engine.stats()["model_hits"] == 0  # rebuilt
                assert len(get_pack()) > 0  # and stored
                engine.submit(
                    _tiny_spec(yield_points=5, mc_particles=500)
                ).result(timeout=120.0)
                assert engine.stats()["model_hits"] == 1
            assert len(get_pack()) == 0
        finally:
            get_lease().shutdown_all()
            get_pack().release_all()

    def test_concurrent_campaigns_share_one_model(
        self, tmp_path, monkeypatch
    ):
        from repro.service import engine as engine_mod

        enable_metrics(fresh=True)
        specs = [_tiny_spec(mc_particles=400), _tiny_spec(mc_particles=500)]
        both_inside = threading.Barrier(2, timeout=60.0)
        real_run_query = engine_mod.run_query

        def overlapping_run_query(spec, **kwargs):
            if spec in specs:
                both_inside.wait()  # both campaigns hold the model here
            return real_run_query(spec, **kwargs)

        monkeypatch.setattr(engine_mod, "run_query", overlapping_run_query)
        options = ExecutionOptions(cache_dir=str(tmp_path / "engine"))
        with engine_ctx(options=options, max_concurrent=2) as engine:
            engine.submit(_tiny_spec()).result(timeout=120.0)
            futures = [engine.submit(spec) for spec in specs]
            served = [future.result(timeout=120.0) for future in futures]
            stats = engine.stats()
        assert stats["model_hits"] == 2
        serial = ExecutionOptions(cache_dir=str(tmp_path / "serial"))
        for spec, result in zip(specs, served):
            assert _result_json(result) == _result_json(
                real_run_query(spec, options=serial)
            )

    def test_held_model_is_released_when_its_campaign_ends(self):
        import types

        import numpy as np

        from repro.parallel import get_pack, pack_payload
        from repro.parallel.shm import PAYLOAD_CACHE_MAX
        from repro.service.engine import _ModelLru

        class _Flow:
            def __init__(self, index):
                simulator = types.SimpleNamespace(
                    pof_table=None, yield_luts={}
                )
                pack = pack_payload({"big": np.full(8192, float(index))})
                self.model = (simulator, pack)

            def built_model(self):
                return self.model

        get_pack().release_all()
        models = _ModelLru()
        models.store("k0", _Flow(0), {})
        held = models.checkout("k0")
        for index in range(1, PAYLOAD_CACHE_MAX + 1):
            models.store(f"k{index}", _Flow(index), {})
        # k0 left the LRU, but a running campaign still holds it
        assert models.checkout("k0") is None
        assert len(get_pack()) == PAYLOAD_CACHE_MAX + 1
        models.checkin(held)
        assert len(get_pack()) == PAYLOAD_CACHE_MAX
        held = models.checkout("k1")
        models.close()
        assert len(get_pack()) == 1
        models.store("k9", _Flow(9), {})  # closed: released at once
        assert len(get_pack()) == 1
        models.checkin(held)
        assert len(get_pack()) == 0

    def test_shared_memory_stays_bounded(self, tmp_path):
        from repro.parallel import get_lease, get_pack
        from repro.parallel.shm import PAYLOAD_CACHE_MAX

        get_lease().shutdown_all()
        get_pack().release_all()
        options = ExecutionOptions(cache_dir=str(tmp_path / "cache"), n_jobs=2)
        live = []
        try:
            with engine_ctx(options=options) as engine:
                for seed in range(2 * PAYLOAD_CACHE_MAX):
                    engine.submit(_tiny_spec(seed=seed)).result(timeout=120.0)
                    live.append(len(get_pack()))
            assert live[0] > 0
            # every model packs alike: the count stops growing once the
            # LRU is full
            assert live[PAYLOAD_CACHE_MAX - 1:] == [
                live[PAYLOAD_CACHE_MAX - 1]
            ] * (PAYLOAD_CACHE_MAX + 1)
            assert len(get_pack()) == 0
        finally:
            get_lease().shutdown_all()
            get_pack().release_all()
