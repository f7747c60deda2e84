"""The campaign engine: one orchestration core behind every front-end.

Historically the ``repro-ser`` CLI was the only way to reach the
execution substrate (warm pools, shared-memory payloads, journaled
resume, adaptive allocation): parse args, build a
:class:`~repro.core.SerFlow`, run, exit.  This module splits that
orchestration out so *any* front-end — the one-shot CLI, the
long-lived :mod:`repro.service.daemon`, a notebook — drives the same
three calls:

* :func:`build_flow` compiles a :class:`~repro.service.protocol.QuerySpec`
  plus :class:`ExecutionOptions` into a ready :class:`~repro.core.SerFlow`
  (the CLI's former private ``_make_flow``);
* :func:`run_query` executes one compiled query end-to-end (sweep +
  optional ECC/interleave analysis) and returns a JSON-safe result;
* :class:`CampaignEngine` serves *many* queries from one process:
  single-flight coalescing of identical in-flight requests (N equal
  queries -> 1 campaign), memoization of completed results, reuse of
  each built array model across the campaigns that share it, admission
  control over a bounded queue, and per-tenant round-robin scheduling
  over a bounded campaign budget.

The engine's concurrency primitive mirrors the artifact cache's
cross-process build lock (:class:`~repro.io.BuildLock`): in-process
requests coalesce on the canonical query key here; independent
*processes* racing the same artifact coalesce on the lock file in
:meth:`~repro.io.ArtifactCache.get_or_build`.  Together a query is
computed once per key no matter how many clients, connections, or
daemons ask.

Everything is observable through :mod:`repro.obs`: ``service.*``
counters (requests / coalesced / memo_hits / rejected / campaigns /
failures / model_hits / pair_offset_hits), the ``service.request`` and
``service.campaign`` timers (exact p50/p99), queue-depth and in-flight
gauges, one trace span per request and campaign, and a
per-served-campaign ledger surfaced in the run manifest's ``service``
section.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ReproError
from ..obs import get_logger, get_registry, kv, span
from ..parallel.shm import PAYLOAD_CACHE_MAX, release_packed
from .protocol import QuerySpec

__all__ = [
    "AdmissionError",
    "CampaignEngine",
    "ExecutionOptions",
    "ServiceError",
    "build_flow",
    "get_service_ledger",
    "reset_service_ledger",
    "run_query",
]

_log = get_logger(__name__)


class ServiceError(ReproError):
    """A request the service could not serve."""


class AdmissionError(ServiceError):
    """Rejected at admission: the pending-campaign queue is full."""


@dataclass(frozen=True)
class ExecutionOptions:
    """How to run campaigns — never *what* they compute.

    Mirrors the :class:`~repro.core.SerFlow` execution knobs: all of
    these are results-invariant (bit-identical for any value), so they
    live outside :class:`~repro.service.protocol.QuerySpec` and never
    perturb canonical keys.
    """

    cache_dir: Optional[str] = None
    n_jobs: int = 1
    retry: Optional[object] = None  # a repro.parallel.RetryPolicy
    resume: bool = True


def build_flow(spec: QuerySpec, options: Optional[ExecutionOptions] = None):
    """Compile one query into a ready :class:`~repro.core.SerFlow`.

    The single construction path shared by the CLI and the daemon:
    results (and artifact-cache keys) depend only on ``spec``; the
    execution plane comes from ``options``.
    """
    from ..core import SerFlow

    options = options if options is not None else ExecutionOptions()
    return SerFlow(
        spec.to_flow_config(),
        cache_dir=options.cache_dir,
        n_jobs=options.n_jobs,
        retry=options.retry,
        resume=options.resume,
    )


def run_query(
    spec: QuerySpec, flow=None, options=None, pair_offsets=None, key=None
) -> dict:
    """Execute one query end-to-end; returns a JSON-safe result dict.

    The sweep itself rides the flow's artifact cache (so repeated
    queries in any process are answered from disk); the optional
    ECC/interleave section folds the array's failing-pair offset
    statistics into uncorrectable-word rates per (particle, vdd) at
    the spectrum's peak-flux energy.  ``pair_offsets`` is a dict the
    campaigns of one model share (see :class:`CampaignEngine`): it
    keeps each pair-offset campaign's statistics under
    ``(particle, vdd, energy, ecc_pair_particles)``, which together
    with the model fixes the campaign's random stream.  ``key`` is the
    spec's :meth:`~QuerySpec.canonical_key` when the caller already
    holds it; it is derived here otherwise.
    """
    if flow is None:
        flow = build_flow(spec, options)
    if pair_offsets is None:
        pair_offsets = {}
    with span("service.query", particles=",".join(spec.particles)):
        sweep = flow.sweep(
            particles=spec.particles, vdd_list=spec.vdd_list
        )
        cases = []
        for particle in sweep.particles():
            for vdd in sweep.vdd_values(particle):
                fit = sweep.get(particle, float(vdd))
                cases.append(
                    {
                        "particle": particle,
                        "vdd": float(vdd),
                        "fit_total": fit.fit_total,
                        "fit_seu": fit.fit_seu,
                        "fit_mbu": fit.fit_mbu,
                        "mbu_to_seu_ratio": fit.mbu_to_seu_ratio,
                        "degraded": bool(fit.degraded),
                    }
                )
        result = {
            "kind": "ser_result",
            "key": key if key is not None else spec.canonical_key(),
            "cases": cases,
            "sweep": sweep.to_dict(),
            "degraded": bool(sweep.degraded),
        }
        if spec.ecc is not None:
            result["ecc"] = _ecc_analysis(spec, flow, sweep, pair_offsets)
        return result


def _ecc_analysis(spec: QuerySpec, flow, sweep, pair_offsets) -> List[dict]:
    """ECC/interleave word-failure rates riding on a finished sweep."""
    from ..reliability import DEC_TED, NO_ECC, SEC_DED, word_failure_rates

    scheme = {"none": NO_ECC, "SEC-DED": SEC_DED, "DEC-TED": DEC_TED}[spec.ecc]
    metrics = get_registry()
    analyses = []
    for particle in sweep.particles():
        # pair statistics are collected at the spectrum's peak-flux
        # energy bin — the representative strike population
        bins = flow._fit_bins(particle)
        peak = int(bins.integral_flux_per_cm2_s.argmax())
        energy = float(bins.representative_mev[peak])
        for vdd in sweep.vdd_values(particle):
            key = (particle, float(vdd), energy, spec.ecc_pair_particles)
            offsets = pair_offsets.get(key)
            if offsets is None:
                offsets = pair_offsets[key] = flow.pair_offsets(*key)
            else:
                metrics.counter("service.pair_offset_hits").inc()
            analysis = word_failure_rates(
                sweep.get(particle, float(vdd)),
                offsets,
                scheme=scheme,
                interleave_distance=spec.interleave,
            )
            analyses.append(
                {
                    "particle": particle,
                    "vdd": float(vdd),
                    "scheme": analysis.scheme.name,
                    "interleave_distance": analysis.interleave_distance,
                    "raw_seu_rate": analysis.raw_seu_rate,
                    "raw_mbu_rate": analysis.raw_mbu_rate,
                    "uncorrectable_rate": analysis.uncorrectable_rate,
                    "same_word_pair_fraction": (
                        analysis.same_word_pair_fraction
                    ),
                    "correction_gain": analysis.correction_gain,
                    "pair_energy_mev": energy,
                }
            )
    return analyses


class ServiceLedger:
    """Process-wide record of served campaigns (manifest ``service``).

    Mirrors the convergence tracker's pattern: engines append one
    entry per campaign they run; :func:`~repro.obs.build_manifest`
    reads the summary at manifest time.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._campaigns: List[dict] = []

    def record(self, entry: dict):
        with self._lock:
            self._campaigns.append(dict(entry))

    def reset(self):
        with self._lock:
            self._campaigns = []

    def summary(self) -> List[dict]:
        with self._lock:
            return [dict(entry) for entry in self._campaigns]


_LEDGER = ServiceLedger()


def get_service_ledger() -> ServiceLedger:
    return _LEDGER


def reset_service_ledger():
    _LEDGER.reset()


@dataclass(eq=False)
class _Model:
    """One built array model and the campaigns currently holding it."""

    simulator: object
    pack: Optional[object]  # a repro.parallel.PackedPayload
    pair_offsets: dict
    users: int = 0
    evicted: bool = False

    def release(self):
        if self.pack is not None:
            release_packed(self.pack)


class _ModelLru:
    """Built array models by :meth:`~repro.core.SerFlow.model_key`.

    Holds as many models as a warm worker keeps payloads
    (:data:`~repro.parallel.shm.PAYLOAD_CACHE_MAX`), so the workers
    still hold a reused model's payload too.  The key is content
    addressed, so an entry cannot be stale.  An evicted model's shared
    memory is released (:func:`~repro.parallel.shm.release_packed`)
    once no running campaign holds it.  Models with a degraded artifact
    are never stored, as the artifact cache never stores one.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._models: "OrderedDict[str, _Model]" = OrderedDict()
        self._closed = False

    def checkout(self, key: str) -> Optional[_Model]:
        """The stored model of ``key``, held until :meth:`checkin`."""
        with self._lock:
            model = self._models.get(key)
            if model is None:
                return None
            self._models.move_to_end(key)
            model.users += 1
        get_registry().counter("service.model_hits").inc()
        return model

    def checkin(self, model: _Model):
        with self._lock:
            model.users -= 1
            idle = model.evicted and model.users == 0
        if idle:
            model.release()

    def store(self, key: str, flow, pair_offsets: dict):
        """Keep the model ``flow`` built, or release it if it may not stay."""
        built = flow.built_model()
        if built is None:
            return
        model = _Model(*built, pair_offsets)
        artifacts = [model.simulator.pof_table]
        artifacts += model.simulator.yield_luts.values()
        released = []
        with self._lock:
            if (
                self._closed
                or key in self._models
                or any(getattr(a, "degraded", False) for a in artifacts)
            ):
                released.append(model)
            else:
                self._models[key] = model
                while len(self._models) > PAYLOAD_CACHE_MAX:
                    _, old = self._models.popitem(last=False)
                    old.evicted = True
                    if old.users == 0:
                        released.append(old)
        for old in released:
            old.release()

    def close(self):
        """Evict every model; held ones go when their campaign ends."""
        with self._lock:
            self._closed = True
            models = list(self._models.values())
            self._models.clear()
            for model in models:
                model.evicted = True
            idle = [model for model in models if model.users == 0]
        for model in idle:
            model.release()


class _Campaign:
    """One in-flight unit of work shared by every coalesced request.

    ``future`` answers the request that started the campaign; each
    request coalesced onto it gets its own future in ``coalesced``.
    """

    __slots__ = (
        "key", "spec", "tenant", "future", "coalesced", "waiters",
        "submitted_at", "request_t0s",
    )

    def __init__(self, key: str, spec: QuerySpec, tenant: str):
        self.key = key
        self.spec = spec
        self.tenant = tenant
        self.future: Future = Future()
        self.coalesced: List[Future] = []
        self.waiters = 1
        self.submitted_at = time.monotonic()
        self.request_t0s: List[float] = [self.submitted_at]


class CampaignEngine:
    """Serve many SER queries from one process, fairly and only once each.

    Parameters
    ----------
    options:
        Execution plane for every campaign (cache dir, worker budget
        per campaign, retry/resume).
    max_concurrent:
        Campaigns running at once; with ``options.n_jobs`` workers
        each this bounds the total worker budget.
    max_pending:
        Admission control — campaigns (not requests: coalesced
        requests are free) allowed to *wait* for a running slot, on
        top of the slots themselves.  Submissions past the bound raise
        :class:`AdmissionError` immediately instead of growing an
        unbounded queue (``0`` = reject whenever every slot is busy).
    memo_size:
        Completed results memoized in-process (LRU).  Degraded results
        are never memoized — the next request recomputes at full
        statistics, matching the artifact cache's discipline.  The
        canonical keys of as many distinct specs are kept too, so a
        repeated query is hashed once.
        Independently of it, the default runner reuses each built
        array model (simulator, packed payload and pair-offset
        statistics) across the campaigns whose flows share its
        :meth:`~repro.core.SerFlow.model_key` (see :class:`_ModelLru`).
    runner:
        The campaign executor, ``spec -> result dict``; defaults to
        :func:`run_query` under ``options``, on the default cell
        design.  Tests inject fakes here.
    """

    def __init__(
        self,
        options: Optional[ExecutionOptions] = None,
        max_concurrent: int = 1,
        max_pending: int = 16,
        memo_size: int = 128,
        runner=None,
    ):
        if max_concurrent < 1:
            raise ServiceError("max_concurrent must be >= 1")
        if max_pending < 0:
            raise ServiceError("max_pending cannot be negative")
        self.options = options if options is not None else ExecutionOptions()
        self.max_concurrent = int(max_concurrent)
        self.max_pending = int(max_pending)
        self.memo_size = int(memo_size)
        self._runner = runner if runner is not None else self._run
        self._memo: "OrderedDict[str, dict]" = OrderedDict()
        self._keys: "OrderedDict[QuerySpec, str]" = OrderedDict()
        self._models = _ModelLru()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._inflight: Dict[str, _Campaign] = {}
        self._queues: Dict[str, deque] = {}  # tenant -> pending campaigns
        self._tenant_rr: deque = deque()  # round-robin order of tenants
        self._running = 0
        self._pending = 0
        self._served = 0
        self._stopped = False
        self._threads: List[threading.Thread] = []
        self._scheduler = threading.Thread(
            target=self._schedule_loop, name="ser-engine-scheduler",
            daemon=True,
        )
        self._scheduler.start()

    # -- submission ------------------------------------------------------------

    def submit(self, spec: QuerySpec, tenant: str = "default") -> Future:
        """Enqueue one query; returns the future of its result dict.

        Identical in-flight queries (same canonical key) coalesce onto
        one campaign regardless of tenant; completed keys are answered
        from the memo without touching the queue.  The future resolves
        with the result dict (its ``source`` field says which path
        served it: ``campaign``, ``coalesced`` or ``memo``) or raises
        the campaign's error.
        """
        metrics = get_registry()
        metrics.counter("service.requests").inc()
        t0 = time.monotonic()
        key = self._key_for(spec)
        with self._lock:
            if self._stopped:
                raise ServiceError("engine is shut down")
            memo = self._memo_get(key)
            if memo is not None:
                metrics.counter("service.memo_hits").inc()
                metrics.timer("service.request").observe(
                    time.monotonic() - t0
                )
                future: Future = Future()
                future.set_result(dict(memo, source="memo"))
                return future
            campaign = self._inflight.get(key)
            if campaign is not None:
                metrics.counter("service.coalesced").inc()
                campaign.waiters += 1
                campaign.request_t0s.append(t0)
                _log.debug(
                    "coalesced request %s",
                    kv(key=key, waiters=campaign.waiters, tenant=tenant),
                )
                future = Future()
                campaign.coalesced.append(future)
                return future
            # the pending bound applies to campaigns that must *wait*:
            # the scheduler drains pending into free running slots
            # asynchronously, so a submission racing an idle slot is
            # admitted even while it is still (briefly) queued.
            free_slots = max(0, self.max_concurrent - self._running)
            if self._pending >= self.max_pending + free_slots:
                metrics.counter("service.rejected").inc()
                raise AdmissionError(
                    f"admission queue full ({self._pending} waiting "
                    f"campaigns >= {self.max_pending} allowed)"
                )
            campaign = _Campaign(key, spec, tenant)
            campaign.request_t0s[0] = t0
            self._inflight[key] = campaign
            queue = self._queues.get(tenant)
            if queue is None:
                queue = self._queues[tenant] = deque()
                self._tenant_rr.append(tenant)
            queue.append(campaign)
            self._pending += 1
            self._gauges_locked()
            self._wake.notify_all()
            return campaign.future

    def _key_for(self, spec: QuerySpec) -> str:
        """``spec``'s canonical key, derived once per distinct spec.

        Equal specs have equal keys, so the key map is exact.  It holds
        ``memo_size`` specs (LRU) under the engine lock: ``submit``
        runs on the front-end's thread, :meth:`_run` on campaign
        threads.
        """
        with self._lock:
            key = self._keys.get(spec)
            if key is not None:
                self._keys.move_to_end(spec)
                return key
        key = spec.canonical_key()
        with self._lock:
            self._keys[spec] = key
            while len(self._keys) > self.memo_size:
                self._keys.popitem(last=False)
        return key

    def _memo_get(self, key: str) -> Optional[dict]:
        result = self._memo.get(key)
        if result is not None:
            self._memo.move_to_end(key)
        return result

    def _memo_put(self, key: str, result: dict):
        self._memo[key] = result
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_size:
            self._memo.popitem(last=False)

    # -- scheduling ------------------------------------------------------------

    def _schedule_loop(self):
        while True:
            with self._wake:
                while not self._stopped and (
                    self._pending == 0 or self._running >= self.max_concurrent
                ):
                    self._wake.wait()
                if self._stopped:
                    return
                campaign = self._next_campaign_locked()
                if campaign is None:
                    continue
                self._pending -= 1
                self._running += 1
                self._gauges_locked()
            worker = threading.Thread(
                target=self._execute,
                args=(campaign,),
                name=f"ser-campaign-{campaign.key[:8]}",
                daemon=True,
            )
            worker.start()
            with self._lock:
                self._threads.append(worker)
                self._threads = [
                    t for t in self._threads if t.is_alive()
                ]

    def _next_campaign_locked(self) -> Optional[_Campaign]:
        """Round-robin over tenants with pending campaigns (fairness).

        One campaign per tenant per turn: a tenant that floods the
        queue only delays itself — the rotation hands each tenant the
        next slot in order.
        """
        for _ in range(len(self._tenant_rr)):
            tenant = self._tenant_rr[0]
            self._tenant_rr.rotate(-1)
            queue = self._queues.get(tenant)
            if queue:
                return queue.popleft()
        return None

    def _execute(self, campaign: _Campaign):
        metrics = get_registry()
        error: Optional[BaseException] = None
        t0 = time.monotonic()
        try:
            with span(
                "service.campaign",
                key=campaign.key,
                tenant=campaign.tenant,
                particles=",".join(campaign.spec.particles),
            ):
                result = self._runner(campaign.spec)
        except BaseException as exc:  # propagate to every waiter
            error = exc
        wall_s = time.monotonic() - t0
        with self._lock:
            self._inflight.pop(campaign.key, None)
            self._running -= 1
            self._served += 1
            waiters = campaign.waiters
            if error is None and isinstance(result, dict):
                if not result.get("degraded"):
                    self._memo_put(campaign.key, result)
            self._gauges_locked()
            self._wake.notify_all()
        metrics.counter("service.campaigns").inc()
        metrics.timer("service.campaign").observe(wall_s)
        for request_t0 in campaign.request_t0s:
            metrics.timer("service.request").observe(
                time.monotonic() - request_t0
            )
        entry = {
            "key": campaign.key,
            "tenant": campaign.tenant,
            "particles": list(campaign.spec.particles),
            "vdds": list(campaign.spec.vdd_list),
            "requests": waiters,
            "wall_s": wall_s,
            "ok": error is None,
        }
        get_service_ledger().record(entry)
        if error is not None:
            metrics.counter("service.failures").inc()
            _log.warning(
                "campaign failed %s", kv(key=campaign.key, error=error)
            )
            self._resolve(campaign, error=error)
        else:
            _log.info(
                "campaign served %s",
                kv(key=campaign.key, requests=waiters, wall_s=f"{wall_s:.2f}"),
            )
            self._resolve(campaign, result=result)

    @staticmethod
    def _resolve(campaign: _Campaign, result=None, error=None):
        """Resolve every waiter's future, tolerating a front-end cancel.

        The starter's result says ``source="campaign"`` and each
        coalesced waiter's copy ``source="coalesced"``; on failure all
        of them raise the campaign's error.  The futures are handed to
        arbitrary front-ends; one of them cancelling its future (the
        engine never marks it running, so ``cancel()`` succeeds while
        queued) must not crash the worker thread — the campaign's side
        effects (memo, artifact cache, ledger) are already committed
        either way.
        """
        waiters = [(campaign.future, "campaign")]
        waiters += [(future, "coalesced") for future in campaign.coalesced]
        for future, source in waiters:
            try:
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(dict(result, source=source))
            except InvalidStateError:
                _log.warning(
                    "campaign future was cancelled by a front-end %s",
                    kv(key=campaign.key, source=source),
                )

    def _run(self, spec: QuerySpec) -> dict:
        flow = build_flow(spec, self.options)
        key = flow.model_key()
        model = self._models.checkout(key)
        if model is not None:
            flow.adopt_model(model.simulator, model.pack)
            pair_offsets = model.pair_offsets
        else:
            pair_offsets = {}
        try:
            return run_query(
                spec,
                flow=flow,
                pair_offsets=pair_offsets,
                key=self._key_for(spec),
            )
        finally:
            if model is not None:
                self._models.checkin(model)
            else:
                self._models.store(key, flow, pair_offsets)

    def _gauges_locked(self):
        metrics = get_registry()
        metrics.gauge("service.queue_depth").set(float(self._pending))
        metrics.gauge("service.inflight").set(float(self._running))

    # -- introspection / lifecycle ---------------------------------------------

    def stats(self) -> dict:
        """Live engine state plus the ``service.*`` metric digest."""
        metrics = get_registry()
        snapshot = metrics.snapshot() if metrics.enabled else {}
        counters = snapshot.get("counters", {})
        timers = snapshot.get("timers", {})
        request = timers.get("service.request", {})
        with self._lock:
            state = {
                "pending": self._pending,
                "running": self._running,
                "inflight_keys": sorted(self._inflight),
                "served": self._served,
                "tenants": sorted(self._queues),
                "memo_entries": len(self._memo),
            }
        return {
            **state,
            "requests": counters.get("service.requests", 0),
            "coalesced": counters.get("service.coalesced", 0),
            "memo_hits": counters.get("service.memo_hits", 0),
            "rejected": counters.get("service.rejected", 0),
            "campaigns": counters.get("service.campaigns", 0),
            "failures": counters.get("service.failures", 0),
            "model_hits": counters.get("service.model_hits", 0),
            "pair_offset_hits": counters.get("service.pair_offset_hits", 0),
            "request_p50_s": request.get("p50_s", 0.0),
            "request_p99_s": request.get("p99_s", 0.0),
        }

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Block until no campaign is pending or running."""
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        with self._wake:
            while self._pending or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._wake.wait(timeout=remaining)
        return True

    def shutdown(self, wait: bool = True, timeout_s: Optional[float] = None):
        """Stop admitting; optionally wait for in-flight campaigns.

        Pending (not yet started) campaigns are failed with
        :class:`ServiceError` so their waiters unblock.  Every stored
        model's shared memory is released; a campaign still running
        releases its model when it ends.
        """
        with self._wake:
            if self._stopped:
                return
            self._stopped = True
            abandoned = []
            for queue in self._queues.values():
                abandoned.extend(queue)
                queue.clear()
            self._pending = 0
            for campaign in abandoned:
                self._inflight.pop(campaign.key, None)
            self._gauges_locked()
            self._wake.notify_all()
        for campaign in abandoned:
            self._resolve(
                campaign,
                error=ServiceError("engine shut down before campaign started"),
            )
        if wait:
            deadline = (
                time.monotonic() + timeout_s
                if timeout_s is not None
                else None
            )
            for thread in list(self._threads):
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.monotonic())
                thread.join(timeout=remaining)
        self._models.close()
