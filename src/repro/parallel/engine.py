"""Process-pool execution engine for the Monte Carlo stages.

The paper's flow is embarrassingly parallel at every level -- transport
trials per LUT energy point, Vth-variation samples per POF grid point,
and independent array-MC campaigns per (particle, energy, vdd).  This
module is the one place that knows how to fan such work out across
worker processes and fold the partial results back:

* :func:`parallel_map` -- ordered map of a *module-level* worker
  function over a task list, through a warm process pool leased from
  :mod:`repro.parallel.pool`.  A shared read-only payload (simulator,
  engine, design...) is packed once per map (bulk arrays in shared
  memory, see :mod:`repro.parallel.shm`) and rebuilt once per worker.
* :func:`spawn_seeds` -- deterministic child ``SeedSequence`` streams
  off a caller's generator, the backbone of the engine's reproducibility
  contract.
* :class:`RetryPolicy` -- the fault-tolerance knobs: per-shard retry
  with exponential backoff for transient worker death, a progress
  watchdog timeout, and graceful degradation to partial results.

Determinism contract
--------------------
Callers split their work into *fixed-size* shards (independent of the
worker count), draw one spawned child stream per shard, and merge the
shard results **in shard order**.  ``parallel_map`` preserves input
order and ``n_jobs=1`` bypasses the pool entirely while running the
exact same sharded code path, so for a fixed seed the merged result is
bit-identical for any worker count.  Fault tolerance preserves the
contract: a retried shard reruns the *same* seed stream in a fresh
worker, and a shard replayed from a :class:`~repro.parallel.journal.
ShardJournal` checkpoint is byte-for-byte the result the crashed run
recorded -- so interrupted-and-resumed campaigns merge bit-identically
to uninterrupted ones.

Failure taxonomy
----------------
* **Transient** -- the worker process died (segfault, OOM kill,
  ``BrokenProcessPool``) or the watchdog declared the pool stuck
  (no shard completed for ``task_timeout_s``).  The bad round
  invalidates its leased pool, so the failed shards are retried in a
  newly forked pool with exponential backoff, up to
  ``RetryPolicy.retries`` rounds.
* **Deterministic** -- the task function itself raised.  Retrying
  would reproduce the failure, so the map fails fast: on the pooled
  path with a :class:`~repro.errors.TaskError` carrying the shard id
  and the task (which embeds the shard's seed path; the original
  exception, which crossed a process boundary, is chained as
  ``__cause__``), and on the inline path by propagating the original
  exception unchanged (traceback intact, type still catchable).
* **Unrecoverable** -- transient failures outlasted the retry budget.
  With ``allow_partial=True`` the map returns the shards it has
  (``None`` for the lost ones, counted in ``parallel.degraded``) so
  callers can merge partial statistics flagged as degraded; otherwise
  it raises :class:`~repro.errors.WorkerCrashError`.

Worker-side metrics recorded through :mod:`repro.obs` are snapshotted
per task, returned with the result, and merged into the parent
registry, so ``--metrics-out`` manifests stay complete under
parallelism.

Live telemetry
--------------
When an :class:`~repro.obs.events.EventBus` is configured
(``--events``, :func:`~repro.obs.events.configure_events`), every map
additionally streams typed events *while it runs*: ``round``
start/end, per-shard ``progress`` and periodic ``heartbeat`` events
with done/total counts and an ETA.  A pool worker puts one event per
shard on its pool's event queue, ``started``, before it runs the
shard.  The round's own wait loop forwards what the queue holds each
time it wakes (a completion, or the heartbeat period) and emits every
other shard state itself: ``finished`` when it stores a result,
``retrying`` and ``lost`` when shards fail.  The bus stamps the global
``seq`` that totally orders the stream.  With no bus configured (the
default), none of this runs: nothing is written to the queue or read
from it, and no event dict is built.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, CancelledError
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..errors import ConfigError, TaskError, WorkerCrashError
from ..obs import get_logger, get_registry, kv, span
from ..obs.events import disable_events, emit_event, get_event_bus
from ..obs.registry import disable_metrics, enable_metrics
from .pool import get_lease
from .shm import (
    PackedPayload,
    close_inherited,
    load_packed,
    pack_payload,
    release_packed,
)

_log = get_logger(__name__)

__all__ = [
    "AUTO_INLINE_THRESHOLD_S",
    "WARM_AUTO_INLINE_THRESHOLD_S",
    "RetryPolicy",
    "parallel_map",
    "resolve_jobs",
    "spawn_seeds",
]

#: Test-only fault-injection hook: set to ``"<label>:<index>:<marker>"``
#: to make the worker executing shard ``<index>`` of the map labelled
#: ``<label>`` die abruptly (``os._exit``) -- once: the marker file is
#: created before dying, and an existing marker disarms the hook.  Used
#: by the fault-injection tests and the CI fault-smoke job; never set
#: it in production.
FAULT_ENV = "REPRO_PARALLEL_KILL"


@dataclass(frozen=True)
class RetryPolicy:
    """Fault-tolerance knobs of :func:`parallel_map`.

    Attributes
    ----------
    retries:
        How many retry rounds transiently-failed shards get before the
        map gives up on them.  ``0`` fails on the first worker loss.
    backoff_s / backoff_multiplier / backoff_max_s:
        Exponential backoff between retry rounds: round ``k`` sleeps
        ``min(backoff_s * multiplier**(k-1), backoff_max_s)`` seconds.
    task_timeout_s:
        Progress watchdog: if **no** shard completes for this many
        seconds the in-flight shards are declared lost, their workers
        are terminated, and the shards are retried in a newly forked pool.
        ``None`` disables the watchdog.  Only enforced on the pooled
        path -- inline execution cannot be preempted.
    allow_partial:
        What to do when transient failures outlast the retry budget:
        ``True`` (graceful degradation) returns partial results with
        ``None`` for the lost shards; ``False`` raises
        :class:`~repro.errors.WorkerCrashError`.
    """

    retries: int = 2
    backoff_s: float = 0.25
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 8.0
    task_timeout_s: Optional[float] = None
    allow_partial: bool = True

    def __post_init__(self):
        if self.retries < 0:
            raise ConfigError("retries cannot be negative")
        if self.backoff_s < 0 or self.backoff_max_s < 0:
            raise ConfigError("backoff durations cannot be negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff multiplier must be >= 1")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0:
            raise ConfigError("task timeout must be positive (None = off)")

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry round ``attempt`` (1-based)."""
        return min(
            self.backoff_s * self.backoff_multiplier ** max(attempt - 1, 0),
            self.backoff_max_s,
        )

    def strict(self) -> "RetryPolicy":
        """This policy with graceful degradation turned off.

        Stages whose merge *requires* every shard (e.g. cell
        characterization grids) use this to turn unrecoverable loss
        into a loud :class:`~repro.errors.WorkerCrashError`.
        """
        if not self.allow_partial:
            return self
        return dataclasses.replace(self, allow_partial=False)


#: Fail-fast default used when no policy is given: no retries, no
#: degradation -- the exact pre-fault-tolerance behavior.
_NO_RETRY = RetryPolicy(retries=0, allow_partial=False)


def resolve_jobs(n_jobs: Optional[int]) -> int:
    """Effective worker count: ``None``/1 serial, 0 = one per CPU."""
    if n_jobs is None:
        return 1
    if n_jobs < 0:
        raise ConfigError("n_jobs cannot be negative (0 means auto)")
    if n_jobs == 0:
        return os.cpu_count() or 1
    return n_jobs


def spawn_seeds(rng: np.random.Generator, n: int) -> List[np.random.SeedSequence]:
    """``n`` child seed sequences off a generator's root entropy.

    Uses ``np.random.SeedSequence.spawn`` on the generator's own seed
    sequence, so consecutive calls yield fresh, statistically
    independent streams while remaining a pure function of the
    caller's original seed and the call order.  Generators without an
    attached seed sequence (hand-built bit generators) fall back to a
    sequence seeded from the generator's stream.
    """
    if n < 0:
        raise ConfigError("cannot spawn a negative number of seeds")
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(int(rng.integers(0, 2**63)))
    return seed_seq.spawn(n)


# -- worker-side plumbing ------------------------------------------------------

#: Sentinel marking a shard that has neither a journaled nor a fresh
#: result yet (``None`` is a legal shard result, so it cannot serve).
_PENDING = object()

#: Worker-side end of the pool's event queue, installed by the pool
#: initializer.
_EVENT_QUEUE: Any = None


def _maybe_inject_fault(label: str, index: int, spec: Optional[str] = None):
    """Honor the :data:`FAULT_ENV` test hook (abrupt one-shot death).

    ``spec`` overrides the environment lookup: pool workers may fork
    *before* a test arms the hook, so the parent captures the spec at
    submit time and ships it with the task.
    """
    if spec is None:
        spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    try:
        want_label, want_index, marker = spec.split(":", 2)
    except ValueError:
        return
    if label != want_label or index != int(want_index):
        return
    if os.path.exists(marker):
        return
    with open(marker, "w") as handle:
        handle.write("killed\n")
        handle.flush()
        os.fsync(handle.fileno())
    os._exit(17)


def _worker_init(event_queue):
    """Initializer of pool workers: no payload, no metrics.

    Workers outlive the map that forked them, so nothing shipped at
    fork time can be trusted later: the payload travels per task as a
    :class:`~repro.parallel.shm.PackedPayload` (cached by fingerprint)
    and the metrics flag per task (the parent may enable or disable
    the registry between maps).  Under ``fork`` the worker inherits
    the parent's live registry state and event bus -- drop both, so
    snapshots only ever carry worker-side increments and worker events
    reach the sink only through the parent.  It also inherits the
    mappings of every shared segment the parent owns: unmap them, so
    a worker maps only the payloads it caches.  The one exception is
    the telemetry ``event_queue`` (owned by the
    :class:`~repro.parallel.pool.PoolLease`, one per pool key): queues
    only cross the process boundary at construction time, so it is
    installed here for the worker's whole life; whether anything is
    put on it is decided per task by the ``with_events`` flag.
    """
    global _EVENT_QUEUE
    _EVENT_QUEUE = event_queue
    disable_events()
    disable_metrics()
    close_inherited()


def _sync_metrics(with_metrics: bool):
    """Match the worker's registry state to the parent's (per task)."""
    if with_metrics:
        if not get_registry().enabled:
            enable_metrics(fresh=True)
    elif get_registry().enabled:
        disable_metrics()


def _invoke(
    fn,
    task,
    index: int,
    label: str,
    packed,
    with_metrics: bool,
    fault_spec: Optional[str],
    with_events: bool,
):
    """Run one task in a worker.

    Returns ``(result, metrics snapshot, busy s, pid, finish time)``;
    the parent stamps the shard's ``finished`` event from the last
    three.  The payload arrives packed (pickled once in the parent,
    bulk arrays as shared-memory references) and is rebuilt at most
    once per fingerprint per worker; busy time covers only ``fn``
    itself.  ``fault_spec`` is the parent's :data:`FAULT_ENV` value at
    submit time (a worker's own environment may predate the test
    arming the hook), and ``with_events`` the parent's live telemetry
    state (a worker's queue outlives any one map, so emission is
    decided per task, like metrics).  With events on, the shard's
    ``started`` goes on the pool's ``SimpleQueue`` before ``fn`` runs:
    its ``put`` writes to the pipe in this thread, so the event is
    there before the result can reach the parent.
    """
    _sync_metrics(with_metrics)
    _maybe_inject_fault(label, index, spec=fault_spec)
    payload = load_packed(packed)
    pid = os.getpid()
    if with_events:
        try:
            _EVENT_QUEUE.put(
                {
                    "kind": "progress",
                    "label": label,
                    "index": index,
                    "state": "started",
                    "pid": pid,
                    "t_worker": time.time(),
                }
            )
        except OSError:  # telemetry must never sink the science
            pass
    t0 = time.perf_counter()
    result = fn(payload, task)
    busy_s = time.perf_counter() - t0
    t_done = time.time()
    registry = get_registry()
    snapshot = None
    if registry.enabled:
        snapshot = registry.snapshot()
        registry.reset()
    return result, snapshot, busy_s, pid, t_done


def _in_worker() -> bool:
    """True inside a pool worker (daemon), where nesting is forbidden."""
    return multiprocessing.current_process().daemon


#: Minimum estimated per-worker work [s] that justifies spinning up a
#: pool.  Forking workers, shipping the payload, and collecting results
#: costs tens of milliseconds per worker on a typical host; below this
#: threshold the pool is pure overhead (tiny yield-LUT builds ran ~5x
#: slower with 2 workers than inline).
AUTO_INLINE_THRESHOLD_S = 0.05

#: Lower inline threshold used when a pool for the map's (start
#: method, jobs) key is already leased: the spin-up cost is paid, so
#: only dispatch/IPC overhead (single-digit milliseconds) remains to
#: beat.
WARM_AUTO_INLINE_THRESHOLD_S = 0.005


def _should_auto_inline(
    cost_hint_s: Optional[float],
    n_pending: int,
    jobs: int,
    warm_ready: bool = False,
) -> bool:
    """Whether the estimated work is too small to justify a pool.

    Only active when the caller supplied an explicit ``cost_hint_s``
    (no hint means no basis for the estimate -- maps without a hint
    keep their requested worker count) and never while the
    fault-injection hook is armed (the kill tests target pooled
    workers by shard index).  With a pool already leased for this
    map's key (``warm_ready``), the threshold drops to
    :data:`WARM_AUTO_INLINE_THRESHOLD_S` -- spin-up is already paid,
    so mid-sized maps that used to inline now reuse the pool.
    """
    if cost_hint_s is None or os.environ.get(FAULT_ENV):
        return False
    threshold = (
        WARM_AUTO_INLINE_THRESHOLD_S if warm_ready else AUTO_INLINE_THRESHOLD_S
    )
    return cost_hint_s * n_pending / jobs < threshold


def parallel_map(
    fn: Callable[[Any, Any], Any],
    tasks: Sequence[Any],
    *,
    payload: Any = None,
    n_jobs: int = 1,
    label: str = "map",
    start_method: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    journal=None,
    cost_hint_s: Optional[float] = None,
) -> list:
    """Ordered map of ``fn(payload, task)`` over ``tasks``.

    ``fn`` must be a module-level function (pickled by reference).  With
    ``n_jobs <= 1``, a single pending task, or when already inside a
    pool worker, the map runs inline -- no pool, no pickling --
    executing the identical code path, so results never depend on the
    worker count.  Otherwise every round, retry rounds included, runs
    on the warm pool leased for ``(start_method, resolve_jobs(n_jobs))``
    (see :mod:`repro.parallel.pool`): maps with fewer tasks than
    workers leave the spare workers idle rather than fork a narrower
    pool, so one process keeps one pool per worker count.

    Parameters
    ----------
    payload:
        Shared read-only object passed as ``fn``'s first argument.
        May be a :class:`~repro.parallel.shm.PackedPayload` the caller
        packed once (e.g. a flow fanning the same simulator across
        many maps): the pooled path ships it as-is with zero
        re-packing, and the inline path rebuilds it before use.
    retry:
        Fault-tolerance policy (see :class:`RetryPolicy`).  ``None``
        keeps the historical fail-fast behavior: any worker loss or
        task exception aborts the map.
    journal:
        Optional :class:`~repro.parallel.journal.ShardJournal`.  Shards
        already present in the journal are replayed from disk and
        skipped (counted in ``journal.resumed``); every freshly
        completed shard is durably recorded before the map returns, so
        a crashed campaign resumes with partial credit.
    cost_hint_s:
        Caller's estimate of one task's wall time [s].  When the
        estimated work per worker falls below
        :data:`AUTO_INLINE_THRESHOLD_S`, the map runs inline even with
        ``n_jobs > 1`` -- pool spin-up would cost more than it saves
        (logged, counted in ``parallel.auto_inline``).  Results are
        unaffected either way (the determinism contract).  ``None``
        (default) disables the heuristic.  When a pool for this map's
        key is already leased, the lower
        :data:`WARM_AUTO_INLINE_THRESHOLD_S` applies instead.

    Returns the results in task order.  Shards lost past the retry
    budget under ``allow_partial=True`` come back as ``None`` -- filter
    them and flag the merged statistics as degraded.

    Records ``parallel.*`` metrics when the registry is live: worker
    count, task count, per-label map wall time, retry/degraded counts,
    and the effective speedup (total worker busy time / wall time).
    """
    tasks = list(tasks)
    policy = retry if retry is not None else _NO_RETRY
    metrics = get_registry()
    results: list = [_PENDING] * len(tasks)

    if journal is not None:
        replayed = journal.load()
        for index, value in replayed.items():
            if 0 <= index < len(tasks):
                results[index] = value
        resumed = sum(1 for r in results if r is not _PENDING)
        if resumed:
            if metrics.enabled:
                metrics.counter("journal.resumed").inc(resumed)
            _log.info(
                "journal resume %s",
                kv(label=label, resumed=resumed, total=len(tasks)),
            )

    pending = [i for i in range(len(tasks)) if results[i] is _PENDING]
    if not pending:
        return results

    # The pool is leased at the requested width, whatever this map's
    # task count: keying it on ``jobs`` would keep one warm pool per
    # distinct task count (and fork a narrower one per retry round).
    pool_jobs = resolve_jobs(n_jobs)
    jobs = min(pool_jobs, len(pending))
    t0 = time.perf_counter()
    busy_s = 0.0

    context = multiprocessing.get_context(start_method)
    in_worker = _in_worker()
    warm_ready = (
        jobs > 1 and not in_worker and get_lease().has(context, pool_jobs)
    )

    auto_inlined = False
    if jobs > 1 and _should_auto_inline(
        cost_hint_s, len(pending), jobs, warm_ready
    ):
        auto_inlined = True
        if metrics.enabled:
            metrics.counter("parallel.auto_inline").inc()
        _log.info(
            "auto-inline %s",
            kv(
                label=label,
                tasks=len(pending),
                workers=jobs,
                est_per_worker_s=round(cost_hint_s * len(pending) / jobs, 4),
                threshold_s=(
                    WARM_AUTO_INLINE_THRESHOLD_S
                    if warm_ready
                    else AUTO_INLINE_THRESHOLD_S
                ),
            ),
        )
        jobs = 1

    if jobs <= 1 or len(pending) <= 1 or in_worker:
        path = "auto-inline" if auto_inlined else "inline"
        if metrics.enabled:
            metrics.counter("parallel.serial_maps").inc()
        emit_event(
            "round",
            label=label,
            phase="start",
            path=path,
            tasks=len(pending),
            workers=1,
        )
        inline_payload = (
            load_packed(payload)
            if isinstance(payload, PackedPayload)
            else payload
        )
        with metrics.time(f"parallel.map.{label}"), span(
            "parallel-map", label=label, path=path, tasks=len(pending)
        ):
            _run_inline(
                fn, tasks, pending, inline_payload, label, journal, results
            )
        lost: List[int] = []
    else:
        path = "pool-warm-reuse" if warm_ready else "pool-warm"
        emit_event(
            "round",
            label=label,
            phase="start",
            path=path,
            tasks=len(pending),
            workers=jobs,
        )
        with metrics.time(f"parallel.map.{label}"), span(
            "parallel-map",
            label=label,
            path=path,
            tasks=len(pending),
            workers=jobs,
        ):
            busy_s, lost = _run_pooled(
                fn,
                tasks,
                pending,
                payload,
                pool_jobs,
                label,
                context,
                policy,
                journal,
                results,
                metrics,
            )
        wall_s = time.perf_counter() - t0
        if metrics.enabled:
            metrics.counter("parallel.maps").inc()
            metrics.counter("parallel.tasks").inc(len(tasks))
            metrics.gauge("parallel.workers").set(jobs)
            if wall_s > 0:
                metrics.gauge(f"parallel.speedup.{label}").set(busy_s / wall_s)
        _log.debug(
            "parallel map %s",
            kv(
                label=label,
                tasks=len(tasks),
                workers=jobs,
                wall_s=round(wall_s, 4),
                busy_s=round(busy_s, 4),
                speedup=round(busy_s / wall_s, 2) if wall_s > 0 else 0.0,
            ),
        )

    if lost:
        if metrics.enabled:
            metrics.counter("parallel.degraded").inc(len(lost))
            metrics.counter("parallel.degraded_maps").inc()
        if not policy.allow_partial:
            raise WorkerCrashError(
                f"{len(lost)} shard(s) of {label!r} lost to worker crashes "
                f"after {policy.retries} retry round(s) "
                f"(shards {lost[:8]}{'...' if len(lost) > 8 else ''})"
            )
        _log.warning(
            "degraded map %s",
            kv(label=label, lost=len(lost), tasks=len(tasks)),
        )
        for index in lost:
            results[index] = None
            emit_event(
                "progress", label=label, index=index, state="lost"
            )
    emit_event(
        "round",
        label=label,
        phase="end",
        path=path,
        tasks=len(pending),
        lost=len(lost),
        wall_s=round(time.perf_counter() - t0, 4),
    )
    return results


def _run_inline(fn, tasks, pending, payload, label, journal, results):
    """Serial execution of the pending shards (identical code path).

    Inline execution has no transient failure mode -- a worker death
    here *is* a process death (the journal preserves partial credit
    for the next run) -- and task exceptions propagate unchanged: the
    traceback is intact and the exception type stays catchable, so
    wrapping in :class:`~repro.errors.TaskError` (needed on the pooled
    path, where the exception crossed a process boundary) would only
    obscure it.

    Progress events are emitted straight to the bus (no queue -- the
    shards run *in* the parent), so a live consumer sees the same
    ``started``/``finished`` stream regardless of the execution path.
    """
    bus = get_event_bus()
    pid = os.getpid()
    for index in pending:
        _maybe_inject_fault(label, index)
        if bus is not None:
            bus.emit(
                "progress",
                label=label,
                index=index,
                state="started",
                pid=pid,
                t_worker=time.time(),
            )
            t0 = time.perf_counter()
        result = fn(payload, tasks[index])
        if bus is not None:
            bus.emit(
                "progress",
                label=label,
                index=index,
                state="finished",
                pid=pid,
                t_worker=time.time(),
                busy_s=round(time.perf_counter() - t0, 6),
            )
        results[index] = result
        if journal is not None:
            journal.record(index, result)


def _run_pooled(
    fn,
    tasks,
    pending,
    payload,
    jobs,
    label,
    context,
    policy,
    journal,
    results,
    metrics,
):
    """Pool execution with retry rounds; returns (busy_s, lost shards).

    The payload is packed once and every round ships it (see
    :func:`_run_round`); a pack made here is released when the map
    ends, however it ends.  A round that ends badly invalidates its
    leased pool, so the retry round's lease forks a new pool of new
    workers -- a retried shard never lands on a worker that saw the
    failure.
    """
    remaining = list(pending)
    busy_total = 0.0
    attempt = 0
    owned = not isinstance(payload, PackedPayload)
    if owned:
        with metrics.time("parallel.pack"):
            packed = pack_payload(payload)
    else:
        packed = payload  # caller packed it once and keeps it
    try:
        while remaining:
            transient, fatal, busy_s = _run_round(
                fn,
                tasks,
                remaining,
                packed,
                jobs,
                label,
                context,
                policy,
                journal,
                results,
                metrics,
            )
            busy_total += busy_s
            if fatal is not None:
                index, exc = fatal
                raise TaskError(
                    f"shard {index} of {label!r} failed deterministically: "
                    f"{exc} (task={tasks[index]!r})",
                    shard=index,
                    label=label,
                ) from exc
            remaining = sorted(transient)
            if not remaining:
                break
            attempt += 1
            if attempt > policy.retries:
                return busy_total, remaining
            if metrics.enabled:
                metrics.counter("parallel.retries").inc(len(remaining))
            for index in remaining:
                emit_event(
                    "progress",
                    label=label,
                    index=index,
                    state="retrying",
                    attempt=attempt,
                    retries=policy.retries,
                )
            delay = policy.backoff_for(attempt)
            _log.warning(
                "retrying lost shards %s",
                kv(
                    label=label,
                    shards=len(remaining),
                    attempt=f"{attempt}/{policy.retries}",
                    backoff_s=round(delay, 3),
                ),
            )
            if delay > 0:
                time.sleep(delay)
        return busy_total, []
    finally:
        if owned:
            release_packed(packed)


#: Serializes the parent's reads of the pools' event queues.  Rounds
#: on concurrent threads share a pool's queue; each emits what it reads
#: before letting go, so an event one round has read is on the bus
#: before another round emits a later ``finished``.
_EVENT_READ_LOCK = threading.Lock()


def _forward_events(bus, queue) -> None:
    """Forward every worker event the queue holds to the bus."""
    with _EVENT_READ_LOCK:
        try:
            while not queue.empty():
                bus.emit_raw(queue.get())
        except OSError:  # a failed round closed the pool's queue
            pass


def _heartbeat(bus, label: str, done: int, total: int, t0: float, final=False):
    """Emit one round's liveness beat: done/total, elapsed, linear ETA.

    A stalled round keeps beating with a frozen ``done`` -- exactly the
    signal ``repro-ser obs tail`` turns into stall warnings; a *silent*
    stream means the parent itself died.
    """
    elapsed = time.monotonic() - t0
    eta = elapsed / done * (total - done) if 0 < done < total else None
    bus.emit(
        "heartbeat",
        label=label,
        done=done,
        total=total,
        elapsed_s=round(elapsed, 4),
        eta_s=round(eta, 4) if eta is not None else None,
        final=final,
    )


def _run_round(
    fn,
    tasks,
    indices,
    packed,
    jobs,
    label,
    context,
    policy,
    journal,
    results,
    metrics,
):
    """One pool round over ``indices``.

    The executor is leased from the process-wide
    :class:`~repro.parallel.pool.PoolLease` and every task carries the
    packed payload.  The pool survives the round unless it ended badly
    (worker death, watchdog), in which case the lease is invalidated
    so the next round or map forks a new one.

    The wait loop wakes on every completion, when the watchdog window
    (``policy.task_timeout_s`` since the last completion) runs out, and,
    with a bus live, every ``bus.heartbeat_s``.  At each wake it
    forwards the workers' ``started`` events, emits ``finished`` for
    each shard it stores, and beats when a heartbeat is due; the round
    also beats at its start and end.

    Returns ``(transient, fatal, busy_s)``: the shard indices lost to
    worker death or the watchdog, the first deterministic task failure
    (or ``None``), and the summed worker busy time of the shards that
    did complete -- which are stored into ``results`` and journaled
    immediately, so even a round that ends badly keeps its credit.
    """
    lease = get_lease()
    executor, _reused = lease.acquire(context, jobs, initializer=_worker_init)
    bus = get_event_bus()
    transient: List[int] = []
    fatal = None
    busy_total = 0.0
    healthy = True
    done_count = 0
    watchdog_s = policy.task_timeout_s or math.inf  # None = off
    t0 = last_done = time.monotonic()
    next_beat = math.inf
    if bus is not None:
        queue = lease.event_queue(context, jobs)
        _heartbeat(bus, label, 0, len(indices), t0)
        next_beat = t0 + bus.heartbeat_s
    try:
        fault_spec = os.environ.get(FAULT_ENV)
        try:
            waiting = {
                executor.submit(
                    _invoke,
                    fn,
                    tasks[i],
                    i,
                    label,
                    packed,
                    metrics.enabled,
                    fault_spec,
                    bus is not None,
                ): i
                for i in indices
            }
        except BrokenProcessPool:
            # a worker died idle between maps: the whole round is
            # transient, the lease is invalidated in finally.
            healthy = False
            transient.extend(indices)
            return transient, None, busy_total
        while waiting:
            wake_at = min(last_done + watchdog_s, next_beat)
            timeout = None
            if wake_at < math.inf:
                timeout = max(wake_at - time.monotonic(), 0.0)
            done, _ = _futures_wait(
                list(waiting), timeout=timeout, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            if bus is not None:
                # every shard in ``done`` put its ``started`` before its
                # result left the worker, so it is read by now
                _forward_events(bus, queue)
            if done:
                last_done = now
            elif now - last_done >= watchdog_s:
                # watchdog: nothing completed within the window --
                # declare the in-flight shards lost and kill the pool.
                healthy = False
                transient.extend(waiting.values())
                _log.warning(
                    "watchdog expired %s",
                    kv(
                        label=label,
                        stuck=len(waiting),
                        timeout_s=policy.task_timeout_s,
                    ),
                )
                return transient, None, busy_total
            broken = False
            for future in done:
                index = waiting.pop(future)
                try:
                    result, snapshot, busy_s, pid, t_done = future.result()
                except (BrokenProcessPool, CancelledError):
                    transient.append(index)
                    broken = True
                except Exception as exc:
                    fatal = (index, exc)
                    # keep the healthy pool; drop what we can of the
                    # still-queued work before failing fast.
                    for pending_future in waiting:
                        pending_future.cancel()
                    return transient, fatal, busy_total
                else:
                    results[index] = result
                    done_count += 1
                    busy_total += busy_s
                    if snapshot is not None:
                        metrics.merge_snapshot(snapshot)
                    if journal is not None:
                        journal.record(index, result)
                    if bus is not None:
                        bus.emit(
                            "progress",
                            label=label,
                            index=index,
                            state="finished",
                            pid=pid,
                            t_worker=t_done,
                            busy_s=round(busy_s, 6),
                        )
            if broken:
                # the pool is unusable: every shard still waiting will
                # fail the same way -- mark them lost in one sweep.
                healthy = False
                transient.extend(waiting.values())
                waiting.clear()
            if now >= next_beat:
                _heartbeat(bus, label, done_count, len(indices), t0)
                next_beat = now + bus.heartbeat_s
        return transient, None, busy_total
    finally:
        if bus is not None:
            _heartbeat(bus, label, done_count, len(indices), t0, final=True)
        if not healthy:
            # no round may be mid-read when the pool's queue closes
            with _EVENT_READ_LOCK:
                lease.invalidate(context, jobs)
