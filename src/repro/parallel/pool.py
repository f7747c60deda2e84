"""Warm process-pool leases for the parallel engine.

A run issues many :func:`~repro.parallel.parallel_map` calls -- one
per LUT build, characterization and campaign scan -- and forking
workers costs tens of milliseconds each, which would dominate small
maps.  This module keeps one executor warm per worker count, on the
default multiprocessing context, and leases it to successive maps and
rounds:

* :meth:`PoolLease.acquire` returns the cached executor for a worker
  count (or creates one), counting ``parallel.pool.created`` /
  ``parallel.pool.reused``.
* :meth:`PoolLease.invalidate` shuts a pool down hard when a round
  ended badly (worker death, watchdog expiry) -- the retry round or
  map that follows acquires a newly forked pool, so a retried shard
  never runs on a worker that saw the failure.
* :meth:`PoolLease.shutdown_all` (also registered ``atexit``) tears
  every warm pool down.

Workers are started *without* a payload: each task ships a
:class:`~repro.parallel.shm.PackedPayload` instead, which the worker
rebuilds once per distinct payload fingerprint (see
:mod:`repro.parallel.shm`).

Each warm pool also owns one ``multiprocessing.SimpleQueue``, its
**event queue**, created alongside the executor and handed to every
worker through the pool initializer (queues are only picklable at
process-construction time, so the queue must exist *before* the
workers do -- per-map plumbing would be too late for workers that
outlive the map).  A worker puts a shard's ``started`` event on it
(see :mod:`repro.obs.events`) before running the shard; the round
that submitted the shard forwards it to the parent
:class:`~repro.obs.events.EventBus` from its own wait loop.  The queue
always exists -- whether anything is put on it is decided per task by
the parent's live telemetry state, so an idle queue costs one pipe
and no thread.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import resource_tracker
from typing import Dict, Optional, Tuple

from ..obs import get_logger, get_registry, kv

_log = get_logger(__name__)

__all__ = [
    "PoolLease",
    "get_lease",
]


def _shutdown_executor(executor: ProcessPoolExecutor):
    """Tear a pool down without waiting; terminate stuck workers."""
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover -- python < 3.9
        executor.shutdown(wait=False)
    processes = getattr(executor, "_processes", None)
    if processes:
        for process in list(processes.values()):
            if process.is_alive():
                process.terminate()


class PoolLease:
    """Keeps one warm ``ProcessPoolExecutor`` per worker count."""

    def __init__(self):
        self._owner_pid = os.getpid()
        self._pools: Dict[int, ProcessPoolExecutor] = {}
        self._queues: Dict[int, object] = {}
        self._atexit_registered = False

    def __len__(self) -> int:
        return len(self._pools)

    def has(self, jobs: int) -> bool:
        """Whether a healthy warm pool of ``jobs`` workers is already up."""
        executor = self._pools.get(jobs)
        return executor is not None and not self._broken(executor)

    def event_queue(self, jobs: int):
        """The telemetry queue wired into the ``jobs``-worker pool."""
        return self._queues[jobs]

    @staticmethod
    def _broken(executor: ProcessPoolExecutor) -> bool:
        return bool(getattr(executor, "_broken", False))

    def acquire(
        self, jobs: int, initializer
    ) -> Tuple[ProcessPoolExecutor, bool]:
        """The warm ``jobs``-worker executor; returns ``(executor, reused)``.

        ``initializer`` runs once in every new worker and receives the
        pool's telemetry queue as its only argument.  A cached-but-
        broken executor is replaced transparently (still counted as a
        creation, plus ``parallel.pool.invalidated``).
        """
        metrics = get_registry()
        executor = self._pools.get(jobs)
        if executor is not None and not self._broken(executor):
            if metrics.enabled:
                metrics.counter("parallel.pool.reused").inc()
            return executor, True
        if executor is not None:
            self.invalidate(jobs)
        context = multiprocessing.get_context()
        # Forked workers must share this process's resource tracker: a
        # worker that attaches a shared segment registers it, and one
        # forked before any tracker exists starts its own, which unlinks
        # every segment the worker attached once the worker dies -- live
        # segments the parent still serves (Python < 3.13).  Spawned and
        # forkserver workers are handed the parent's tracker anyway.
        if context.get_start_method() == "fork":
            resource_tracker.ensure_running()
        # The telemetry queue must be born with the pool: queues are
        # only picklable through the Process constructor, and warm
        # workers outlive any single map.  A SimpleQueue has no feeder
        # thread: a worker's put is in the pipe when put returns.
        queue = context.SimpleQueue()
        executor = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=initializer,
            initargs=(queue,),
        )
        self._pools[jobs] = executor
        self._queues[jobs] = queue
        if not self._atexit_registered:
            atexit.register(self.shutdown_all)
            self._atexit_registered = True
        if metrics.enabled:
            metrics.counter("parallel.pool.created").inc()
            metrics.gauge("parallel.pool.active").set(len(self._pools))
        _log.debug(
            "warm pool created %s",
            kv(method=context.get_start_method(), workers=jobs),
        )
        return executor, False

    def invalidate(self, jobs: int) -> None:
        """Discard the ``jobs``-worker pool after a bad round (hard shutdown)."""
        executor = self._pools.pop(jobs, None)
        if executor is None:
            return
        _shutdown_executor(executor)
        self._queues.pop(jobs).close()
        metrics = get_registry()
        if metrics.enabled:
            metrics.counter("parallel.pool.invalidated").inc()
            metrics.gauge("parallel.pool.active").set(len(self._pools))
        _log.debug("warm pool invalidated %s", kv(workers=jobs))

    def shutdown_all(self) -> None:
        """Tear every warm pool down (atexit hook; PID-guarded)."""
        if os.getpid() != self._owner_pid:
            self._pools.clear()
            self._queues.clear()
            return
        for executor in self._pools.values():
            # graceful for healthy idle pools: waiting lets the manager
            # thread deregister itself, so the interpreter's own exit
            # hook finds no half-closed pipes to poke.  Broken pools
            # fall back to the hard teardown.
            if self._broken(executor):
                _shutdown_executor(executor)
            else:
                try:
                    executor.shutdown(wait=True, cancel_futures=True)
                except Exception:  # pragma: no cover -- defensive
                    _shutdown_executor(executor)
        self._pools.clear()
        for queue in self._queues.values():
            queue.close()
        self._queues.clear()
        metrics = get_registry()
        if metrics.enabled:
            metrics.gauge("parallel.pool.active").set(0)


_LEASE: Optional[PoolLease] = None


def get_lease() -> PoolLease:
    """The process-wide :class:`PoolLease` (created lazily)."""
    global _LEASE
    if _LEASE is None or _LEASE._owner_pid != os.getpid():
        # forked children never reuse (or tear down) the parent's pools
        _LEASE = PoolLease()
    return _LEASE
