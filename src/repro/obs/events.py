"""Streaming telemetry events: the live view into a running campaign.

Metrics (:mod:`repro.obs.registry`) are *aggregates* merged after a
parallel round completes; traces (:mod:`repro.obs.trace`) record spans
only once they *finish*.  Neither answers "how far along is the sweep
*right now*?" — the question both the SER-service daemon and adaptive
sampling need answered.  This module adds the third leg: a stream of
small, typed, strictly-ordered events emitted *while* campaigns run,
mirroring the event-wise (rather than end-of-run aggregate) SER
measurement methodology of the 55-nm error-scanning chip line.

Event kinds
-----------
* ``round`` — a :func:`~repro.parallel.parallel_map` fan-out started
  or ended (label, execution path, task/worker counts).
* ``progress`` — one shard changed state: ``started`` (put **inside
  the worker process** on the pool's ``multiprocessing`` queue before
  the shard runs), ``finished`` (emitted by the parent when it stores
  the shard's result), ``retrying`` / ``lost`` (parent side).
* ``heartbeat`` — periodic liveness while a pooled round is in
  flight: done/total, elapsed, ETA.  A silent stream means a stalled
  run; ``repro-ser obs tail`` turns that into stall warnings.
* ``convergence`` — one (stage, particle, Vdd, energy) bin's trial
  count and POF standard error (see :mod:`repro.obs.convergence`).
* ``allocation`` — one adaptive-campaign round's draw-block
  allocation: which bins got blocks, trials assigned, bins converged
  so far (see :mod:`repro.ser.adaptive`).

Every event is a flat JSON-safe dict stamped by the parent-process
:class:`EventBus` with a monotonically increasing ``seq`` — the total
order consumers rely on — plus the bus wall-clock ``t``.  Shard
``started`` and ``finished`` events carry the worker's ``t_worker`` and
``pid``.

Consumers
---------
:func:`configure_events` opens a crash-safe, size-rotated JSONL sink
(:class:`~repro.obs.jsonl.JsonlWriter`) and/or a bounded in-memory
:class:`EventRing` for programmatic consumers (the future daemon's
admission controller, tests, notebooks).  Like the rest of
:mod:`repro.obs`, everything is **disabled by default and zero-cost
in that state**: :func:`events_enabled` is one global read, and no
queues are drained, no lines written, no dicts built.

Pool workers never own a bus of their own — :func:`disable_events`
is called in every worker initializer, and a worker's ``started``
travels through the engine's event queue to be sequenced by the
parent.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Deque, List, Optional, Union

from .jsonl import DEFAULT_MAX_BYTES, JsonlWriter
from .log import get_logger, kv

_log = get_logger(__name__)

__all__ = [
    "EVENT_KINDS",
    "EventBus",
    "EventRing",
    "configure_events",
    "disable_events",
    "emit_event",
    "events_enabled",
    "get_event_bus",
    "DEFAULT_RING_SIZE",
    "DEFAULT_HEARTBEAT_S",
]

EVENT_KINDS = ("round", "progress", "heartbeat", "convergence", "allocation")

#: Default capacity of the in-memory ring.
DEFAULT_RING_SIZE = 4096

#: Default heartbeat period [s] while a pooled round is in flight.
DEFAULT_HEARTBEAT_S = 1.0


class EventRing:
    """Bounded, thread-safe ring of the most recent events.

    The programmatic consumption surface: a live reader (the daemon's
    scheduler, a test, a notebook) snapshots the ring instead of
    tailing the JSONL file.  Old events fall off the far end — the
    ring can never grow a long campaign out of memory.
    """

    def __init__(self, capacity: int = DEFAULT_RING_SIZE):
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._events: Deque[dict] = deque(maxlen=self.capacity)
        self.total = 0  # events ever appended, including evicted ones

    def append(self, event: dict):
        with self._lock:
            self._events.append(event)
            self.total += 1

    def snapshot(self, kind: Optional[str] = None) -> List[dict]:
        """The retained events in order, optionally filtered by kind."""
        with self._lock:
            events = list(self._events)
        if kind is not None:
            events = [e for e in events if e.get("kind") == kind]
        return events

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class EventBus:
    """Parent-process event hub: stamps order, fans out to sinks.

    ``emit`` is the only write path; under one lock (rounds running
    on concurrent threads interleave their events) it assigns the
    global ``seq``, stamps the wall clock, and forwards to the JSONL
    sink and/or ring, so every sink holds the events in ``seq`` order.
    Emission must never break the science: sink errors are swallowed
    after disabling the sink.
    """

    def __init__(
        self,
        path=None,
        ring: Optional[int] = DEFAULT_RING_SIZE,
        max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    ):
        if path is None and ring is None:
            raise ValueError("need a JSONL path, a ring, or both")
        if heartbeat_s <= 0:
            raise ValueError("heartbeat period must be positive")
        self.writer = (
            JsonlWriter(
                path,
                header={"type": "events", "format": 1},
                max_bytes=max_bytes,
            )
            if path is not None
            else None
        )
        self.ring = EventRing(ring) if ring is not None else None
        self.heartbeat_s = float(heartbeat_s)
        self._lock = threading.Lock()
        self._seq = 0
        self._pid = os.getpid()
        #: Events that could not reach the JSONL sink (sink died).
        self.dropped = 0

    @property
    def path(self) -> Optional[str]:
        return self.writer.path if self.writer is not None else None

    def emit(self, kind: str, **fields) -> dict:
        """Stamp and publish one event; returns the stamped dict."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        event = {"type": "event", "kind": kind}
        event.update(fields)
        with self._lock:
            self._seq += 1
            event["seq"] = self._seq
            event["t"] = time.time()
            if self.ring is not None:
                self.ring.append(event)
            if self.writer is not None:
                try:
                    self.writer.write(event)
                except OSError as exc:  # never sink the campaign
                    # drop the sink for good: a dead writer stays dead,
                    # so later emits must not re-serialize and re-fail
                    # (and ``bus.path`` must stop advertising a sink
                    # that no longer exists).  The ring keeps working.
                    path = self.writer.path
                    self.writer.close()
                    self.writer = None
                    self.dropped += 1
                    self._count_drop()
                    _log.warning(
                        "event sink lost, dropping further events %s",
                        kv(path=path, error=exc),
                    )
            elif self.dropped:
                # sink already declared dead: count, never retry.
                self.dropped += 1
                self._count_drop()
        return event

    @staticmethod
    def _count_drop():
        from .registry import get_registry

        get_registry().counter("events.dropped").inc()

    def emit_raw(self, event: dict) -> dict:
        """Publish a worker-originated event dict (stamped here)."""
        fields = {k: v for k, v in event.items() if k not in ("type", "kind")}
        return self.emit(event.get("kind", "progress"), **fields)

    def close(self):
        if self.writer is not None:
            self.writer.close()


_BUS: Optional[EventBus] = None


def _reset_bus_lock_after_fork():
    # a child forked while a parent thread held the seq lock would
    # deadlock on its first emit; the lock is per-process, so a fresh
    # one is always correct (the writer's own lock is re-armed by
    # :mod:`repro.obs.jsonl`).
    if _BUS is not None:
        _BUS._lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_bus_lock_after_fork)


def configure_events(
    path=None,
    ring: Optional[int] = DEFAULT_RING_SIZE,
    max_bytes: Optional[int] = DEFAULT_MAX_BYTES,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> EventBus:
    """Install the process-wide :class:`EventBus` (replacing any)."""
    global _BUS
    if _BUS is not None:
        _BUS.close()
    _BUS = EventBus(
        path=path, ring=ring, max_bytes=max_bytes, heartbeat_s=heartbeat_s
    )
    return _BUS


def disable_events():
    """Tear the bus down; emission reverts to the zero-cost no-op."""
    global _BUS
    if _BUS is not None:
        _BUS.close()
        _BUS = None


def get_event_bus() -> Optional[EventBus]:
    """The live bus, or ``None`` when telemetry is off (the default)."""
    return _BUS


def events_enabled() -> bool:
    return _BUS is not None


def emit_event(kind: str, **fields) -> Optional[dict]:
    """Emit one event through the live bus (no-op when disabled)."""
    bus = _BUS
    if bus is None:
        return None
    return bus.emit(kind, **fields)
