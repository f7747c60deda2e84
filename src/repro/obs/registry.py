"""Process-wide metrics registry (counters, gauges, timers).

The registry is the measurement surface of the whole flow: every hot
path increments named instruments through :func:`get_registry`, and a
run's :class:`~repro.obs.manifest.RunManifest` snapshots them at exit.

Instrumentation is **disabled by default** so library users and the
benchmarks pay nothing: :func:`get_registry` then returns the shared
:class:`NullRegistry`, whose instruments are shared no-op singletons.
Call :func:`enable_metrics` (the CLI does) to install a live
:class:`MetricsRegistry`.

Thread-safety: instrument *creation* is locked; instrument *updates*
are plain attribute arithmetic (exact under the GIL for the
single-threaded flow; approximate, never crashing, under threads).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Dict, List, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "enable_metrics",
    "disable_metrics",
    "metrics_enabled",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1):
        self.value += amount

    def snapshot(self):
        return self.value


class Gauge:
    """A last-write-wins scalar (e.g. current throughput)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float):
        self.value = float(value)

    def snapshot(self):
        return self.value


def _exact_quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of a sample list (0 when empty)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    lo = int(math.floor(position))
    hi = int(math.ceil(position))
    if lo == hi:
        return ordered[lo]
    frac = position - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


#: Retained-sample cap per timer.  Past it the sample list is decimated
#: deterministically (every other sample dropped, retention stride
#: doubled) so quantiles stay representative at bounded memory and the
#: snapshot -- which travels from pool workers to the parent and into
#: the run manifest -- stays small.
TIMER_MAX_SAMPLES = 256


class Timer:
    """Accumulated duration statistics (seconds) with quantiles.

    Alongside the running count/total/min/max, a bounded sample list
    is retained so :meth:`quantile` (and the ``p50_s`` / ``p99_s``
    snapshot fields) report *exact* quantiles while the observation
    count stays under :data:`TIMER_MAX_SAMPLES`; past that the list is
    thinned by deterministic stride-doubling decimation, degrading the
    quantiles gracefully to a uniform subsample.
    """

    __slots__ = (
        "name", "count", "total_s", "min_s", "max_s",
        "samples", "_stride", "_phase",
    )

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0
        self.samples: List[float] = []
        self._stride = 1
        self._phase = 0

    def observe(self, seconds: float):
        seconds = float(seconds)
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds
        self._retain(seconds)

    def _retain(self, seconds: float):
        self._phase += 1
        if self._phase < self._stride:
            return
        self._phase = 0
        self.samples.append(seconds)
        if len(self.samples) > TIMER_MAX_SAMPLES:
            self.samples = self.samples[::2]
            self._stride *= 2

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Exact quantile of the retained duration samples [s]."""
        return _exact_quantile(self.samples, q)

    def merge(self, snapshot: dict):
        """Fold another timer's :meth:`snapshot` into this one."""
        count = int(snapshot.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total_s += float(snapshot.get("total_s", 0.0))
        self.min_s = min(self.min_s, float(snapshot.get("min_s", math.inf)))
        self.max_s = max(self.max_s, float(snapshot.get("max_s", 0.0)))
        for sample in snapshot.get("samples", ()):
            self._retain(float(sample))

    def time(self):
        """Context manager observing the wall time of its body."""
        return _TimerContext(self)

    def snapshot(self):
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "p50_s": self.quantile(0.5),
            "p99_s": self.quantile(0.99),
            "samples": list(self.samples),
        }


class _TimerContext:
    __slots__ = ("_timer", "_t0")

    def __init__(self, timer: Timer):
        self._timer = timer

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self._timer

    def __exit__(self, exc_type, exc, tb):
        self._timer.observe(time.perf_counter() - self._t0)
        return False


class MetricsRegistry:
    """Named instruments, created on first use, snapshot-able to a dict."""

    enabled = True

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    def _get(self, store, name, factory):
        instrument = store.get(name)
        if instrument is None:
            with self._lock:
                instrument = store.get(name)
                if instrument is None:
                    instrument = store[name] = factory(name)
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, name, Gauge)

    def timer(self, name: str) -> Timer:
        return self._get(self._timers, name, Timer)

    def time(self, name: str):
        """Shorthand: ``with registry.time("stage.fit"): ...``."""
        return self.timer(name).time()

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (JSON-safe)."""
        with self._lock:
            return {
                "counters": {
                    k: v.snapshot() for k, v in sorted(self._counters.items())
                },
                "gauges": {
                    k: v.snapshot() for k, v in sorted(self._gauges.items())
                },
                "timers": {
                    k: v.snapshot() for k, v in sorted(self._timers.items())
                },
            }

    def merge_snapshot(self, snapshot: dict):
        """Fold a :meth:`snapshot` dict (e.g. from a pool worker) in.

        Counters add, timers merge their duration statistics, gauges
        are last-write-wins.  This is how
        :func:`repro.parallel.parallel_map` surfaces worker-side
        instrumentation in the parent process manifest.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, timer_snapshot in snapshot.get("timers", {}).items():
            self.timer(name).merge(timer_snapshot)

    def reset(self):
        """Drop every instrument (a fresh run starts clean)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._timers.clear()


class _NullInstrument:
    """Shared do-nothing instrument returned by :class:`NullRegistry`."""

    __slots__ = ()
    name = "null"
    value = 0
    count = 0
    total_s = 0.0
    mean_s = 0.0

    def inc(self, amount: int = 1):
        pass

    def set(self, value: float):
        pass

    def observe(self, value: float):
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def time(self):
        return _NULL_CONTEXT

    def snapshot(self):
        return 0


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_CONTEXT = _NullContext()
_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The disabled-state registry: every instrument is a shared no-op."""

    enabled = False

    def counter(self, name: str):
        return _NULL_INSTRUMENT

    def gauge(self, name: str):
        return _NULL_INSTRUMENT

    def timer(self, name: str):
        return _NULL_INSTRUMENT

    def time(self, name: str):
        return _NULL_CONTEXT

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "timers": {}}

    def merge_snapshot(self, snapshot: dict):
        pass

    def reset(self):
        pass


_NULL_REGISTRY = NullRegistry()
_registry = _NULL_REGISTRY


def get_registry():
    """The process-wide registry (the no-op one unless metrics are on)."""
    return _registry


def enable_metrics(fresh: bool = False) -> MetricsRegistry:
    """Install (or return) the live registry.

    ``fresh=True`` resets any existing instruments so each CLI
    invocation starts a clean manifest.
    """
    global _registry
    if not isinstance(_registry, MetricsRegistry):
        _registry = MetricsRegistry()
    elif fresh:
        _registry.reset()
    return _registry


def disable_metrics():
    """Restore the zero-cost no-op registry."""
    global _registry
    _registry = _NULL_REGISTRY


def metrics_enabled() -> bool:
    return _registry.enabled
