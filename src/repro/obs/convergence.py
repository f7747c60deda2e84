"""Per-bin convergence telemetry: trial counts and POF standard errors.

Every Monte Carlo stage of the flow estimates a proportion — the
array-level POF of an energy bin, the fin-crossing fraction of a
yield-LUT energy point, the variation-MC POF of a characterization
grid — and the question that drives both campaign sizing and the
adaptive sampler is the same for all of them: *how converged is each
bin right now?*  This module is the one funnel those stages report
through, each bin where its estimate is merged, in the parent process.

:func:`record_bin` folds one bin observation into

* the process-wide :class:`ConvergenceTracker`, the programmatic
  surface: per-bin state plus p50/p99 over everything recorded, whose
  :meth:`~ConvergenceTracker.summary` is the manifest's
  ``convergence_bins`` section; and
* the event stream — one ``convergence`` event per bin, so a live
  consumer (``repro-ser obs tail``) sees convergence *as bins
  complete*, not at exit.

:func:`binomial_standard_error` is the one binomial estimator
(``sqrt(p (1 - p) / n)``); it lives here, at the bottom of the
dependency tree, so :mod:`repro.ser`/:mod:`repro.transport` can use it
without importing the analysis layer.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple

from .events import emit_event, events_enabled
from .registry import _exact_quantile, get_registry

__all__ = [
    "BinState",
    "ConvergenceTracker",
    "binomial_standard_error",
    "convergence_active",
    "get_convergence_tracker",
    "record_bin",
    "reset_convergence",
]

def binomial_standard_error(p: float, n: int) -> float:
    """Conservative standard error of a proportion estimate.

    The binomial bound ``sqrt(p (1 - p) / n)`` — slightly pessimistic
    for our per-event *fractional* failure probabilities, which is the
    right direction for a convergence criterion.
    """
    if n < 1:
        raise ValueError("need at least one trial")
    p = min(max(float(p), 0.0), 1.0)
    return math.sqrt(p * (1.0 - p) / n)


class BinState:
    """Running convergence state of one (stage, particle, vdd, energy) bin."""

    __slots__ = ("key", "trials", "pof", "standard_error", "updates")

    def __init__(self, key: str):
        self.key = key
        self.trials = 0
        self.pof = 0.0
        self.standard_error = math.inf
        self.updates = 0

    def update(self, trials: int, pof: float, standard_error: float):
        self.trials += int(trials)
        self.pof = float(pof)
        self.standard_error = float(standard_error)
        self.updates += 1

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "pof": self.pof,
            "standard_error": self.standard_error,
            "updates": self.updates,
        }


class ConvergenceTracker:
    """Process-wide per-bin convergence state with quantile support.

    The one store of recorded bins: the manifest's
    ``convergence_bins`` section is its :meth:`summary`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._bins: Dict[str, BinState] = {}

    def update(
        self, key: str, trials: int, pof: float, standard_error: float
    ) -> BinState:
        with self._lock:
            state = self._bins.get(key)
            if state is None:
                state = self._bins[key] = BinState(key)
            state.update(trials, pof, standard_error)
            return state

    def bins(self, stage: Optional[str] = None) -> Dict[str, BinState]:
        """Per-bin states, optionally restricted to one stage prefix."""
        with self._lock:
            items = dict(self._bins)
        if stage is not None:
            prefix = f"{stage}."
            items = {k: v for k, v in items.items() if k.startswith(prefix)}
        return items

    def standard_errors(self, stage: Optional[str] = None) -> List[float]:
        return [
            state.standard_error
            for state in self.bins(stage).values()
            if math.isfinite(state.standard_error)
        ]

    def quantile(self, q: float, stage: Optional[str] = None) -> float:
        """Exact quantile over the current per-bin standard errors."""
        return _exact_quantile(self.standard_errors(stage), q)

    def worst(self, stage: Optional[str] = None) -> Tuple[Optional[str], float]:
        """The least-converged bin: ``(key, standard error)``."""
        worst_key, worst_se = None, 0.0
        for key, state in self.bins(stage).items():
            if (
                math.isfinite(state.standard_error)
                and state.standard_error >= worst_se
            ):
                worst_key, worst_se = key, state.standard_error
        return worst_key, worst_se

    def summary(self) -> dict:
        """JSON-safe digest (manifest ``convergence_bins`` section)."""
        bins = self.bins()
        worst_key, worst_se = self.worst()
        return {
            "bins": len(bins),
            "total_trials": sum(s.trials for s in bins.values()),
            "p50_se": self.quantile(0.5),
            "p99_se": self.quantile(0.99),
            "worst_bin": worst_key,
            "worst_se": worst_se,
            "per_bin": {key: state.to_dict() for key, state in bins.items()},
        }

    def reset(self):
        with self._lock:
            self._bins.clear()


_TRACKER = ConvergenceTracker()


def get_convergence_tracker() -> ConvergenceTracker:
    """The process-wide tracker (always available; cheap when idle)."""
    return _TRACKER


def reset_convergence():
    """Drop all per-bin state (a fresh run starts clean)."""
    _TRACKER.reset()


def convergence_active() -> bool:
    """Whether recording a bin would reach any consumer right now."""
    return get_registry().enabled or events_enabled()


def bin_key(
    stage: str,
    particle: Optional[str] = None,
    vdd_v: Optional[float] = None,
    energy_mev: Optional[float] = None,
) -> str:
    parts = [stage]
    if particle is not None:
        parts.append(str(particle))
    if vdd_v is not None:
        parts.append(f"vdd={float(vdd_v):g}")
    if energy_mev is not None:
        parts.append(f"e={float(energy_mev):.6g}")
    return ".".join(parts)


def record_bin(
    stage: str,
    *,
    trials: int,
    pof: float,
    standard_error: Optional[float] = None,
    particle: Optional[str] = None,
    vdd_v: Optional[float] = None,
    energy_mev: Optional[float] = None,
) -> Optional[BinState]:
    """Fold one bin observation into the tracker and the event stream.

    No-op (and allocation-free) unless metrics or events are enabled,
    so instrumented MC stages cost nothing in the library-default
    disabled state.  ``standard_error`` defaults to the binomial bound
    of ``(pof, trials)``.
    """
    if not convergence_active():
        return None
    if standard_error is None:
        standard_error = binomial_standard_error(pof, trials)
    key = bin_key(stage, particle, vdd_v, energy_mev)
    state = _TRACKER.update(key, trials, pof, standard_error)
    emit_event(
        "convergence",
        stage=stage,
        bin=key,
        particle=particle,
        vdd_v=vdd_v,
        energy_mev=energy_mev,
        trials=int(trials),
        pof=float(pof),
        pof_standard_error=float(standard_error),
        cumulative_trials=state.trials,
    )
    return state
