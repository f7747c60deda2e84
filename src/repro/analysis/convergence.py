"""Monte Carlo convergence diagnostics and adaptive trial allocation.

The paper runs 1e7 trials per point; users on laptops need to know how
few they can get away with.  These helpers estimate the statistical
error of an array-MC POF by batching, size a campaign for a target
precision, and -- for :mod:`repro.ser.adaptive` -- decide where the
next draw blocks buy the most variance reduction.  The allocation
functions are pure functions of their (journal-replayable) inputs, so a
resumed adaptive campaign re-derives the identical allocation sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..physics import ParticleType
from ..ser import ArraySerSimulator, BatchPlan, CampaignPoint

#: Planning variance for a bin whose standard error is unknown (zero
#: observed hits, or a degraded result): ``p (1 - p)`` maxes out at
#: 1/4, so planning with it allocates generously until the bin yields
#: information.
MAX_BINOMIAL_VARIANCE = 0.25


@dataclass(frozen=True)
class ConvergenceEstimate:
    """Batched MC error estimate for one campaign point.

    Attributes
    ----------
    mean_pof:
        Mean of the per-batch POF estimates.
    standard_error:
        Standard error of the overall mean (batch std / sqrt(batches)).
    n_particles / n_batches:
        Total campaign size and how it was split.
    """

    mean_pof: float
    standard_error: float
    n_particles: int
    n_batches: int

    @property
    def relative_error(self) -> float:
        """SE / mean (inf when the mean is 0 -- no upsets observed)."""
        if self.mean_pof <= 0:
            return float("inf")
        return self.standard_error / self.mean_pof

    def particles_for_relative_error(self, target: float) -> int:
        """Campaign size for a target relative SE (1/sqrt(n) scaling)."""
        if target <= 0:
            raise ConfigError("target relative error must be positive")
        current = self.relative_error
        if not math.isfinite(current):
            raise ConfigError(
                "no upsets observed -- cannot extrapolate; run a larger pilot"
            )
        scale = (current / target) ** 2
        return int(math.ceil(self.n_particles * scale))


def estimate_pof_error(
    simulator: ArraySerSimulator,
    particle: ParticleType,
    energy_mev: float,
    vdd_v: float,
    n_particles: int,
    rng: np.random.Generator,
    n_batches: int = 10,
) -> ConvergenceEstimate:
    """Batched standard error of the total-POF estimate.

    Splits the campaign into ``n_batches`` independent sub-campaigns and
    reports the spread of their estimates -- the honest MC error bar,
    including all correlation induced inside one batch.  The batches
    are the points of one plan, drawing from ``rng`` in batch order just
    as ``n_batches`` successive ``simulator.run`` calls would.
    """
    if n_batches < 2:
        raise ConfigError("need at least two batches for an error estimate")
    per_batch = n_particles // n_batches
    if per_batch < 1:
        raise ConfigError("need at least one particle per batch")

    points = [
        CampaignPoint.uniform(particle.name, energy_mev, vdd_v, per_batch, rng)
        for _ in range(n_batches)
    ]
    results = BatchPlan(simulator, points).execute()
    estimates = np.array([result.pof_total for result in results])
    mean = float(np.mean(estimates))
    standard_error = float(
        np.std(estimates, ddof=1) / math.sqrt(n_batches)
    )
    return ConvergenceEstimate(
        mean_pof=mean,
        standard_error=standard_error,
        n_particles=per_batch * n_batches,
        n_batches=n_batches,
    )


# -- adaptive trial allocation (repro.ser.adaptive) -----------------------


@dataclass(frozen=True)
class BinBudgetState:
    """Live convergence state of one (particle, energy, vdd) bin.

    The allocation input: current trial count, POF estimate and
    standard error (``nan`` when unknown), the bin's absolute SE target
    and its hard trial ceiling.  Built from journaled round results, so
    identical journals yield identical allocations.
    """

    key: str
    trials: int
    pof: float
    standard_error: float
    target_se: float
    max_trials: int

    def __post_init__(self):
        if self.trials < 0:
            raise ConfigError("bin trial count cannot be negative")
        if self.target_se < 0:
            raise ConfigError("target standard error cannot be negative")
        if self.max_trials < 1:
            raise ConfigError("trial ceiling must be positive")

    @property
    def variance_scale(self) -> float:
        """``n * SE^2`` -- the (estimated) per-trial variance ``p(1-p)``.

        Falls back to :data:`MAX_BINOMIAL_VARIANCE` when the SE is not
        finite (zero-hit or degraded bins), so uninformative bins keep
        receiving trials instead of being starved.
        """
        if math.isfinite(self.standard_error) and self.trials > 0:
            return self.standard_error * self.standard_error * self.trials
        return MAX_BINOMIAL_VARIANCE

    def predicted_standard_error(self, extra_trials: int) -> float:
        """SE forecast after ``extra_trials`` more draws (1/sqrt(n))."""
        n = self.trials + max(int(extra_trials), 0)
        if n < 1:
            return math.inf
        return math.sqrt(self.variance_scale / n)

    @property
    def converged(self) -> bool:
        """True when the *measured* SE is finite and at/below target."""
        return (
            math.isfinite(self.standard_error)
            and self.standard_error <= self.target_se
        )


def allocate_blocks(
    states: Sequence[BinBudgetState],
    budget_blocks: int,
    block_size: int,
) -> Dict[str, int]:
    """Greedy minimax allocation of the next round's draw blocks.

    Each of the ``budget_blocks`` blocks goes to the bin whose
    *predicted* standard error (after the blocks already assigned this
    round) is largest -- the discrete Neyman allocation on the binomial
    variance estimate, driving the worst bin down first.  Bins at their
    target or ceiling are skipped; ties keep the earliest bin in
    ``states`` order, and the whole function is a pure function of its
    arguments, so replaying journaled rounds reproduces the identical
    sequence.  Returns ``{bin key: blocks}`` for bins that got any.
    """
    if budget_blocks < 0:
        raise ConfigError("block budget cannot be negative")
    if block_size < 1:
        raise ConfigError("block size must be positive")
    assigned: Dict[str, int] = {}
    for state in states:
        if state.key in assigned:
            raise ConfigError(f"duplicate bin key {state.key!r}")
        assigned[state.key] = 0
    for _ in range(budget_blocks):
        best = None
        best_pred = 0.0
        for state in states:
            extra = assigned[state.key] * block_size
            if state.trials + extra >= state.max_trials:
                continue
            pred = state.predicted_standard_error(extra)
            if pred <= state.target_se:
                continue
            if best is None or pred > best_pred:
                best = state
                best_pred = pred
        if best is None:
            break
        assigned[best.key] += 1
    return {key: count for key, count in assigned.items() if count > 0}


@dataclass(frozen=True)
class StratumState:
    """Within-bin stratum statistics for the round's block split.

    ``tilt`` is an importance multiplier (default 1: plain Neyman) --
    energy strata get the POF-gradient tilt of
    :func:`build_energy_tilt` so draws concentrate where POF(E) is
    steep.
    """

    name: str
    weight: float
    trials: int
    pof: float
    hits: int
    tilt: float = 1.0

    @property
    def planning_variance(self) -> float:
        """``p (1 - p)`` estimate, worst-case while uninformative.

        An all-miss stratum is planned with the rule-of-three upper
        confidence bound ``p <= 3 / n`` instead of the worst-case 1/4:
        without the decay, a genuinely quiet stratum (e.g. the frame
        far from the sensitive fins) would hold the maximum planning
        variance forever and soak up every block of every round.
        """
        if self.trials < 1:
            return MAX_BINOMIAL_VARIANCE
        if self.hits < 1:
            return min(MAX_BINOMIAL_VARIANCE, 3.0 / self.trials)
        p = min(max(float(self.pof), 0.0), 1.0)
        return p * (1.0 - p)


def split_blocks_across_strata(
    strata: Sequence[StratumState],
    n_blocks: int,
    block_size: int,
) -> Dict[str, int]:
    """Split one bin's round blocks across its sampling strata.

    Greedy on the marginal variance reduction of the stratified
    estimator: a block to stratum ``s`` shrinks ``sum w_s^2 v_s / n_s``
    by ``w_s^2 v_s (1/n_s - 1/(n_s + B))`` (times the stratum's
    importance ``tilt``).  Deterministic: ties keep the earliest
    stratum in ``strata`` order.
    """
    if n_blocks < 0:
        raise ConfigError("block count cannot be negative")
    if block_size < 1:
        raise ConfigError("block size must be positive")
    if not strata:
        raise ConfigError("need at least one stratum")
    assigned = {}
    for stratum in strata:
        if stratum.name in assigned:
            raise ConfigError(f"duplicate stratum name {stratum.name!r}")
        assigned[stratum.name] = 0
    for _ in range(n_blocks):
        best = None
        best_gain = -1.0
        for stratum in strata:
            n = stratum.trials + assigned[stratum.name] * block_size
            n_eff = max(n, 1)
            gain = (
                stratum.weight
                * stratum.weight
                * stratum.planning_variance
                * stratum.tilt
                * (1.0 / n_eff - 1.0 / (n_eff + block_size))
            )
            if gain > best_gain:
                best = stratum
                best_gain = gain
        assigned[best.name] += 1
    return {name: count for name, count in assigned.items() if count > 0}


def build_energy_tilt(
    log_energies: Sequence[float],
    pofs: Sequence[float],
    max_tilt: float,
) -> List[float]:
    """Importance multipliers from the pilot POF(E) gradient.

    POF(E) is flat almost everywhere and steep only near threshold /
    the Bragg-peak region (paper Figs. 8-9), so draws inside an energy
    bin are worth most where ``|dPOF/dlogE|`` is large.  Central
    differences give a per-stratum gradient magnitude, normalized to
    mean 1 and clipped to ``[1/max_tilt, max_tilt]`` -- the tilt only
    *reorders* allocation priority; the estimator stays exactly
    unbiased because strata are reweighted by their flux mass, not by
    their sampling rate.
    """
    if max_tilt < 1.0:
        raise ConfigError("max_tilt must be >= 1")
    x = np.asarray(log_energies, dtype=np.float64)
    p = np.asarray(pofs, dtype=np.float64)
    if x.shape != p.shape or x.ndim != 1:
        raise ConfigError("log_energies and pofs must be equal-length 1-D")
    if len(x) < 2:
        return [1.0] * len(x)
    grad = np.abs(np.gradient(p, x))
    grad = np.where(np.isfinite(grad), grad, 0.0)
    mean = float(np.mean(grad))
    if mean <= 0.0:
        return [1.0] * len(x)
    tilt = np.clip(grad / mean, 1.0 / max_tilt, max_tilt)
    return [float(t) for t in tilt]
