"""Electron-yield look-up tables (paper Section 3.2, Fig. 4).

The paper runs 10 M Geant4 trials per energy point "only once to build
up LUTs" mapping particle energy to the number of electron-hole pairs
generated in a fin.  :class:`ElectronYieldLUT` is that artifact: for a
log grid of energies it stores, from Monte Carlo transport,

* the probability that a random track through the launch window
  actually crosses the fin, and
* the empirical distribution of pair counts *conditional on crossing*
  (as an inverse-CDF quantile table, so downstream consumers can sample
  from it in O(1)).

The array-level Monte Carlo (paper Section 5) samples struck-fin pair
counts from this table ("lut" deposition mode), exactly mirroring the
paper's flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ConfigError, LookupError_
from ..obs import get_logger, kv, span
from ..obs.convergence import record_bin
from ..parallel import parallel_map, spawn_seeds
from ..physics import ParticleType, get_particle
from .engine import TransportConfig, TransportEngine

_log = get_logger(__name__)

_DEFAULT_QUANTILES = 129

#: RNG granularity of a LUT build: each energy point's trials are
#: partitioned into shards of this fixed size, one spawned child stream
#: per shard, so the tabulated statistics depend only on the seed and
#: ``trials_per_energy`` -- never on the worker count.
TRIALS_PER_SHARD = 100_000

#: Fewest trials per energy point that give a usable pair-count CDF.
MIN_TRIALS_PER_ENERGY = 100


def _shard_sizes(trials: int) -> list:
    full, rest = divmod(trials, TRIALS_PER_SHARD)
    sizes = [TRIALS_PER_SHARD] * full
    if rest:
        sizes.append(rest)
    return sizes


def _lut_shard_task(payload, task):
    """Pool worker: one (energy point, trial shard) transport run."""
    energy_idx, shard_trials, seed = task
    result = payload["engine"].launch(
        payload["particle"],
        float(payload["energies"][energy_idx]),
        shard_trials,
        np.random.default_rng(seed),
    )
    return energy_idx, shard_trials, result.pairs_given_hit()


def lut_shard_encode(result) -> dict:
    """JSON-safe encoding of a LUT build shard for the shard journal."""
    energy_idx, shard_trials, conditional = result
    return {
        "i": int(energy_idx),
        "n": int(shard_trials),
        "pairs": np.asarray(conditional, dtype=np.float64).tolist(),
    }


def lut_shard_decode(payload: dict):
    """Inverse of :func:`lut_shard_encode` (exact: JSON floats round-trip)."""
    return (
        int(payload["i"]),
        int(payload["n"]),
        np.asarray(payload["pairs"], dtype=np.float64),
    )


@dataclass
class ElectronYieldLUT:
    """Energy -> electron-hole pair yield distribution for one species.

    Attributes
    ----------
    particle_name:
        Species the table was built for.
    energies_mev:
        Log-spaced energy grid, shape ``(n_e,)``.
    hit_fraction:
        Per-energy probability that a launched track crosses the fin.
    mean_pairs:
        Per-energy mean pair count conditional on a fin crossing.
    quantiles:
        ``(n_e, n_q)`` inverse CDF of the conditional pair count:
        ``quantiles[i, j]`` is the ``j/(n_q-1)`` quantile at energy i.
    trials_per_energy:
        MC statistics used during the build (bookkeeping).
    degraded:
        True when the build lost trial shards to worker crashes past
        the retry budget: the tabulated statistics are unbiased but
        rest on fewer trials than requested.  Degraded tables are not
        cached (see :meth:`repro.io.ArtifactCache.get_or_build`).
    """

    particle_name: str
    energies_mev: np.ndarray
    hit_fraction: np.ndarray
    mean_pairs: np.ndarray
    quantiles: np.ndarray
    trials_per_energy: int = 0
    degraded: bool = False

    def __post_init__(self):
        self.energies_mev = np.asarray(self.energies_mev, dtype=np.float64)
        self.hit_fraction = np.asarray(self.hit_fraction, dtype=np.float64)
        self.mean_pairs = np.asarray(self.mean_pairs, dtype=np.float64)
        self.quantiles = np.asarray(self.quantiles, dtype=np.float64)
        n_e = len(self.energies_mev)
        if (
            len(self.hit_fraction) != n_e
            or len(self.mean_pairs) != n_e
            or self.quantiles.shape[0] != n_e
        ):
            raise ConfigError("LUT arrays must share the energy-grid length")
        if np.any(np.diff(self.energies_mev) <= 0):
            raise ConfigError("LUT energy grid must be strictly increasing")

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        particle: ParticleType,
        energies_mev,
        trials_per_energy: int,
        rng: np.random.Generator,
        engine: Optional[TransportEngine] = None,
        n_quantiles: int = _DEFAULT_QUANTILES,
        n_jobs: int = 1,
        retry=None,
        journal=None,
    ) -> "ElectronYieldLUT":
        """Run the device-level MC at each grid energy and tabulate.

        The trials of every energy point are partitioned into fixed
        :data:`TRIALS_PER_SHARD` shards, each with its own spawned
        child stream, and the shard results are folded back in shard
        order -- so for a fixed seed the table is bit-identical for any
        ``n_jobs``.  With a ``journal`` attached, completed shards are
        checkpointed and a crashed build resumes bit-identically
        (construct it with :func:`lut_shard_encode` /
        :func:`lut_shard_decode`).

        Parameters
        ----------
        particle:
            Species to launch.
        energies_mev:
            Strictly-increasing energy grid [MeV].
        trials_per_energy:
            MC shots per grid point (the paper uses 1e7; a few 1e4 give
            percent-level conditional means).
        rng:
            Random generator.
        engine:
            Transport engine (default: fresh engine on the default
            14 nm fin world).
        n_quantiles:
            Resolution of the stored inverse CDF.
        n_jobs:
            Worker processes sharing the trial shards (1 = inline,
            0 = one per CPU).
        retry:
            Optional :class:`~repro.parallel.RetryPolicy`.  With
            ``allow_partial=True``, shards lost past the retry budget
            degrade the table (``degraded=True``, statistics folded
            over the surviving trials) instead of aborting the build.
        journal:
            Optional :class:`~repro.parallel.ShardJournal` checkpoint;
            cleared automatically once the build completes undegraded.
        """
        if trials_per_energy < MIN_TRIALS_PER_ENERGY:
            raise ConfigError(
                f"need >= {MIN_TRIALS_PER_ENERGY} trials per energy for a "
                "usable CDF"
            )
        if n_quantiles < 3:
            raise ConfigError("need >= 3 quantiles")
        engine = engine if engine is not None else TransportEngine()
        energies = np.asarray(energies_mev, dtype=np.float64)

        hit_fraction = np.zeros(len(energies))
        mean_pairs = np.zeros(len(energies))
        quantile_grid = np.linspace(0.0, 1.0, n_quantiles)
        quantiles = np.zeros((len(energies), n_quantiles))

        shard_sizes = _shard_sizes(int(trials_per_energy))
        tasks = [
            (i, size, None)
            for i in range(len(energies))
            for size in shard_sizes
        ]
        seeds = spawn_seeds(rng, len(tasks))
        tasks = [
            (i, size, seed) for (i, size, _), seed in zip(tasks, seeds)
        ]

        with span(
            "yield-lut-build",
            particle=particle.name,
            energies=len(energies),
            trials_per_energy=int(trials_per_energy),
        ):
            shard_results = parallel_map(
                _lut_shard_task,
                tasks,
                payload={
                    "engine": engine,
                    "particle": particle,
                    "energies": energies,
                },
                n_jobs=n_jobs,
                label="yield_lut",
                retry=retry,
                journal=journal,
                # ~2 us per transport trial: lets tiny builds skip
                # pool spin-up (measured slower than inline)
                cost_hint_s=2.0e-6 * sum(shard_sizes) / len(shard_sizes),
            )
            lost = sum(1 for shard in shard_results if shard is None)
            for i in range(len(energies)):
                # fold the energy point's shards back in shard order,
                # normalizing over the trials that actually completed
                # (== trials_per_energy for an undegraded build, so the
                # bit-identical contract is untouched)
                parts = []
                effective_trials = 0
                for shard in shard_results:
                    if shard is None:
                        continue
                    idx, shard_trials, conditional = shard
                    if idx != i:
                        continue
                    parts.append(conditional)
                    effective_trials += shard_trials
                conditional = (
                    np.concatenate(parts) if parts else np.empty(0)
                )
                n_hits = len(conditional)
                hit_fraction[i] = (
                    n_hits / effective_trials if effective_trials else 0.0
                )
                if effective_trials:
                    record_bin(
                        "yield-lut",
                        trials=int(effective_trials),
                        pof=float(hit_fraction[i]),
                        particle=particle.name,
                        energy_mev=float(energies[i]),
                    )
                _log.debug(
                    "yield LUT energy point %s",
                    kv(
                        particle=particle.name,
                        point=f"{i + 1}/{len(energies)}",
                        energy_mev=float(energies[i]),
                        hit_fraction=hit_fraction[i],
                        mean_pairs=(
                            float(np.mean(conditional)) if n_hits else 0.0
                        ),
                    ),
                )
                if n_hits == 0:
                    # No geometric hits at this statistics level: record a
                    # degenerate (all-zero) distribution rather than
                    # failing.  Queries skip such rows -- see
                    # sample_pairs_many.
                    continue
                mean_pairs[i] = float(np.mean(conditional))
                quantiles[i] = np.quantile(conditional, quantile_grid)

        if lost:
            _log.warning(
                "yield LUT degraded %s",
                kv(
                    particle=particle.name,
                    lost_shards=lost,
                    total_shards=len(tasks),
                ),
            )
        elif journal is not None:
            # the statistics are complete and merged -- the checkpoint
            # has served its purpose
            journal.clear()

        return cls(
            particle_name=particle.name,
            energies_mev=energies,
            hit_fraction=hit_fraction,
            mean_pairs=mean_pairs,
            quantiles=quantiles,
            trials_per_energy=int(trials_per_energy),
            degraded=lost > 0,
        )

    # -- queries ---------------------------------------------------------

    def _interp_weights(self, energy_mev: float):
        """Bracketing indices and log-space weight for an energy query."""
        energies = self.energies_mev
        if energy_mev <= energies[0]:
            return 0, 0, 0.0
        if energy_mev >= energies[-1]:
            last = len(energies) - 1
            return last, last, 0.0
        hi = int(np.searchsorted(energies, energy_mev))
        lo = hi - 1
        log_e = np.log(energy_mev)
        weight = (log_e - np.log(energies[lo])) / (
            np.log(energies[hi]) - np.log(energies[lo])
        )
        return lo, hi, float(weight)

    def mean_at(self, energy_mev: float) -> float:
        """Mean conditional pair count, log-interpolated in energy."""
        self._check_energy(energy_mev)
        lo, hi, w = self._interp_weights(energy_mev)
        return float((1.0 - w) * self.mean_pairs[lo] + w * self.mean_pairs[hi])

    def _populated_rows(self) -> np.ndarray:
        """Mask of energy rows whose quantile table saw real hits.

        A zero-hit energy point stores an all-zero placeholder row
        (see :meth:`build`); blending it into an interpolation would
        silently bias sampled pair counts toward zero.
        """
        return self.hit_fraction > 0.0

    def sample_pairs(
        self, energy_mev: float, n: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample ``n`` conditional pair counts at one energy.

        The scalar entry to :meth:`sample_pairs_many`.
        """
        self._check_energy(energy_mev)
        return self.sample_pairs_many(np.full(n, float(energy_mev)), rng)

    def sample_pairs_many(
        self, energies_mev, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample one pair count per entry of an energy array.

        Inverse-CDF sampling on the stored quantile table, with the two
        bracketing energy rows of each query blended in log-energy.  A
        draw reads two adjacent quantile columns, so only those four
        table entries are gathered and blended.  Each blend runs
        ``(1 - w) * q_lo + w * q_hi``, so a draw is bit-identical to
        one read from the whole blended row (the test oracle
        ``sample_pairs_blend_rows``); ``q_lo + w * (q_hi - q_lo)``
        would round differently.  Queries bracketed by empty
        (zero-hit) rows snap to the nearest populated row instead of
        blending toward zero, with a warning through the ``repro``
        logger.
        """
        energies = np.atleast_1d(np.asarray(energies_mev, dtype=np.float64))
        if np.any(energies <= 0):
            raise LookupError_("LUT energy query must be positive")
        grid = self.energies_mev
        clipped = np.clip(energies, grid[0], grid[-1])
        hi = np.clip(np.searchsorted(grid, clipped), 1, len(grid) - 1)
        lo = hi - 1
        weight = (np.log(clipped) - np.log(grid[lo])) / (
            np.log(grid[hi]) - np.log(grid[lo])
        )
        populated = self._populated_rows()
        bad = ~(populated[lo] & populated[hi])
        if np.any(bad):
            candidates = np.flatnonzero(populated)
            if len(candidates) == 0:
                raise LookupError_(
                    f"LUT for {self.particle_name!r} has no populated "
                    "energy rows to sample from"
                )
            # prefer the populated bracket endpoint; when both ends are
            # empty, snap to the nearest populated row
            snap = np.where(populated[lo], lo, hi)
            both_empty = bad & ~populated[lo] & ~populated[hi]
            if np.any(both_empty):
                position = lo[both_empty] + weight[both_empty]
                snap[both_empty] = candidates[
                    np.argmin(
                        np.abs(
                            candidates[np.newaxis, :]
                            - position[:, np.newaxis]
                        ),
                        axis=1,
                    )
                ]
            lo = np.where(bad, snap, lo)
            hi = np.where(bad, snap, hi)
            weight = np.where(bad, 0.0, weight)
            _log.warning(
                "empty LUT rows skipped in sampling %s",
                kv(
                    particle=self.particle_name,
                    queries=int(np.count_nonzero(bad)),
                    total=len(energies),
                ),
            )
        n_q = self.quantiles.shape[1]
        u = rng.uniform(0.0, 1.0, size=len(energies))
        positions = u * (n_q - 1)
        lower = np.floor(positions).astype(int)
        upper = np.minimum(lower + 1, n_q - 1)
        frac = positions - lower
        # flat indices of the two bracketing rows' entries
        lo = lo * n_q
        hi = hi * n_q
        keep = 1.0 - weight
        table = self.quantiles
        at_lower = keep * table.take(lo + lower) + weight * table.take(
            hi + lower
        )
        at_upper = keep * table.take(lo + upper) + weight * table.take(
            hi + upper
        )
        return at_lower * (1.0 - frac) + at_upper * frac

    def _check_energy(self, energy_mev: float):
        if energy_mev <= 0:
            raise LookupError_("LUT energy query must be positive")

    # -- normalized series (paper Fig. 4) --------------------------------

    def normalized_yield_series(self):
        """``(energies, mean_pairs / max(mean_pairs))`` -- the Fig. 4 curve."""
        peak = float(np.max(self.mean_pairs))
        if peak <= 0:
            raise LookupError_("LUT has no non-zero yields to normalize")
        return self.energies_mev.copy(), self.mean_pairs / peak

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-python representation for :mod:`repro.io.lutio`."""
        return {
            "kind": "electron_yield_lut",
            "particle_name": self.particle_name,
            "energies_mev": self.energies_mev.tolist(),
            "hit_fraction": self.hit_fraction.tolist(),
            "mean_pairs": self.mean_pairs.tolist(),
            "quantiles": self.quantiles.tolist(),
            "trials_per_energy": self.trials_per_energy,
            "degraded": bool(self.degraded),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ElectronYieldLUT":
        """Inverse of :meth:`to_dict`."""
        if payload.get("kind") != "electron_yield_lut":
            raise ConfigError("payload is not an electron-yield LUT")
        return cls(
            particle_name=payload["particle_name"],
            energies_mev=np.array(payload["energies_mev"]),
            hit_fraction=np.array(payload["hit_fraction"]),
            mean_pairs=np.array(payload["mean_pairs"]),
            quantiles=np.array(payload["quantiles"]),
            trials_per_energy=int(payload.get("trials_per_energy", 0)),
            degraded=bool(payload.get("degraded", False)),
        )


def default_energy_grid(particle_name: str, n_points: int = 13) -> np.ndarray:
    """The paper's Fig. 4 energy range: 0.1 - 100 MeV, log-spaced."""
    if n_points < 2:
        raise ConfigError("need at least two grid points")
    get_particle(particle_name)  # validate the name
    return np.logspace(-1, 2, n_points)
