"""Array-level 3-D Monte Carlo (paper Section 5.1).

For each random particle: find the struck fins by ray/box analysis of
the array layout, convert deposits in *sensitive* fins to collected
charges, look the affected cells' POFs up in the SPICE-characterized
:class:`~repro.sram.PofTable`, and combine them into the event's
total/SEU/MBU failure probabilities (eqs. 4-6).  Averaging over the
batch gives the POF of a particle with that energy.

Two charge-deposition modes (DESIGN.md Section 5):

* ``"lut"`` (paper-faithful) -- the pair count of every struck fin is
  drawn from the device-level :class:`~repro.transport.ElectronYieldLUT`
  built with the single-fin Geant4-substitute, mirroring the paper's
  LUT hand-off between levels.
* ``"direct"`` -- deposits are computed from the actual chord through
  each fin (stopping power + straggling), keeping the array geometry
  and the deposit perfectly consistent.

Execution model (docs/performance.md): a campaign is partitioned into
fixed-size *draw blocks* of :data:`DRAW_BLOCK_SIZE` particles.  Block
``i`` always consumes the ``i``-th child stream spawned off the
caller's generator, and the campaign runs as a one-point
:class:`~repro.ser.fusion.BatchPlan`, which fills each pool task with
whole blocks until it holds at least :data:`TASK_PARTICLES` particles,
runs a task's blocks through one vectorized strike pass
(:meth:`ArraySerSimulator._run_task`) and merges the per-block partial
results in block order -- so for a fixed seed the campaign result is
bit-identical for any ``n_jobs`` and any grouping of blocks into tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..constants import ELEMENTARY_CHARGE_C, SILICON_PAIR_ENERGY_EV
from ..errors import ConfigError
from ..geometry import BoxGrid, RayBatch, chord_lengths
from ..layout import SramArrayLayout
from ..obs import binomial_standard_error, get_logger, kv
from ..physics import (
    ParticleType,
    get_particle,
    sample_deposits_kev,
    sample_pairs,
    sample_rays,
)
from ..physics.sampling import sample_directions
from ..sram import PofTable
from ..transport import ElectronYieldLUT

_log = get_logger(__name__)

DEPOSITION_MODES = ("lut", "direct")

#: Default angular law per particle species: package alphas arrive
#: isotropically, atmospheric protons follow the cosine law.
DEFAULT_DIRECTION_LAWS = {"alpha": "isotropic", "proton": "cosine"}

#: Probabilities are clipped below 1 by this margin so the numerically
#: convenient ``prod * sum(p / (1-p))`` form of eq. 5 stays finite; the
#: induced error is ~1e-12 absolute, far below MC noise.
_ONE_MINUS_EPS = 1.0 - 1.0e-12

#: RNG granularity of a campaign.  Particles are partitioned into draw
#: blocks of this fixed size and each block owns one spawned child
#: stream, so a campaign's random numbers depend only on the seed and
#: ``n_particles`` -- never on the task layout or the worker count.
DRAW_BLOCK_SIZE = 4096

#: Particles per pool task: whole draw blocks fill a task until it
#: holds at least this many.  It never changes results, but a pass
#: holds all its task's rays at once, so it bounds peak memory.
TASK_PARTICLES = 8192


@dataclass(frozen=True)
class ArrayMcConfig:
    """Knobs of the array-level Monte Carlo."""

    deposition_mode: str = "lut"
    margin_nm: float = 100.0
    direction_laws: Optional[Dict[str, str]] = None
    #: Largest tracked failure multiplicity (the last PMF bin absorbs
    #: events with >= this many failed cells).
    max_multiplicity: int = 8

    def __post_init__(self):
        if self.deposition_mode not in DEPOSITION_MODES:
            raise ConfigError(
                f"unknown deposition mode {self.deposition_mode!r}"
            )
        if self.margin_nm < 0:
            raise ConfigError("margin cannot be negative")

    def law_for(self, particle_name: str) -> str:
        laws = self.direction_laws or DEFAULT_DIRECTION_LAWS
        return laws.get(particle_name, "isotropic")


@dataclass(frozen=True)
class ArrayPofResult:
    """POF estimates for one (particle, energy, vdd) MC campaign.

    POF values are per *launched* particle (launch window = array +
    margin); ``*_given_hit`` values condition on the track crossing the
    array bounding box, matching Fig. 8's "the particle definitely hits
    the layout" normalization.
    """

    particle_name: str
    energy_mev: float
    vdd_v: float
    n_particles: int
    n_array_hits: int
    n_fin_strikes: int
    pof_total: float
    pof_seu: float
    pof_mbu: float
    launch_area_cm2: float
    #: Expected failure-count distribution per launched particle:
    #: ``multiplicity_pmf[k]`` is the probability that exactly ``k``
    #: cells fail (k = 1..max; index 0 unused -- misses dominate it).
    multiplicity_pmf: Optional[np.ndarray] = None
    #: True when the campaign lost draw blocks to worker crashes past
    #: the retry budget: the POFs are unbiased means over the blocks
    #: that survived, but ``n_particles`` is smaller than requested, so
    #: convergence standard errors (which scale as ``1/sqrt(n)``) are
    #: correspondingly wider.
    degraded: bool = False
    #: Stratified-sampling metadata (:mod:`repro.ser.adaptive`).  A
    #: shard drawn from a sub-region of the launch window (or a
    #: sub-band of the energy spectrum) carries the stratum's
    #: probability mass in ``weight`` and its name in ``stratum``; its
    #: ``pof_*`` values are then *conditional* on the stratum, and
    #: :meth:`merge` recombines strata as ``sum_s w_s * mean_s`` -- the
    #: exact unbiased estimator for the whole window.  Plain uniform
    #: shards keep ``weight == 1.0`` and ``stratum is None``.
    weight: float = 1.0
    stratum: Optional[str] = None
    #: Set only on results produced by a cross-stratum merge: the
    #: unbiased whole-window hit fraction (``n_array_hits /
    #: n_particles`` would over-count strata that were oversampled) and
    #: the stratified estimator variance ``sum_s w_s^2 p_s (1-p_s) /
    #: n_s`` behind :attr:`standard_error`.
    hit_fraction_weighted: Optional[float] = None
    pof_variance: Optional[float] = None

    @property
    def standard_error(self) -> float:
        """Standard error of ``pof_total`` from this campaign alone.

        A stratified merge carries its exact estimator variance in
        ``pof_variance``, and its square root is used directly.
        Otherwise ``pof_total`` is the mean of ``n_particles`` i.i.d.
        per-event failure probabilities in [0, 1], so the binomial
        bound ``sqrt(p (1 - p) / n)`` is a conservative standard error
        (events contribute fractional probabilities).

        Edge cases return ``nan`` rather than a misleading number:

        * a ``degraded`` result lost draw blocks to worker crashes, and
          a bound over the surviving ``n`` would understate the
          uncertainty of what the caller asked for;
        * a result with no array hit knows ``p`` only as "small", and
          ``p == 0`` would claim SE 0, perfect convergence, exactly
          where the estimate is weakest.
        """
        if self.n_particles < 1:
            raise ConfigError("result has no particles")
        if self.degraded or self.n_array_hits == 0:
            return math.nan
        if self.pof_variance is not None:
            return math.sqrt(max(float(self.pof_variance), 0.0))
        return binomial_standard_error(self.pof_total, self.n_particles)

    @property
    def hit_fraction(self) -> float:
        """Fraction of launched tracks crossing the array bounding box."""
        if self.hit_fraction_weighted is not None:
            return self.hit_fraction_weighted
        return self.n_array_hits / self.n_particles

    def _given_hit(self, pof_value: float) -> float:
        if self.hit_fraction_weighted is None:
            if self.n_array_hits == 0:
                return 0.0
            return pof_value * self.n_particles / self.n_array_hits
        if self.hit_fraction_weighted <= 0.0:
            return 0.0
        return pof_value / self.hit_fraction_weighted

    @property
    def pof_total_given_hit(self) -> float:
        """POF conditional on hitting the array (Fig. 8 normalization)."""
        return self._given_hit(self.pof_total)

    @property
    def mbu_to_seu_ratio(self) -> float:
        """MBU/SEU ratio (paper Fig. 10).

        ``inf`` for an MBU-only campaign (MBU rate with no SEU rate is
        MBU-dominated, not "no MBUs"), ``nan`` when neither event type
        was seen (0/0, ratio undefined).
        """
        if self.pof_seu > 0:
            return self.pof_mbu / self.pof_seu
        return math.inf if self.pof_mbu > 0 else math.nan

    def mean_cluster_size(self) -> float:
        """Expected failed-cell count conditional on an upset."""
        if self.multiplicity_pmf is None:
            raise ConfigError("multiplicity tracking was not enabled")
        ks = np.arange(len(self.multiplicity_pmf))
        mass = float(np.sum(self.multiplicity_pmf[1:]))
        if mass <= 0:
            return 0.0
        return float(np.sum(ks * self.multiplicity_pmf)) / mass

    @classmethod
    def merge(cls, shards: Sequence["ArrayPofResult"]) -> "ArrayPofResult":
        """Combine shard campaigns of one (particle, energy, vdd) point.

        POFs and the multiplicity PMF are particle-count-weighted means;
        hit/strike counts add.  The shards must describe the *same*
        campaign point -- mismatched particle/energy/vdd/launch-window
        shards, or shards whose PMFs were tracked with different
        ``max_multiplicity`` settings, raise :class:`ConfigError`
        instead of silently producing a skewed merge.

        When any shard carries stratified-sampling metadata (``stratum``
        set or ``weight != 1``) the merge switches to the weighted
        estimator: shards are pooled per stratum (in shard order, same
        left-to-right summation as the plain path) and the named strata
        are recombined as ``sum_s w_s * mean_s`` (their weights must sum
        to 1).  Every shard must then name its stratum: plain uniform
        shards do not mix in.  The result carries ``pof_variance`` /
        ``hit_fraction_weighted`` and cannot be merged again (re-pooling
        an already-recombined estimate would double-count the weights).
        """
        shards = list(shards)
        if not shards:
            raise ConfigError("cannot merge an empty list of shard results")
        first = shards[0]

        def pmf_len(result):
            pmf = result.multiplicity_pmf
            return None if pmf is None else len(pmf)

        for shard in shards[1:]:
            if shard.particle_name != first.particle_name:
                raise ConfigError(
                    "cannot merge shards of different particles "
                    f"({first.particle_name!r} vs {shard.particle_name!r})"
                )
            if shard.energy_mev != first.energy_mev:
                raise ConfigError(
                    "cannot merge shards of different energies "
                    f"({first.energy_mev} vs {shard.energy_mev} MeV)"
                )
            if shard.vdd_v != first.vdd_v:
                raise ConfigError(
                    "cannot merge shards of different supply voltages "
                    f"({first.vdd_v} vs {shard.vdd_v} V)"
                )
            if shard.launch_area_cm2 != first.launch_area_cm2:
                raise ConfigError(
                    "cannot merge shards with different launch windows"
                )
            if pmf_len(shard) != pmf_len(first):
                raise ConfigError(
                    "cannot merge shards with mismatched max_multiplicity: "
                    f"PMF lengths {pmf_len(first)} vs {pmf_len(shard)}"
                )

        n_total = sum(shard.n_particles for shard in shards)
        if n_total < 1:
            raise ConfigError("merged shards contain no particles")

        weighted = any(
            shard.stratum is not None
            or shard.weight != 1.0
            or shard.pof_variance is not None
            or shard.hit_fraction_weighted is not None
            for shard in shards
        )
        if weighted:
            return cls._merge_weighted(shards, n_total)

        _, pofs, pmf, hits = _pool(shards)
        return cls(
            particle_name=first.particle_name,
            energy_mev=first.energy_mev,
            vdd_v=first.vdd_v,
            n_particles=n_total,
            n_array_hits=hits,
            n_fin_strikes=sum(shard.n_fin_strikes for shard in shards),
            pof_total=float(pofs[0]),
            pof_seu=float(pofs[1]),
            pof_mbu=float(pofs[2]),
            launch_area_cm2=first.launch_area_cm2,
            multiplicity_pmf=pmf,
            degraded=any(shard.degraded for shard in shards),
        )

    @classmethod
    def _merge_weighted(cls, shards, n_total) -> "ArrayPofResult":
        """Stratified merge: pool per stratum, recombine by weight.

        Estimator: ``pof = sum_s w_s * mean_s`` over the named strata,
        the exact unbiased reweighting of the conditional per-stratum
        means.  Each stratum is pooled by :func:`_pool`, like the plain
        merge, so re-sharding within a stratum never changes a bit.
        """
        first = shards[0]
        for shard in shards:
            if (
                shard.pof_variance is not None
                or shard.hit_fraction_weighted is not None
            ):
                raise ConfigError(
                    "cannot re-merge an already stratified-merged result: "
                    "its strata were recombined and the per-stratum "
                    "weights no longer apply"
                )
            if shard.stratum is None:
                if shard.weight != 1.0:
                    raise ConfigError(
                        "uniform (stratum=None) shards must have weight "
                        f"1.0, got {shard.weight!r}"
                    )
                raise ConfigError(
                    "cannot merge uniform (stratum=None) shards with "
                    "stratified ones: every shard of a stratified "
                    "campaign point names its stratum"
                )

        groups: Dict[str, List["ArrayPofResult"]] = {}
        for shard in shards:  # dict preserves first-appearance order
            groups.setdefault(shard.stratum, []).append(shard)

        stratum_weights = {}
        for name, members in groups.items():
            w = members[0].weight
            for member in members[1:]:
                if member.weight != w:
                    raise ConfigError(
                        f"stratum {name!r} shards disagree on weight "
                        f"({w!r} vs {member.weight!r})"
                    )
            if not 0.0 < w <= 1.0:
                raise ConfigError(
                    f"stratum {name!r} weight {w!r} outside (0, 1]"
                )
            stratum_weights[name] = w
        total_w = sum(stratum_weights.values())
        if not math.isclose(total_w, 1.0, rel_tol=1e-6, abs_tol=1e-9):
            raise ConfigError(
                "stratum weights must sum to 1 over the merged shards "
                f"(got {total_w!r} from {sorted(stratum_weights)}); "
                "merge all strata of a campaign point together"
            )

        pof_vec = np.zeros(3, dtype=np.float64)
        pmf = (
            None
            if first.multiplicity_pmf is None
            else np.zeros(len(first.multiplicity_pmf), dtype=np.float64)
        )
        hit_frac = 0.0
        variance = 0.0
        for name, members in groups.items():
            n_g, pofs_g, pmf_g, hits_g = _pool(members)
            w = stratum_weights[name]
            pof_vec += w * pofs_g
            if pmf is not None:
                pmf = pmf + w * pmf_g
            hit_frac += w * (hits_g / n_g)
            p_g = min(max(float(pofs_g[0]), 0.0), 1.0)
            variance += w * w * p_g * (1.0 - p_g) / n_g

        return cls(
            particle_name=first.particle_name,
            energy_mev=first.energy_mev,
            vdd_v=first.vdd_v,
            n_particles=n_total,
            n_array_hits=sum(shard.n_array_hits for shard in shards),
            n_fin_strikes=sum(shard.n_fin_strikes for shard in shards),
            pof_total=float(pof_vec[0]),
            pof_seu=float(pof_vec[1]),
            pof_mbu=float(pof_vec[2]),
            launch_area_cm2=first.launch_area_cm2,
            multiplicity_pmf=pmf,
            degraded=any(shard.degraded for shard in shards),
            hit_fraction_weighted=float(hit_frac),
            pof_variance=float(variance),
        )

    # -- serialization (shard-journal checkpoints) ------------------------

    def to_dict(self) -> dict:
        """JSON-safe representation (exact: floats round-trip)."""
        pmf = self.multiplicity_pmf
        return {
            "kind": "array_pof_result",
            "particle_name": self.particle_name,
            "energy_mev": float(self.energy_mev),
            "vdd_v": float(self.vdd_v),
            "n_particles": int(self.n_particles),
            "n_array_hits": int(self.n_array_hits),
            "n_fin_strikes": int(self.n_fin_strikes),
            "pof_total": float(self.pof_total),
            "pof_seu": float(self.pof_seu),
            "pof_mbu": float(self.pof_mbu),
            "launch_area_cm2": float(self.launch_area_cm2),
            "multiplicity_pmf": (
                None if pmf is None else np.asarray(pmf).tolist()
            ),
            "degraded": bool(self.degraded),
            "weight": float(self.weight),
            "stratum": self.stratum,
            "hit_fraction_weighted": (
                None
                if self.hit_fraction_weighted is None
                else float(self.hit_fraction_weighted)
            ),
            "pof_variance": (
                None if self.pof_variance is None else float(self.pof_variance)
            ),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ArrayPofResult":
        """Inverse of :meth:`to_dict`."""
        if payload.get("kind") != "array_pof_result":
            raise ConfigError("payload is not an array POF result")
        pmf = payload.get("multiplicity_pmf")
        return cls(
            particle_name=payload["particle_name"],
            energy_mev=float(payload["energy_mev"]),
            vdd_v=float(payload["vdd_v"]),
            n_particles=int(payload["n_particles"]),
            n_array_hits=int(payload["n_array_hits"]),
            n_fin_strikes=int(payload["n_fin_strikes"]),
            pof_total=float(payload["pof_total"]),
            pof_seu=float(payload["pof_seu"]),
            pof_mbu=float(payload["pof_mbu"]),
            launch_area_cm2=float(payload["launch_area_cm2"]),
            multiplicity_pmf=(
                None if pmf is None else np.asarray(pmf, dtype=np.float64)
            ),
            degraded=bool(payload.get("degraded", False)),
            # pre-stratification journals omit these keys entirely
            weight=float(payload.get("weight", 1.0)),
            stratum=payload.get("stratum"),
            hit_fraction_weighted=(
                None
                if payload.get("hit_fraction_weighted") is None
                else float(payload["hit_fraction_weighted"])
            ),
            pof_variance=(
                None
                if payload.get("pof_variance") is None
                else float(payload["pof_variance"])
            ),
        )


def _pool(members):
    """Particle-count-weighted pooling of same-point shard results.

    Returns ``(n, pofs, pmf, hits)``: the particle total, the mean
    ``(pof_total, pof_seu, pof_mbu)``, the mean multiplicity PMF
    (``None`` when untracked) and the summed array hits.  One
    vectorized pass over the shard axis; ``np.cumsum`` accumulates
    strictly left-to-right (never pairwise like ``np.sum``), so the
    float summation order -- and therefore every bit of the result --
    matches the historical per-attribute Python loops.
    """
    n = sum(member.n_particles for member in members)
    if n < 1:
        raise ConfigError(f"stratum {members[0].stratum!r} has no particles")
    counts = np.array(
        [member.n_particles for member in members], dtype=np.float64
    )
    stack = np.array(
        [
            [member.pof_total, member.pof_seu, member.pof_mbu]
            for member in members
        ],
        dtype=np.float64,
    )
    pofs = np.cumsum(stack * counts[:, np.newaxis], axis=0)[-1] / n
    if members[0].multiplicity_pmf is None:
        pmf = None
    else:
        pmf_stack = np.stack(
            [member.multiplicity_pmf for member in members]
        ).astype(np.float64, copy=False)
        pmf = np.cumsum(pmf_stack * counts[:, np.newaxis], axis=0)[-1] / n
    hits = sum(member.n_array_hits for member in members)
    return n, pofs, pmf, hits


def _sample_stratum_rays(n, rng, rects, z, law) -> RayBatch:
    """Launch rays uniformly over a union of disjoint rectangles.

    ``rects`` is a sequence of ``(x_lo, x_hi, y_lo, y_hi)`` launch-plane
    rectangles making up one position stratum; a rectangle is picked
    per ray with probability proportional to its area, then the origin
    is uniform within it -- i.e. uniform over the union.  Directions
    use the same angular law as unstratified sampling.
    """
    rects = np.asarray(rects, dtype=np.float64).reshape(-1, 4)
    areas = (rects[:, 1] - rects[:, 0]) * (rects[:, 3] - rects[:, 2])
    total = float(np.sum(areas))
    if total <= 0.0:
        raise ConfigError("position stratum has zero launch area")
    if len(rects) == 1:
        idx = np.zeros(n, dtype=np.intp)
    else:
        idx = rng.choice(len(rects), size=n, p=areas / total)
    u = rng.random((n, 2))
    origins = np.empty((n, 3), dtype=np.float64)
    origins[:, 0] = rects[idx, 0] + u[:, 0] * (rects[idx, 1] - rects[idx, 0])
    origins[:, 1] = rects[idx, 2] + u[:, 1] * (rects[idx, 3] - rects[idx, 2])
    origins[:, 2] = z
    return RayBatch(origins, sample_directions(n, rng, law))


class _Strikes(NamedTuple):
    """Per-strike arrays of one :meth:`ArraySerSimulator._gather` pass.

    Batch ``b`` crossed the array bounding box with ``hits[b]`` tracks
    and owns strikes ``strike_bounds[b]:strike_bounds[b + 1]`` and
    events ``event_bounds[b]:event_bounds[b + 1]``.
    """

    hits: np.ndarray
    strike_bounds: np.ndarray
    event_bounds: np.ndarray
    event_of: np.ndarray
    cell_of: np.ndarray
    strike_of: np.ndarray
    charges: np.ndarray

    @classmethod
    def empty(cls, hits) -> "_Strikes":
        """A pass whose batches struck no sensitive fin."""
        bounds = np.zeros(len(hits) + 1, dtype=np.intp)
        none = np.zeros(0, dtype=np.intp)
        return cls(hits, bounds, bounds, none, none, none, np.zeros(0))


def array_shard_encode(result) -> list:
    """JSON-safe encoding of one pool task's draw-block results."""
    return [block.to_dict() for block in result]


def array_shard_decode(payload: list) -> list:
    """Inverse of :func:`array_shard_encode` (exact round-trip)."""
    return [ArrayPofResult.from_dict(entry) for entry in payload]


class ArraySerSimulator:
    """Runs array-level strike campaigns against one layout + POF table."""

    def __init__(
        self,
        layout: SramArrayLayout,
        pof_table: PofTable,
        yield_luts: Optional[Dict[str, ElectronYieldLUT]] = None,
        config: Optional[ArrayMcConfig] = None,
    ):
        self.layout = layout
        self.pof_table = pof_table
        self.yield_luts = dict(yield_luts) if yield_luts else {}
        self.config = config if config is not None else ArrayMcConfig()
        if self.config.deposition_mode == "lut" and not self.yield_luts:
            raise ConfigError(
                "deposition mode 'lut' needs electron-yield LUTs "
                "(build them with ElectronYieldLUT.build)"
            )
        # flat views used by the kernel: only sensitive fins can produce
        # a failure, so the ray-casting works on that subset directly.
        sensitive = self.layout.fin_strike >= 0
        self._sensitive_boxes = self.layout.packed_boxes[sensitive]
        self._fin_grid = BoxGrid(self._sensitive_boxes)
        self._sens_cell = self.layout.fin_cell[sensitive]
        self._sens_strike = self.layout.fin_strike[sensitive]
        self._array_bbox = self.layout.bounding_box()
        # chunk-invariant kernel inputs, hoisted out of the hot loop
        self._bbox_packed = np.concatenate(
            [self._array_bbox.lo, self._array_bbox.hi]
        )[np.newaxis, :]
        self._window = self.layout.launch_window(self.config.margin_nm)

    def run(
        self,
        particle: ParticleType,
        energy_mev: float,
        vdd_v: float,
        n_particles: int,
        rng: np.random.Generator,
        n_jobs: int = 1,
        retry=None,
        journal=None,
    ) -> ArrayPofResult:
        """Monte Carlo POF of one (particle, energy, vdd) point.

        ``n_jobs`` (1 = inline, 0 = one per CPU), ``retry`` and
        ``journal`` are the knobs of :func:`repro.parallel.parallel_map`:
        a :class:`~repro.parallel.RetryPolicy` for transient worker loss
        and an optional :class:`~repro.parallel.ShardJournal`
        checkpoint (construct it with :func:`array_shard_encode` /
        :func:`array_shard_decode`) so an interrupted campaign resumes
        bit-identically.  Under ``allow_partial`` a campaign that lost
        draw blocks returns the survivors' merge flagged ``degraded``.
        """
        return self._run_point(
            particle,
            energy_mev,
            vdd_v,
            n_particles,
            rng,
            n_jobs,
            retry,
            journal,
        )

    def run_spectrum(
        self,
        particle: ParticleType,
        spectrum,
        vdd_v: float,
        n_particles: int,
        rng: np.random.Generator,
        e_min_mev: Optional[float] = None,
        e_max_mev: Optional[float] = None,
        n_jobs: int = 1,
        retry=None,
        journal=None,
    ) -> ArrayPofResult:
        """Continuous-spectrum campaign: each track gets its own energy.

        The exact alternative to the paper's eq. 8 discretization --
        energies are sampled from the spectrum's flux density, so the
        averaged POF folds the spectrum with no binning error.  The
        result's ``pof_*`` values are flux-weighted means; multiply by
        ``spectrum.integral_flux(e_min, e_max) * launch_area`` for the
        event rate (see :func:`repro.ser.fit.fit_from_spectrum_run`).
        """
        e_min = e_min_mev if e_min_mev is not None else spectrum.e_min_mev
        e_max = e_max_mev if e_max_mev is not None else spectrum.e_max_mev
        return self._run_point(
            particle,
            float(np.sqrt(e_min * e_max)),
            vdd_v,
            n_particles,
            rng,
            n_jobs,
            retry,
            journal,
            spectrum=spectrum,
            e_range=(float(e_min), float(e_max)),
        )

    # -- campaign execution ----------------------------------------------------

    def _run_point(
        self,
        particle,
        energy_mev,
        vdd_v,
        n_particles,
        rng,
        n_jobs,
        retry,
        journal,
        **fields,
    ) -> ArrayPofResult:
        """Run one campaign as a one-point plan.

        A merge that lost no draw blocks clears the journal.
        """
        from .fusion import BatchPlan, CampaignPoint

        point = CampaignPoint.uniform(
            particle.name, energy_mev, vdd_v, n_particles, rng, **fields
        )
        (merged,) = BatchPlan(
            self,
            [point],
            n_jobs=n_jobs,
            retry=retry,
            journal=journal,
        ).execute()
        if journal is not None and not merged.degraded:
            journal.clear()
        return merged

    def _run_task(self, task) -> List[ArrayPofResult]:
        """A pool task's draw blocks ``(point, size, seed)``, as one pass.

        Each block draws its energies, rays and pair counts from its own
        generator, in the order a lone block always has (:meth:`_draw`),
        so its result depends only on its point, size and seed, never
        on the task that ran it.  The strike stages then run once over
        the task's rows: :meth:`_gather`, :meth:`_touched` (one POF
        query per run of same-Vdd blocks) and :meth:`_combine`, which
        sums each block over its own contiguous slice of events.

        A point with a ``stratum`` dict (see :mod:`repro.ser.adaptive`)
        draws from that one sampling stratum: ``rects`` confines launch
        positions to a union of launch-plane rectangles and ``e_range``
        overrides the spectrum sub-band.  The block result then reports
        the stratum's name and probability ``weight`` so
        :meth:`ArrayPofResult.merge` can reweight it exactly; its POF
        values are conditional on the stratum (``launch_area_cm2``
        still names the full window).
        """
        batches = [self._draw(point, size, seed) for point, size, seed in task]
        strikes = self._gather(batches)
        event_of, _, pof, row_bounds = self._touched(
            strikes, [point.vdd_v for point, _, _ in task]
        )
        sums, pmfs = self._combine(event_of, pof, row_bounds)
        n_strikes = np.diff(strikes.strike_bounds)
        launch_area = self._window[3]
        results = []
        for b, (point, size, _) in enumerate(task):
            hits, block_strikes = int(strikes.hits[b]), int(n_strikes[b])
            _log.debug(
                "array-mc block %s",
                kv(
                    particle=point.particle_name,
                    energy_mev=point.energy_mev,
                    vdd=point.vdd_v,
                    particles=size,
                    hits=hits,
                    strikes=block_strikes,
                ),
            )
            stratum = point.stratum
            results.append(
                ArrayPofResult(
                    particle_name=point.particle_name,
                    energy_mev=point.energy_mev,
                    vdd_v=point.vdd_v,
                    n_particles=size,
                    n_array_hits=hits,
                    n_fin_strikes=block_strikes,
                    pof_total=float(sums[b, 0]) / size,
                    pof_seu=float(sums[b, 1]) / size,
                    pof_mbu=float(sums[b, 2]) / size,
                    launch_area_cm2=launch_area,
                    multiplicity_pmf=pmfs[b] / size,
                    weight=(
                        1.0 if stratum is None else float(stratum["weight"])
                    ),
                    stratum=(None if stratum is None else stratum["name"]),
                )
            )
        return results

    def _draw(self, point, size: int, seed):
        """One draw block's ``(particle, energy, rays, rng)``, own stream.

        Spectrum energies come first, then the rays; the generator is
        returned for the block's pair counts, drawn by :meth:`_gather`.
        """
        rng = np.random.default_rng(seed)
        x_range, y_range, z, _ = self._window
        law = point.direction_law or self.config.law_for(point.particle_name)
        stratum = point.stratum
        if point.let_kev_per_nm is not None:
            # a LET beam names no species: the kernel's per-strike
            # "energy" carries the LET instead (see _pairs_for_strikes)
            particle, energy = None, point.let_kev_per_nm
        else:
            particle = get_particle(point.particle_name)
            energy = point.energy_mev
            if point.spectrum is not None:
                e_min, e_max = point.e_range
                if stratum is not None and stratum.get("e_range") is not None:
                    e_min, e_max = stratum["e_range"]
                energy = point.spectrum.sample_energies(
                    size, rng, e_min_mev=e_min, e_max_mev=e_max
                )
        if stratum is not None and stratum.get("rects") is not None:
            rays = _sample_stratum_rays(size, rng, stratum["rects"], z, law)
        else:
            rays = sample_rays(size, rng, x_range, y_range, z, law)
        return particle, energy, rays, rng

    # -- kernel ----------------------------------------------------------------

    def _gather(self, batches) -> _Strikes:
        """Front stage: the rays of several batches -> per-strike charges.

        ``batches`` holds one ``(particle, energy, rays, rng)`` per
        batch (``energy`` a scalar or one value per ray).  The bounding
        box prefilter and the fin chords run once over every batch's
        rays; each batch then draws its strikes' pair counts from its
        own generator.  Events are the struck tracks numbered in ray
        order across the batches, and strikes come out ray-major with
        fins ascending -- the order a generator is drawn in, one draw
        per strike.
        """
        sizes = [len(rays) for _, _, rays, _ in batches]
        ray_bounds = np.concatenate(([0], np.cumsum(sizes)))
        rays = RayBatch.concatenate([rays for _, _, rays, _ in batches])
        # Cheap prefilter: only tracks crossing the array bounding box
        # can strike a fin; its count is the result's n_array_hits.
        array_hits = chord_lengths(rays, self._bbox_packed)[:, 0] > 0.0
        hit_bounds = np.searchsorted(np.flatnonzero(array_hits), ray_bounds)
        hits = np.diff(hit_bounds)
        if hit_bounds[-1] == 0:
            return _Strikes.empty(hits)

        # RayBatch renormalizes: chords come from these directions.
        # ``compress`` copies the rows several times faster than a
        # boolean index, and copies the same values.
        hit_rays = RayBatch(
            rays.origins.compress(array_hits, axis=0),
            rays.directions.compress(array_hits, axis=0),
        )
        ray_idx, fin_idx, chord_vals = self._fin_grid.chords(hit_rays)
        if len(fin_idx) == 0:
            return _Strikes.empty(hits)
        strike_bounds = np.searchsorted(ray_idx, hit_bounds)
        struck, event_of = np.unique(ray_idx, return_inverse=True)
        per_ray_energy = np.concatenate(
            [
                np.broadcast_to(np.asarray(energy, dtype=np.float64), (size,))
                for (_, energy, _, _), size in zip(batches, sizes)
            ]
        ).compress(array_hits)
        strike_energies = per_ray_energy[ray_idx]

        charges = []
        for b, (particle, _, _, rng) in enumerate(batches):
            lo, hi = strike_bounds[b], strike_bounds[b + 1]
            if lo < hi:
                pairs = self._pairs_for_strikes(
                    particle, strike_energies[lo:hi], chord_vals[lo:hi], rng
                )
                charges.append(pairs * ELEMENTARY_CHARGE_C)
        return _Strikes(
            hits=hits,
            strike_bounds=strike_bounds,
            event_bounds=np.searchsorted(struck, hit_bounds),
            event_of=event_of,
            cell_of=self._sens_cell[fin_idx],
            strike_of=self._sens_strike[fin_idx],
            charges=np.concatenate(charges),
        )

    def _touched(self, strikes: _Strikes, vdds):
        """Strikes -> the POF of each (event, cell) that collected charge.

        Returns ``(event_of, cell_of, pof, row_bounds)``: one row per
        touched (event, cell) pair, event-major with cells ascending,
        and batch ``b``'s rows at ``row_bounds[b]:row_bounds[b + 1]``.
        ``vdds`` holds each batch's supply voltage; the POF table is
        queried once per run of consecutive same-Vdd batches.  Never
        allocates the dense ``(n_events, n_cells, 3)`` charge tensor of
        the reference kernel (``process_batch_dense`` in
        ``tests/array_oracle.py``): strikes are folded into
        per-(event, cell) charge triples via ``np.unique``, and the
        table is queried only on the touched rows.
        """
        # one row per touched (event, cell) pair; np.unique sorts the
        # keys, so rows come out event-major with cells ascending --
        # the same per-event cell order the dense kernel reduces in.
        n_cells = self.layout.n_cells
        key = strikes.event_of.astype(np.int64) * n_cells + strikes.cell_of
        unique_keys, inverse = np.unique(key, return_inverse=True)
        # sums each (row, node) bin in strike order, as the oracle's add.at
        fold = np.bincount(
            inverse * 3 + strikes.strike_of,
            weights=strikes.charges,
            minlength=3 * len(unique_keys),
        )
        touched = (fold[0::3] > 0.0) | (fold[1::3] > 0.0) | (fold[2::3] > 0.0)
        keys = unique_keys[touched]
        charges = fold.reshape(-1, 3).compress(touched, axis=0)
        event_of = keys // n_cells
        row_bounds = np.searchsorted(event_of, strikes.event_bounds)
        pof = np.empty(len(keys), dtype=np.float64)
        first = 0
        for b in range(1, len(vdds) + 1):
            if b < len(vdds) and vdds[b] == vdds[first]:
                continue
            lo, hi = row_bounds[first], row_bounds[b]
            if lo < hi:
                pof[lo:hi] = self.pof_table.query(vdds[first], charges[lo:hi])
            first = b
        return event_of, keys % n_cells, pof, row_bounds

    def _combine(self, event_of, pof, row_bounds):
        """Eqs. 4-6 and the multiplicity PMF, summed per batch.

        Segmented reductions over each event's touched rows (from
        :meth:`_touched`); every batch then sums its own slice of
        events.  Returns ``(sums, pmfs)``: ``sums[b]`` holds batch
        ``b``'s summed total/SEU/MBU probabilities and ``pmfs[b]`` its
        summed multiplicity PMF with the k=0 bin zeroed (misses
        dominate it; it is not tracked).
        """
        n_batches = len(row_bounds) - 1
        sums = np.zeros((n_batches, 3), dtype=np.float64)
        pmfs = np.zeros(
            (n_batches, self.config.max_multiplicity + 1), dtype=np.float64
        )
        if len(pof) == 0:
            return sums, pmfs
        # segmented eqs. 4-6 over each event's touched cells
        starts = np.flatnonzero(
            np.r_[True, event_of[1:] != event_of[:-1]]
        )
        total = 1.0 - np.multiply.reduceat(1.0 - pof, starts)
        clipped = np.minimum(pof, _ONE_MINUS_EPS)
        survive = 1.0 - clipped
        seu = np.multiply.reduceat(survive, starts) * np.add.reduceat(
            clipped / survive, starts
        )
        mbu = np.maximum(total - seu, 0.0)
        pmf = self._sparse_multiplicity(pof, starts)

        event_bounds = np.searchsorted(starts, row_bounds)
        for b in range(n_batches):
            lo, hi = event_bounds[b], event_bounds[b + 1]
            if lo < hi:
                sums[b] = [np.sum(part[lo:hi]) for part in (total, seu, mbu)]
                pmfs[b] = pmf[lo:hi].sum(axis=0)
        pmfs[:, 0] = 0.0
        return sums, pmfs

    def _sparse_multiplicity(self, pof, starts) -> np.ndarray:
        """Poisson-binomial PMF of each variable-size event group.

        The oracle's dense dynamic program (``multiplicity_pmf``) run
        rank-by-rank: step ``r`` folds the ``r``-th touched cell of
        every event in at once, so the loop length is the largest
        per-event cell count, not the cell total.  Returns one PMF row
        per group.
        """
        max_k = self.config.max_multiplicity
        n_groups = len(starts)
        sizes = np.diff(np.append(starts, len(pof)))
        group_of = np.repeat(np.arange(n_groups), sizes)
        rank = np.arange(len(pof)) - starts[group_of]

        pmf = np.zeros((n_groups, max_k + 1), dtype=np.float64)
        pmf[:, 0] = 1.0
        for r in range(int(sizes.max())):
            selected = rank == r
            rows = group_of[selected]
            p = pof[selected][:, np.newaxis]
            block = pmf[rows]
            shifted = np.zeros_like(block)
            shifted[:, 1:] = block[:, :-1]
            # the top bin absorbs overflow (k >= max_k stays in place)
            shifted[:, -1] += block[:, -1]
            pmf[rows] = block * (1.0 - p) + shifted * p
        return pmf

    def _pairs_for_strikes(self, particle, strike_energies, chord_nm, rng):
        """Electron-hole pair counts for each struck sensitive fin.

        ``strike_energies`` is the per-strike particle energy array
        (constant for mono-energetic campaigns, per-track for spectrum
        sampling).  A LET beam (``particle is None``) passes its LET
        [keV/nm] there instead and deposits exactly ``LET x chord``:
        no straggling and no yield LUT, whatever the deposition mode.
        """
        if particle is None:
            return strike_energies * chord_nm * 1.0e3 / SILICON_PAIR_ENERGY_EV
        if self.config.deposition_mode == "direct":
            deposits = sample_deposits_kev(
                particle, strike_energies, chord_nm, rng
            )
            return sample_pairs(deposits, rng)
        lut = self.yield_luts.get(particle.name)
        if lut is None:
            raise ConfigError(
                f"no electron-yield LUT registered for {particle.name!r}"
            )
        return lut.sample_pairs_many(strike_energies, rng)
