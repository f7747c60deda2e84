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
caller's generator, blocks are bundled into pool tasks of roughly
``chunk_size`` particles, and the per-block partial results are merged
in block order -- so for a fixed seed the campaign result is
bit-identical for any ``n_jobs`` and any ``chunk_size``.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..constants import ELEMENTARY_CHARGE_C
from ..errors import ConfigError, WorkerCrashError
from ..geometry import RayBatch, chord_lengths
from ..layout import SramArrayLayout
from ..obs import get_logger, get_registry, kv
from ..obs.convergence import record_bin
from ..parallel import parallel_map, spawn_seeds
from ..physics import (
    ParticleType,
    sample_deposits_kev,
    sample_pairs,
    sample_rays,
)
from ..physics.sampling import sample_directions
from ..sram import PofTable
from ..transport import ElectronYieldLUT
from .pof import _ONE_MINUS_EPS, combine, multiplicity_pmf

_log = get_logger(__name__)

DEPOSITION_MODES = ("lut", "direct")

#: Default angular law per particle species: package alphas arrive
#: isotropically, atmospheric protons follow the cosine law.
DEFAULT_DIRECTION_LAWS = {"alpha": "isotropic", "proton": "cosine"}

#: RNG granularity of a campaign.  Particles are partitioned into draw
#: blocks of this fixed size and each block owns one spawned child
#: stream, so a campaign's random numbers depend only on the seed and
#: ``n_particles`` -- never on ``chunk_size`` or the worker count.
DRAW_BLOCK_SIZE = 4096


@dataclass(frozen=True)
class ArrayMcConfig:
    """Knobs of the array-level Monte Carlo."""

    deposition_mode: str = "lut"
    margin_nm: float = 100.0
    #: Target particles per pool task (rounded up to whole draw
    #: blocks).  A scheduling knob only -- it never changes results.
    chunk_size: int = 8192
    direction_laws: Optional[Dict[str, str]] = None
    #: Largest tracked failure multiplicity (the last PMF bin absorbs
    #: events with >= this many failed cells).
    max_multiplicity: int = 8
    #: Worker processes for campaigns (1 = inline, 0 = one per CPU).
    n_jobs: int = 1
    #: Warm-pool leasing / shared-memory payload plane overrides for
    #: the campaign maps (``None`` = process defaults; see
    #: :mod:`repro.parallel.pool` / :mod:`repro.parallel.shm`).
    #: Execution knobs only -- results are bit-identical either way.
    warm_pool: Optional[bool] = None
    shm: Optional[bool] = None

    def __post_init__(self):
        if self.deposition_mode not in DEPOSITION_MODES:
            raise ConfigError(
                f"unknown deposition mode {self.deposition_mode!r}"
            )
        if self.margin_nm < 0:
            raise ConfigError("margin cannot be negative")
        if self.chunk_size < 1:
            raise ConfigError("chunk size must be positive")
        if self.n_jobs < 0:
            raise ConfigError("n_jobs cannot be negative (0 means auto)")

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
    #: n_s`` consumed by
    #: :func:`repro.analysis.convergence.pof_standard_error`.
    hit_fraction_weighted: Optional[float] = None
    pof_variance: Optional[float] = None

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
    def pof_seu_given_hit(self) -> float:
        return self._given_hit(self.pof_seu)

    @property
    def pof_mbu_given_hit(self) -> float:
        return self._given_hit(self.pof_mbu)

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
        left-to-right summation as the plain path), the named strata are
        recombined as ``sum_s w_s * mean_s`` (their weights must sum to
        1), and any plain uniform shards are folded in by particle
        count.  The result carries ``pof_variance`` /
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

        # one vectorized pass over the shard axis; np.cumsum accumulates
        # strictly left-to-right (never pairwise like np.sum), so the
        # float summation order -- and therefore every bit of the
        # result -- matches the historical per-attribute Python loops.
        weights = np.array(
            [shard.n_particles for shard in shards], dtype=np.float64
        )
        pof_stack = np.array(
            [
                [shard.pof_total, shard.pof_seu, shard.pof_mbu]
                for shard in shards
            ],
            dtype=np.float64,
        )
        pof_total, pof_seu, pof_mbu = (
            np.cumsum(pof_stack * weights[:, np.newaxis], axis=0)[-1] / n_total
        )

        if first.multiplicity_pmf is None:
            pmf = None
        else:
            pmf_stack = np.stack(
                [shard.multiplicity_pmf for shard in shards]
            ).astype(np.float64, copy=False)
            pmf = (
                np.cumsum(pmf_stack * weights[:, np.newaxis], axis=0)[-1]
                / n_total
            )

        return cls(
            particle_name=first.particle_name,
            energy_mev=first.energy_mev,
            vdd_v=first.vdd_v,
            n_particles=n_total,
            n_array_hits=sum(shard.n_array_hits for shard in shards),
            n_fin_strikes=sum(shard.n_fin_strikes for shard in shards),
            pof_total=float(pof_total),
            pof_seu=float(pof_seu),
            pof_mbu=float(pof_mbu),
            launch_area_cm2=first.launch_area_cm2,
            multiplicity_pmf=pmf,
            degraded=any(shard.degraded for shard in shards),
        )

    @classmethod
    def _merge_weighted(cls, shards, n_total) -> "ArrayPofResult":
        """Stratified merge: pool per stratum, recombine by weight.

        Estimator: ``pof = sum_s w_s * mean_s`` over the named strata
        (exact unbiased reweighting of the conditional per-stratum
        means), convexly combined by particle count with the pooled
        mean of any plain uniform shards.  Per-group pooling uses the
        same left-to-right ``np.cumsum`` summation as the plain merge,
        so re-sharding within a stratum never changes a bit.
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
            if shard.stratum is None and shard.weight != 1.0:
                raise ConfigError(
                    "uniform (stratum=None) shards must have weight 1.0, "
                    f"got {shard.weight!r}"
                )

        groups: Dict[Optional[str], List["ArrayPofResult"]] = {}
        for shard in shards:  # dict preserves first-appearance order
            groups.setdefault(shard.stratum, []).append(shard)

        def pool(members):
            """Particle-count-weighted pooling, exact cumsum order."""
            n = sum(member.n_particles for member in members)
            if n < 1:
                raise ConfigError(
                    f"stratum {members[0].stratum!r} has no particles"
                )
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
            if first.multiplicity_pmf is None:
                pmf = None
            else:
                pmf_stack = np.stack(
                    [member.multiplicity_pmf for member in members]
                ).astype(np.float64, copy=False)
                pmf = (
                    np.cumsum(pmf_stack * counts[:, np.newaxis], axis=0)[-1]
                    / n
                )
            hits = sum(member.n_array_hits for member in members)
            return n, pofs, pmf, hits

        uniform = groups.pop(None, None)
        if not groups:
            raise ConfigError(
                "weighted merge needs at least one named stratum"
            )
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

        pmf_shape = (
            None
            if first.multiplicity_pmf is None
            else np.zeros(len(first.multiplicity_pmf), dtype=np.float64)
        )
        n_str = 0
        pof_str = np.zeros(3, dtype=np.float64)
        pmf_str = pmf_shape
        hit_str = 0.0
        var_str = 0.0
        for name, members in groups.items():
            n_g, pofs_g, pmf_g, hits_g = pool(members)
            w = stratum_weights[name]
            n_str += n_g
            pof_str += w * pofs_g
            if pmf_str is not None:
                pmf_str = pmf_str + w * pmf_g
            hit_str += w * (hits_g / n_g)
            p_g = min(max(float(pofs_g[0]), 0.0), 1.0)
            var_str += w * w * p_g * (1.0 - p_g) / n_g

        if uniform is not None:
            n_u, pofs_u, pmf_u, hits_u = pool(uniform)
            lam = n_u / (n_u + n_str)
            pof_vec = lam * pofs_u + (1.0 - lam) * pof_str
            pmf = (
                None
                if pmf_str is None
                else lam * pmf_u + (1.0 - lam) * pmf_str
            )
            hit_frac = lam * (hits_u / n_u) + (1.0 - lam) * hit_str
            p_u = min(max(float(pofs_u[0]), 0.0), 1.0)
            variance = (
                lam * lam * p_u * (1.0 - p_u) / n_u
                + (1.0 - lam) * (1.0 - lam) * var_str
            )
        else:
            pof_vec = pof_str
            pmf = pmf_str
            hit_frac = hit_str
            variance = var_str

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


def _draw_blocks(n_particles: int) -> List[int]:
    """The fixed partition of a campaign into draw-block sizes."""
    full, rest = divmod(n_particles, DRAW_BLOCK_SIZE)
    blocks = [DRAW_BLOCK_SIZE] * full
    if rest:
        blocks.append(rest)
    return blocks


def _bundle_tasks(blocks, seeds, chunk_size: int):
    """Group (size, seed) draw blocks into pool tasks of ~chunk_size."""
    per_task = max(1, math.ceil(chunk_size / DRAW_BLOCK_SIZE))
    pairs = list(zip(blocks, seeds))
    return [pairs[i : i + per_task] for i in range(0, len(pairs), per_task)]


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


def _array_task(payload, task):
    """Pool worker: run the task's draw blocks, in order."""
    simulator = payload["simulator"]
    return [simulator._run_block(payload, size, seed) for size, seed in task]


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
        self._sens_cell = self.layout.fin_cell[sensitive]
        self._sens_strike = self.layout.fin_strike[sensitive]
        self._array_bbox = self.layout.bounding_box()
        # chunk-invariant kernel inputs, hoisted out of the hot loop
        self._bbox_packed = np.concatenate(
            [self._array_bbox.lo, self._array_bbox.hi]
        )[np.newaxis, :]
        self._empty_pmf = np.zeros(self.config.max_multiplicity + 1)

    def run(
        self,
        particle: ParticleType,
        energy_mev: float,
        vdd_v: float,
        n_particles: int,
        rng: np.random.Generator,
        retry=None,
        journal=None,
    ) -> ArrayPofResult:
        """Monte Carlo POF of one (particle, energy, vdd) point.

        ``retry`` / ``journal`` are the fault-tolerance knobs of
        :func:`repro.parallel.parallel_map`: a
        :class:`~repro.parallel.RetryPolicy` for transient worker loss
        and an optional :class:`~repro.parallel.ShardJournal`
        checkpoint (construct it with :func:`array_shard_encode` /
        :func:`array_shard_decode`) so an interrupted campaign resumes
        bit-identically.
        """
        if energy_mev <= 0:
            raise ConfigError("energy must be positive")
        return self._run_campaign(
            particle,
            float(energy_mev),
            vdd_v,
            n_particles,
            rng,
            spectrum=None,
            e_range=None,
            retry=retry,
            journal=journal,
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
        return self._run_campaign(
            particle,
            float(np.sqrt(e_min * e_max)),
            vdd_v,
            n_particles,
            rng,
            spectrum=spectrum,
            e_range=(float(e_min), float(e_max)),
            retry=retry,
            journal=journal,
        )

    # -- campaign execution ----------------------------------------------------

    def _run_campaign(
        self,
        particle,
        energy_mev,
        vdd_v,
        n_particles,
        rng,
        spectrum,
        e_range,
        retry=None,
        journal=None,
    ) -> ArrayPofResult:
        if n_particles < 1:
            raise ConfigError("need at least one particle")

        window = self.layout.launch_window(self.config.margin_nm)
        blocks = _draw_blocks(n_particles)
        seeds = spawn_seeds(rng, len(blocks))
        tasks = _bundle_tasks(blocks, seeds, self.config.chunk_size)
        payload = {
            "simulator": self,
            "particle": particle,
            "energy_mev": float(energy_mev),
            "vdd_v": float(vdd_v),
            "window": window,
            "law": self.config.law_for(particle.name),
            "spectrum": spectrum,
            "e_range": e_range,
        }

        metrics = get_registry()
        t0 = time.perf_counter()
        with metrics.time("array_mc.run"):
            nested = parallel_map(
                _array_task,
                tasks,
                payload=payload,
                n_jobs=self.config.n_jobs,
                label="array_mc",
                retry=retry,
                journal=journal,
                # ~2 us per particle: tiny campaigns skip pool spin-up
                cost_hint_s=2.0e-6 * n_particles / max(len(tasks), 1),
                warm_pool=self.config.warm_pool,
                shm=self.config.shm,
            )
            lost = sum(1 for group in nested if group is None)
            with metrics.time("array_mc.merge"):
                block_results = [
                    result
                    for group in nested
                    if group is not None
                    for result in group
                ]
                if not block_results:
                    raise WorkerCrashError(
                        "array MC campaign lost every draw block to "
                        "worker crashes; nothing to merge"
                    )
                merged = ArrayPofResult.merge(block_results)
            if lost:
                merged = dataclasses.replace(merged, degraded=True)
                _log.warning(
                    "array MC campaign degraded %s",
                    kv(
                        particle=particle.name,
                        energy_mev=float(energy_mev),
                        vdd=float(vdd_v),
                        lost_tasks=lost,
                        total_tasks=len(tasks),
                        particles=f"{merged.n_particles}/{n_particles}",
                    ),
                )
            elif journal is not None:
                journal.clear()
        elapsed = time.perf_counter() - t0

        if metrics.enabled:
            self._record_run_metrics(
                metrics,
                merged.n_particles,
                merged.n_array_hits,
                merged.n_fin_strikes,
                elapsed,
            )
        record_bin(
            "array-mc",
            trials=int(merged.n_particles),
            pof=float(merged.pof_total),
            particle=merged.particle_name,
            vdd_v=float(merged.vdd_v),
            energy_mev=(
                float(merged.energy_mev)
                if merged.energy_mev is not None
                else None
            ),
        )
        return merged

    def _run_block(self, payload, block_size: int, seed) -> ArrayPofResult:
        """One draw block: sample, strike, combine -- with its own stream.

        An optional ``payload["stratum"]`` dict (see
        :mod:`repro.ser.adaptive`) restricts the block to one sampling
        stratum: ``rects`` confines launch positions to a union of
        launch-plane rectangles and ``e_range`` overrides the spectrum
        sub-band.  The block result then reports the stratum's name and
        probability ``weight`` so :meth:`ArrayPofResult.merge` can
        reweight it exactly; its POF values are conditional on the
        stratum (``launch_area_cm2`` still names the full window).
        """
        rng = np.random.default_rng(seed)
        x_range, y_range, z, launch_area = payload["window"]
        stratum = payload.get("stratum")
        spectrum = payload["spectrum"]
        if spectrum is not None:
            e_min, e_max = payload["e_range"]
            if stratum is not None and stratum.get("e_range") is not None:
                e_min, e_max = stratum["e_range"]
            energy = spectrum.sample_energies(
                block_size, rng, e_min_mev=e_min, e_max_mev=e_max
            )
        else:
            energy = payload["energy_mev"]
        if stratum is not None and stratum.get("rects") is not None:
            rays = _sample_stratum_rays(
                block_size, rng, stratum["rects"], z, payload["law"]
            )
        else:
            rays = sample_rays(
                block_size, rng, x_range, y_range, z, payload["law"]
            )
        totals, seus, mbus, hits, strikes, pmf = self._process_batch(
            payload["particle"], energy, payload["vdd_v"], rays, rng
        )
        _log.debug(
            "array-mc block %s",
            kv(
                particle=payload["particle"].name,
                energy_mev=payload["energy_mev"],
                vdd=payload["vdd_v"],
                particles=block_size,
                hits=hits,
                strikes=strikes,
            ),
        )
        return ArrayPofResult(
            particle_name=payload["particle"].name,
            energy_mev=payload["energy_mev"],
            vdd_v=payload["vdd_v"],
            n_particles=block_size,
            n_array_hits=hits,
            n_fin_strikes=strikes,
            pof_total=totals / block_size,
            pof_seu=seus / block_size,
            pof_mbu=mbus / block_size,
            launch_area_cm2=launch_area,
            multiplicity_pmf=pmf / block_size,
            weight=(1.0 if stratum is None else float(stratum["weight"])),
            stratum=(None if stratum is None else stratum["name"]),
        )

    # -- instrumentation -------------------------------------------------------

    @staticmethod
    def _record_run_metrics(metrics, n_particles, n_hits, n_strikes, elapsed):
        """Fold one campaign into the registry (enabled state only)."""
        metrics.counter("array_mc.runs").inc()
        metrics.counter("array_mc.particles").inc(n_particles)
        metrics.counter("array_mc.hits").inc(n_hits)
        metrics.counter("array_mc.strikes").inc(n_strikes)
        if elapsed > 0:
            metrics.gauge("array_mc.rays_per_sec").set(n_particles / elapsed)

    # -- kernel ----------------------------------------------------------------

    def _gather_strikes(self, particle, energy_mev, rays: RayBatch, rng):
        """Shared front half of both kernels: rays -> per-strike charges.

        Returns ``(n_hits, n_strikes, n_events, strikes)`` where
        ``strikes`` is ``(ray_idx, cell_of, strike_of, charges)`` or
        ``None`` when the batch produced no fin strikes.  Consumes the
        generator identically in both kernel variants, so dense and
        sparse runs of the same seed see the same physics.
        """
        # Cheap prefilter: only tracks crossing the array bounding box
        # can strike a fin; run the expensive per-fin test on those.
        array_hits = chord_lengths(rays, self._bbox_packed)[:, 0] > 0.0
        n_hits = int(np.sum(array_hits))
        if n_hits == 0:
            return 0, 0, 0, None

        hit_rays = RayBatch(
            rays.origins[array_hits], rays.directions[array_hits]
        )
        per_ray_energy = np.broadcast_to(
            np.asarray(energy_mev, dtype=np.float64), (len(rays),)
        )[array_hits]
        chords = chord_lengths(hit_rays, self._sensitive_boxes)

        event_rows = np.nonzero(np.any(chords > 0.0, axis=1))[0]
        if len(event_rows) == 0:
            return n_hits, 0, 0, None

        sub_chords = chords[event_rows]
        ray_idx, fin_idx = np.nonzero(sub_chords > 0.0)
        chord_vals = sub_chords[ray_idx, fin_idx]
        strike_energies = per_ray_energy[event_rows][ray_idx]

        pairs = self._pairs_for_strikes(
            particle, strike_energies, chord_vals, rng
        )
        charges = pairs * ELEMENTARY_CHARGE_C
        strikes = (
            ray_idx,
            self._sens_cell[fin_idx],
            self._sens_strike[fin_idx],
            charges,
        )
        return n_hits, len(fin_idx), len(event_rows), strikes

    def _process_batch(self, particle, energy_mev, vdd_v, rays: RayBatch, rng):
        """Sparse strike kernel: group strikes by (event, cell) key.

        Never allocates the dense ``(n_events, n_cells, 3)`` charge
        tensor of :meth:`_process_batch_dense` -- strikes are folded
        into per-(event, cell) charge triples via ``np.unique``, the
        POF table is queried only on touched cells, and eqs. 4-6 plus
        the multiplicity PMF are evaluated with segmented reductions
        over the touched set.
        """
        n_hits, n_strikes, n_events, strikes = self._gather_strikes(
            particle, energy_mev, rays, rng
        )
        if strikes is None:
            return 0.0, 0.0, 0.0, n_hits, n_strikes, self._empty_pmf.copy()
        ray_idx, cell_of, strike_of, charges = strikes

        # one row per touched (event, cell) pair; np.unique sorts the
        # keys, so rows come out event-major with cells ascending --
        # the same per-event cell order the dense kernel reduces in.
        key = ray_idx.astype(np.int64) * self.layout.n_cells + cell_of
        unique_keys, inverse = np.unique(key, return_inverse=True)
        cell_charges = np.zeros((len(unique_keys), 3), dtype=np.float64)
        np.add.at(cell_charges, (inverse, strike_of), charges)

        # POF lookup only for pairs that actually collected charge
        touched = np.any(cell_charges > 0.0, axis=1)
        if not np.any(touched):
            return 0.0, 0.0, 0.0, n_hits, n_strikes, self._empty_pmf.copy()
        pof = self.pof_table.query(vdd_v, cell_charges[touched])
        event_of = unique_keys[touched] // self.layout.n_cells

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
        pmf[0] = 0.0  # the k=0 bin is dominated by misses; not tracked
        return (
            float(np.sum(total)),
            float(np.sum(seu)),
            float(np.sum(mbu)),
            n_hits,
            n_strikes,
            pmf,
        )

    def _sparse_multiplicity(self, pof, starts) -> np.ndarray:
        """Summed Poisson-binomial PMF over variable-size event groups.

        The dynamic program of :func:`repro.ser.pof.multiplicity_pmf`
        run rank-by-rank: step ``r`` folds the ``r``-th touched cell of
        every event in at once, so the loop length is the largest
        per-event cell count, not the cell total.
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
        return pmf.sum(axis=0)

    def _process_batch_dense(
        self, particle, energy_mev, vdd_v, rays: RayBatch, rng
    ):
        """Reference kernel materializing the dense charge tensor.

        Kept for regression tests and the ``benchmarks/perf`` harness;
        allocates ``(n_events, n_cells, 3)`` per batch, which the
        sparse :meth:`_process_batch` exists to avoid.
        """
        n_hits, n_strikes, n_events, strikes = self._gather_strikes(
            particle, energy_mev, rays, rng
        )
        if strikes is None:
            return 0.0, 0.0, 0.0, n_hits, n_strikes, self._empty_pmf.copy()
        ray_idx, cell_of, strike_of, charges = strikes

        charge_tensor = np.zeros(
            (n_events, self.layout.n_cells, 3), dtype=np.float64
        )
        np.add.at(charge_tensor, (ray_idx, cell_of, strike_of), charges)

        cell_mask = np.any(charge_tensor > 0.0, axis=2)
        ev_i, cell_i = np.nonzero(cell_mask)
        pof_cells = np.zeros((n_events, self.layout.n_cells), dtype=np.float64)
        if len(ev_i):
            pof_values = self.pof_table.query(
                vdd_v, charge_tensor[ev_i, cell_i, :]
            )
            pof_cells[ev_i, cell_i] = pof_values

        total, seu, mbu = combine(pof_cells)
        pmf = multiplicity_pmf(
            pof_cells, max_k=self.config.max_multiplicity
        ).sum(axis=0)
        pmf[0] = 0.0
        return (
            float(np.sum(total)),
            float(np.sum(seu)),
            float(np.sum(mbu)),
            n_hits,
            n_strikes,
            pmf,
        )

    def _pairs_for_strikes(self, particle, strike_energies, chord_nm, rng):
        """Electron-hole pair counts for each struck sensitive fin.

        ``strike_energies`` is the per-strike particle energy array
        (constant for mono-energetic campaigns, per-track for spectrum
        sampling).
        """
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
