"""Batch plans: the one way array Monte Carlo draw blocks run.

Every array campaign is a :class:`BatchPlan` of :class:`CampaignPoint`
s, each point carrying its own draw blocks: ``ArraySerSimulator.run``
and ``run_spectrum`` are one-point plans, :class:`~repro.core.SerFlow`
runs each uniform scan (``fit``, ``sweep``, ``pof_vs_energy``) as one
plan over its (particle, Vdd, energy) points, and an adaptive round
(:mod:`repro.ser.adaptive`) is one plan over its (bin, stratum) points.
:meth:`BatchPlan.run_blocks` runs every block of every point as a
single :func:`~repro.parallel.parallel_map` (label ``array_mc``):
whole blocks, of any points, fill each pool task until it holds at
least ``TASK_PARTICLES`` particles, a task's blocks run through one
strike pass (:meth:`~repro.ser.mc.ArraySerSimulator._run_task`), and
the one broadcast payload (the simulator) serves all.

Determinism: a point's blocks are fixed when it is built, and a block's
result depends only on its point, size and seed, never on the task
that ran it (``tests/test_one_pass.py`` holds every task grouping to
the per-block oracle).  Points merge their blocks in block order, so
every result is bit-identical for any worker count and any task
layout (asserted by ``tests/test_fusion.py``).

Fault tolerance: completed pool tasks journal through the array-shard
codec, so an interrupted plan resumes bit-identically; a journaled
shard whose block count differs from its task's (another task layout)
raises instead of being truncated.  Blocks lost past the retry budget
follow the caller's :class:`~repro.parallel.RetryPolicy`: a strict
policy raises :class:`~repro.errors.WorkerCrashError` from the map;
under ``allow_partial`` a point that lost some blocks merges the
survivors flagged ``degraded``, and one that lost every block raises.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, SerializationError, WorkerCrashError
from ..obs import get_logger, get_registry, kv
from ..obs.convergence import record_bin
from ..parallel import parallel_map, spawn_seeds
from .mc import DRAW_BLOCK_SIZE, TASK_PARTICLES, ArrayPofResult

_log = get_logger(__name__)

__all__ = ["BatchPlan", "CampaignPoint"]


@dataclass(frozen=True)
class CampaignPoint:
    """One (particle, energy, Vdd) point of a plan and its draw blocks.

    Spectrum points carry ``spectrum`` and ``e_range`` (``energy_mev``
    is then the representative energy stamped on the result, as in
    :meth:`~repro.ser.mc.ArraySerSimulator.run_spectrum`); an adaptive
    stratum point carries its ``stratum`` dict (see
    :mod:`repro.ser.adaptive`).

    A LET-beam point (``let_kev_per_nm`` set, see
    :class:`~repro.ser.heavy_ion.HeavyIonCampaign`) names no particle
    species: every strike deposits ``LET x chord`` with no straggling,
    ``particle_name`` and ``energy_mev`` only label the result, and
    ``direction_law`` (or, when ``None``, the configured law of
    ``particle_name``) aims the beam.
    """

    particle_name: str
    energy_mev: float
    vdd_v: float
    #: ``(size, SeedSequence)`` draw blocks, in merge order.
    blocks: Tuple[Tuple[int, np.random.SeedSequence], ...]
    spectrum: object = field(default=None, compare=False, repr=False)
    e_range: Optional[Tuple[float, float]] = None
    stratum: Optional[dict] = None
    let_kev_per_nm: Optional[float] = None
    direction_law: Optional[str] = None

    @classmethod
    def uniform(
        cls,
        particle_name: str,
        energy_mev: float,
        vdd_v: float,
        n_particles: int,
        seed,
        **fields,
    ) -> "CampaignPoint":
        """A whole campaign of ``n_particles``, as ``simulator.run`` draws it.

        The particles are partitioned into full
        :data:`~repro.ser.mc.DRAW_BLOCK_SIZE` blocks plus one remainder
        block, and block ``i`` gets the ``i``-th child stream spawned
        off ``seed``: a :class:`~numpy.random.SeedSequence`, or a
        :class:`~numpy.random.Generator` whose seed sequence keeps its
        spawn counter across calls.  ``fields`` sets the point's other
        fields by name (``spectrum``, ``e_range``, ``let_kev_per_nm``,
        ``direction_law``).
        """
        if energy_mev <= 0:
            raise ConfigError("energy must be positive")
        if n_particles < 1:
            raise ConfigError("need at least one particle")
        full, rest = divmod(int(n_particles), DRAW_BLOCK_SIZE)
        sizes = [DRAW_BLOCK_SIZE] * full + ([rest] if rest else [])
        seeds = spawn_seeds(np.random.default_rng(seed), len(sizes))
        return cls(
            particle_name,
            float(energy_mev),
            float(vdd_v),
            tuple(zip(sizes, seeds)),
            **fields,
        )

    @property
    def n_particles(self) -> int:
        return sum(size for size, _seed in self.blocks)


def _block_task(payload, task):
    """Pool worker: run a task's draw blocks (any mix of points) as one pass.

    Each unit is ``(point, size, seed)``, the point shipped with empty
    ``blocks``; a block's result depends on nothing else, so it is the
    same whichever task, and whichever other points, it shares.
    """
    return payload["simulator"]._run_task(task)


def _fill_tasks(units):
    """Whole blocks to each task until it holds ``TASK_PARTICLES``.

    Full :data:`~repro.ser.mc.DRAW_BLOCK_SIZE` blocks land two to a
    task, as they always have, so one-point plans keep their task
    layout; smaller blocks pack more to a task.
    """
    tasks, task, held = [], [], 0
    for unit in units:
        task.append(unit)
        held += unit[1]
        if held >= TASK_PARTICLES:
            tasks.append(task)
            task, held = [], 0
    if task:
        tasks.append(task)
    return tasks


class BatchPlan:
    """The draw blocks of a list of campaign points, run as one map.

    Parameters
    ----------
    simulator:
        The shared :class:`~repro.ser.mc.ArraySerSimulator`.
    points:
        The queued campaign points, in result order.
    n_jobs, retry, journal:
        The usual execution/fault-tolerance knobs of
        :func:`~repro.parallel.parallel_map`; the retry policy is used
        as given (see module docstring for the lost-block rule).
    payload:
        Optional pre-packed broadcast payload holding the simulator
        (``SerFlow._campaign_payload``); defaults to a plain dict.
    """

    def __init__(
        self,
        simulator,
        points: Sequence[CampaignPoint],
        *,
        n_jobs: int = 1,
        retry=None,
        journal=None,
        payload=None,
    ):
        self.simulator = simulator
        self.points = list(points)
        if any(not point.blocks for point in self.points):
            raise ConfigError("every campaign point needs draw blocks")
        self.n_jobs = n_jobs
        self.retry = retry
        self.journal = journal
        self.payload = payload

    def run_blocks(self) -> List[List[Optional[ArrayPofResult]]]:
        """Run every point's draw blocks as one map.

        Returns one list per point holding its block results in block
        order; a block whose pool task was lost past a lenient retry
        budget is ``None``.
        """
        units = []
        for point in self.points:
            bare = dataclasses.replace(point, blocks=())
            units.extend((bare, size, seed) for size, seed in point.blocks)
        tasks = _fill_tasks(units)
        total_particles = sum(point.n_particles for point in self.points)

        metrics = get_registry()
        if metrics.enabled:
            metrics.counter("array_mc.plans").inc()
            metrics.counter("array_mc.plan_blocks").inc(len(units))
        _log.info(
            "batch plan %s",
            kv(
                campaigns=len(self.points),
                blocks=len(units),
                tasks=len(tasks),
                particles=total_particles,
            ),
        )
        with metrics.time("array_mc.plan"):
            nested = parallel_map(
                _block_task,
                tasks,
                payload=(
                    self.payload
                    if self.payload is not None
                    else {"simulator": self.simulator}
                ),
                n_jobs=self.n_jobs,
                label="array_mc",
                retry=self.retry,
                journal=self.journal,
                # ~2 us per particle: tiny plans skip pool spin-up
                cost_hint_s=2.0e-6 * total_particles / max(len(tasks), 1),
            )

        flat: List[Optional[ArrayPofResult]] = []
        for index, (task, group) in enumerate(zip(tasks, nested)):
            if group is None:
                flat.extend([None] * len(task))
                continue
            if len(group) != len(task):
                raise SerializationError(
                    f"array-MC shard {index} holds {len(group)} block "
                    f"results but its task has {len(task)} blocks; a "
                    "journal written under another task layout cannot "
                    "resume this plan"
                )
            flat.extend(group)
        per_point = []
        offset = 0
        for point in self.points:
            per_point.append(flat[offset : offset + len(point.blocks)])
            offset += len(point.blocks)
        return per_point

    def execute(self) -> List[ArrayPofResult]:
        """Run every point; one merged result per point, in point order.

        A point whose blocks all completed is bit-identical to
        ``simulator.run`` with the same seed.  A point that lost some
        blocks merges the survivors flagged ``degraded``; one that lost
        every block raises :class:`~repro.errors.WorkerCrashError`.
        """
        t0 = time.perf_counter()
        per_point = self.run_blocks()
        per_point_elapsed = (time.perf_counter() - t0) / max(
            len(self.points), 1
        )

        metrics = get_registry()
        results = []
        with metrics.time("array_mc.merge"):
            for point, blocks in zip(self.points, per_point):
                survivors = [block for block in blocks if block is not None]
                if not survivors:
                    raise WorkerCrashError(
                        f"array MC point {point.particle_name} "
                        f"{point.energy_mev:g} MeV {point.vdd_v:g} V lost "
                        "every draw block to worker crashes; nothing to merge"
                    )
                merged = ArrayPofResult.merge(survivors)
                if len(survivors) < len(blocks):
                    merged = dataclasses.replace(merged, degraded=True)
                    _log.warning(
                        "array MC campaign degraded %s",
                        kv(
                            particle=point.particle_name,
                            energy_mev=point.energy_mev,
                            vdd=point.vdd_v,
                            lost_blocks=len(blocks) - len(survivors),
                            total_blocks=len(blocks),
                        ),
                    )
                results.append(merged)
                if metrics.enabled:
                    n = merged.n_particles
                    metrics.counter("array_mc.runs").inc()
                    metrics.counter("array_mc.particles").inc(n)
                    metrics.counter("array_mc.hits").inc(merged.n_array_hits)
                    metrics.counter("array_mc.strikes").inc(
                        merged.n_fin_strikes
                    )
                    if per_point_elapsed > 0:
                        metrics.gauge("array_mc.rays_per_sec").set(
                            n / per_point_elapsed
                        )
                record_bin(
                    "array-mc",
                    trials=int(merged.n_particles),
                    pof=float(merged.pof_total),
                    standard_error=merged.standard_error,
                    particle=merged.particle_name,
                    vdd_v=float(merged.vdd_v),
                    energy_mev=float(merged.energy_mev),
                )
        return results
