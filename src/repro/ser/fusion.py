"""Batch plans: the one driver of uniform flow-level array campaigns.

:class:`~repro.core.SerFlow` runs every uniform scan -- ``fit`` (one
case), ``sweep`` (all cases) and ``pof_vs_energy`` (one case, explicit
energies) -- by queuing every draw block of every campaign into one
:class:`BatchPlan` and executing them as a single map: draw blocks from
different campaigns share pool tasks, and the one broadcast payload
(the simulator, shipped via the :mod:`repro.parallel.shm` plane)
serves all points.

Determinism is inherited, not re-proven: each point's draw blocks are
the exact :func:`~repro.ser.mc._draw_blocks` partition, each block
consumes the same :func:`~repro.parallel.spawn_seeds` child stream of
the point's campaign seed, and per-point results merge in block order
-- so every point is bit-identical to ``simulator.run`` with the same
seed, for any worker count (asserted by ``tests/test_fusion.py``).

Fault tolerance: completed pool tasks journal through the standard
array-shard codec so an interrupted plan resumes bit-identically; any
draw block lost past the retry budget raises
:class:`~repro.errors.WorkerCrashError` (the downstream FIT integral
needs every energy bin, so degradation to a partial scan is not
meaningful here).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import WorkerCrashError
from ..obs import get_logger, get_registry, kv
from ..obs.convergence import record_bin
from ..parallel import parallel_map, spawn_seeds
from ..physics import get_particle
from .mc import DRAW_BLOCK_SIZE, ArrayPofResult, _draw_blocks

_log = get_logger(__name__)

__all__ = ["BatchPlan", "CampaignPoint"]


@dataclass(frozen=True)
class CampaignPoint:
    """One (particle, energy, Vdd) campaign queued into a plan."""

    index: int
    particle_name: str
    energy_mev: float
    vdd_v: float
    n_particles: int
    #: Root :class:`numpy.random.SeedSequence` of the campaign -- the
    #: very seed the per-campaign path would hand ``simulator.run``.
    seed: np.random.SeedSequence


def _fused_task(payload, task):
    """Pool worker: run a task's draw blocks (any campaign mix), in order.

    Each unit is ``(particle_name, energy_mev, vdd_v, size, seed)``;
    the per-block payload is rebuilt from the broadcast simulator
    exactly as ``ArraySerSimulator._run_campaign`` would build it, so a
    block computes the identical result regardless of which campaigns
    share its task.
    """
    simulator = payload["simulator"]
    window = simulator.layout.launch_window(simulator.config.margin_nm)
    results = []
    for particle_name, energy_mev, vdd_v, size, seed in task:
        block_payload = {
            "simulator": simulator,
            "particle": get_particle(particle_name),
            "energy_mev": float(energy_mev),
            "vdd_v": float(vdd_v),
            "window": window,
            "law": simulator.config.law_for(particle_name),
            "spectrum": None,
            "e_range": None,
        }
        results.append(simulator._run_block(block_payload, size, seed))
    return results


class BatchPlan:
    """The draw blocks of a list of campaigns, run as one parallel map.

    Parameters
    ----------
    simulator:
        The shared :class:`~repro.ser.mc.ArraySerSimulator`.
    points:
        The queued campaigns, in result order.
    n_jobs, retry, journal, warm_pool, shm:
        The usual execution/fault-tolerance knobs of
        :func:`~repro.parallel.parallel_map`; the retry policy is
        forced strict (see module docstring).
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
        warm_pool: Optional[bool] = None,
        shm: Optional[bool] = None,
        payload=None,
    ):
        self.simulator = simulator
        self.points = list(points)
        self.n_jobs = n_jobs
        self.retry = retry
        self.journal = journal
        self.warm_pool = warm_pool
        self.shm = shm
        self.payload = payload

    def execute(self) -> List[ArrayPofResult]:
        """Run every queued campaign; one merged result per point.

        Results come back in point order, each bit-identical to what
        ``simulator.run(point...)`` would have produced.
        """
        units = []
        block_counts = []
        for point in self.points:
            blocks = _draw_blocks(point.n_particles)
            seeds = spawn_seeds(
                np.random.default_rng(point.seed), len(blocks)
            )
            block_counts.append(len(blocks))
            for size, seed in zip(blocks, seeds):
                units.append(
                    (
                        point.particle_name,
                        float(point.energy_mev),
                        float(point.vdd_v),
                        size,
                        seed,
                    )
                )
        per_task = max(
            1, math.ceil(self.simulator.config.chunk_size / DRAW_BLOCK_SIZE)
        )
        tasks = [
            units[i : i + per_task] for i in range(0, len(units), per_task)
        ]
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

        t0 = time.perf_counter()
        with metrics.time("array_mc.plan"):
            nested = parallel_map(
                _fused_task,
                tasks,
                payload=(
                    self.payload
                    if self.payload is not None
                    else {"simulator": self.simulator}
                ),
                n_jobs=self.n_jobs,
                label="fused_campaigns",
                retry=self.retry.strict() if self.retry is not None else None,
                journal=self.journal,
                cost_hint_s=2.0e-6 * total_particles / max(len(tasks), 1),
                warm_pool=self.warm_pool,
                shm=self.shm,
            )
            lost = sum(1 for group in nested if group is None)
            if lost:
                raise WorkerCrashError(
                    f"batch plan lost {lost}/{len(tasks)} pool tasks to "
                    "worker crashes; the FIT integral needs every energy "
                    "bin, so a plan cannot degrade"
                )
            flat = [result for group in nested for result in group]
        elapsed = time.perf_counter() - t0

        # per-point merge, in block order -- the same reduction
        # ArraySerSimulator._run_campaign performs on its own blocks
        results = []
        offset = 0
        per_point_elapsed = elapsed / max(len(self.points), 1)
        with metrics.time("array_mc.merge"):
            for point, n_blocks in zip(self.points, block_counts):
                merged = ArrayPofResult.merge(
                    flat[offset : offset + n_blocks]
                )
                offset += n_blocks
                results.append(merged)
                if metrics.enabled:
                    self.simulator._record_run_metrics(
                        metrics,
                        merged.n_particles,
                        merged.n_array_hits,
                        merged.n_fin_strikes,
                        per_point_elapsed,
                    )
                record_bin(
                    "array-mc",
                    trials=int(merged.n_particles),
                    pof=float(merged.pof_total),
                    particle=merged.particle_name,
                    vdd_v=float(merged.vdd_v),
                    energy_mev=float(merged.energy_mev),
                )
        return results
