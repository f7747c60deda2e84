"""SRAM cell soft-error characterization (paper Section 4).

Builds the POF LUTs: for every supply voltage and every combination of
the three strike currents, the flip probability over a log-spaced
charge grid, with threshold-voltage process variation Monte Carlo
(1000 samples in the paper; configurable here).  The heavy lifting is
the vectorized :class:`~repro.sram.fastcell.FastCell` -- every grid
point of a combination is simulated for every variation sample in one
batched integration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..devices import VariationModel
from ..errors import ConfigError
from ..obs import get_logger, get_registry, kv, span
from ..obs.convergence import convergence_active, record_bin
from ..parallel import parallel_map
from .cell import SramCellDesign
from .fastcell import KERNELS, FastCell
from .ivtab import DEFAULT_TABLE_POINTS, IVTables
from .pof_lut import PofTable
from .strike import ALL_COMBOS

_log = get_logger(__name__)


@dataclass(frozen=True)
class CharacterizationConfig:
    """Knobs of the cell characterization.

    Attributes
    ----------
    vdd_list:
        Supply voltages to characterize (the paper sweeps 0.7-1.1 V).
    n_charge_points:
        Points of the shared log charge axis.
    charge_min_fc / charge_max_fc:
        Charge axis range [fC]; must bracket the critical charge at
        every Vdd (defaults span 0.01-1 fC around the ~0.1 fC Qcrit of
        the calibrated cell).
    n_samples:
        Variation MC samples per grid point (paper: 1000).
    process_variation:
        False reproduces the paper's "neglecting PV" nominal mode
        (binary POFs, a single zero-shift sample).
    max_pair_points / max_triple_points:
        Per-axis grid resolution caps for the 2-D and 3-D combination
        grids (full resolution is kept for the 1-D singles; the paper's
        multi-strike cases are rarer, tolerating coarser grids).
    seed:
        Seed for the variation sampling.
    t_sim_s / dt_s:
        Integration horizon and step of the strike simulations.
    enforce_monotone:
        Clean MC noise by making POF non-decreasing along every charge
        axis (POF is physically monotone in each collected charge).
    kernel:
        :class:`~repro.sram.fastcell.FastCell` current kernel.  The
        default ``"tabulated"`` interpolates per-(role-type, Vdd) I-V
        tables built once per Vdd in the parent; ``"fused"`` and
        ``"exact"`` evaluate the compact model directly and are
        bit-identical to each other (see ``docs/performance.md``).
    early_exit:
        Freeze decided trajectories during the strike relaxation and
        compact the live batch (same POF, fewer integrated steps).
    early_exit_margin_v:
        Override of the early-exit separation margin [V]; ``None``
        uses the validated per-batch default.
    table_points:
        Grid points per axis of the tabulated kernel's I-V tables.
    max_batch:
        Cap on simultaneous (grid point x variation sample) rows per
        :meth:`FastCell.run_impulse` batch -- dense grids with large
        MC are chunked to bound peak memory; POF output is identical.
    hoist_settle:
        Compute the settled baselines once per Vdd in the parent
        (they depend only on (vdd, shifts)) instead of re-running the
        80-step settle in all 7 per-combo tasks; bit-identical.
    """

    vdd_list: Tuple[float, ...] = (0.7, 0.8, 0.9, 1.0, 1.1)
    n_charge_points: int = 21
    charge_min_fc: float = 0.01
    charge_max_fc: float = 1.0
    n_samples: int = 200
    process_variation: bool = True
    max_pair_points: int = 9
    max_triple_points: int = 6
    seed: int = 2014
    t_sim_s: float = 3.0e-11
    dt_s: float = 2.5e-13
    enforce_monotone: bool = True
    kernel: str = "tabulated"
    early_exit: bool = True
    early_exit_margin_v: Optional[float] = None
    table_points: int = DEFAULT_TABLE_POINTS
    max_batch: int = 200_000
    hoist_settle: bool = True

    def __post_init__(self):
        if not self.vdd_list or any(v <= 0 for v in self.vdd_list):
            raise ConfigError("vdd_list must contain positive voltages")
        if list(self.vdd_list) != sorted(self.vdd_list):
            raise ConfigError("vdd_list must be sorted ascending")
        if self.n_charge_points < 4:
            raise ConfigError("need >= 4 charge points")
        if not (0 < self.charge_min_fc < self.charge_max_fc):
            raise ConfigError("need 0 < charge_min < charge_max")
        if self.n_samples < 1:
            raise ConfigError("need >= 1 variation sample")
        if self.max_pair_points < 3 or self.max_triple_points < 3:
            raise ConfigError("pair/triple grids need >= 3 points per axis")
        if self.kernel not in KERNELS:
            raise ConfigError(
                f"unknown cell kernel {self.kernel!r}; choose from {KERNELS}"
            )
        if self.early_exit_margin_v is not None and self.early_exit_margin_v <= 0:
            raise ConfigError("early-exit margin must be positive")
        if self.table_points < 8:
            raise ConfigError("need >= 8 table points per axis")
        if self.max_batch < 1:
            raise ConfigError("max_batch must be >= 1")

    def charge_axis_c(self) -> np.ndarray:
        """The shared log-spaced charge axis [C]."""
        return np.logspace(
            np.log10(self.charge_min_fc * 1e-15),
            np.log10(self.charge_max_fc * 1e-15),
            self.n_charge_points,
        )

    def axis_for_combo(self, combo) -> np.ndarray:
        """Possibly-decimated axis for a multi-strike combination."""
        axis = self.charge_axis_c()
        cap = {
            1: self.n_charge_points,
            2: self.max_pair_points,
            3: self.max_triple_points,
        }[len(combo)]
        if len(axis) <= cap:
            return axis
        picks = np.unique(
            np.round(np.linspace(0, len(axis) - 1, cap)).astype(int)
        )
        return axis[picks]


def _enforce_monotone(grid: np.ndarray) -> np.ndarray:
    """Non-decreasing cumulative max along every charge axis."""
    result = grid.copy()
    for axis in range(result.ndim):
        result = np.maximum.accumulate(result, axis=axis)
    return np.clip(result, 0.0, 1.0)


def _cell_for(
    design: SramCellDesign,
    vdd: float,
    config: CharacterizationConfig,
    tables: Optional[IVTables] = None,
) -> FastCell:
    """A :class:`FastCell` configured per the characterization knobs."""
    return FastCell(
        design,
        vdd,
        kernel=config.kernel,
        tables=tables if config.kernel == "tabulated" else None,
        table_points=config.table_points,
        early_exit=config.early_exit,
        early_exit_margin_v=config.early_exit_margin_v,
    )


def _characterize_task(payload, task):
    """Pool worker: the finished POF grid of one (combo, vdd) case.

    The grid is a deterministic function of the precomputed variation
    shifts (sampled once in the parent from ``config.seed``), so
    results are identical for any worker count by construction.  The
    parent also precomputes, keyed by Vdd, the settled baselines and
    (for the tabulated kernel) the I-V tables -- both depend only on
    (vdd, shifts), not on the strike combination, so the 7 per-combo
    tasks share them through the broadcast payload.
    """
    combo, vdd = task
    config = payload["config"]
    combo_axis = config.axis_for_combo(combo)
    tables, settled = payload["per_vdd"][vdd]
    grid = _pof_grid_for_combo(
        payload["design"], vdd, combo, combo_axis, payload["shifts"], config,
        settled=settled, tables=tables,
    )
    if config.enforce_monotone:
        grid = _enforce_monotone(grid)
    grid = _resample_to_axis(grid, combo_axis, payload["shared_axis"])

    metrics = get_registry()
    if metrics.enabled:
        combo_points = len(combo_axis) ** len(combo)
        metrics.counter("characterize.grid_points").inc(combo_points)
        metrics.counter("characterize.cell_sims").inc(
            combo_points * payload["shifts"].shape[0]
        )
    return grid


def characterize_shard_encode(grid) -> list:
    """JSON-safe encoding of one (combo, vdd) POF grid for the journal.

    ``ndarray.tolist`` preserves the nesting of every grid rank, so
    the inverse is a plain ``np.asarray`` -- and JSON floats round-trip
    exactly, keeping resumed tables bit-identical.
    """
    return np.asarray(grid, dtype=np.float64).tolist()


def characterize_shard_decode(payload: list) -> np.ndarray:
    """Inverse of :func:`characterize_shard_encode`."""
    return np.asarray(payload, dtype=np.float64)


def characterize_cell(
    design: SramCellDesign,
    config: Optional[CharacterizationConfig] = None,
    n_jobs: int = 1,
    retry=None,
    journal=None,
    warm_pool: Optional[bool] = None,
    shm: Optional[bool] = None,
) -> PofTable:
    """Build the full POF table for a cell design.

    Note the decimated multi-strike grids are re-interpolated onto the
    shared axis so the :class:`~repro.sram.pof_lut.PofTable` stores one
    consistent axis (simplifies queries and serialization).

    ``n_jobs`` fans the independent (combo, vdd) grids out across
    worker processes (1 = inline, 0 = one per CPU); the table is
    bit-identical for any worker count.

    A :class:`~repro.parallel.RetryPolicy` in ``retry`` governs
    transient worker loss; graceful degradation is **not** available
    here (every (combo, vdd) grid is required to assemble the table),
    so the policy is forced strict and unrecoverable loss raises
    :class:`~repro.errors.WorkerCrashError` -- the attached ``journal``
    (built with :func:`characterize_shard_encode` /
    :func:`characterize_shard_decode`) preserves the finished grids for
    the next attempt.

    ``warm_pool`` / ``shm`` override the process defaults for pool
    leasing and the shared-memory payload plane (the big per-Vdd
    :class:`~repro.sram.ivtab.IVTables` surfaces ride shared segments);
    pure transport knobs, results are bit-identical either way.
    """
    config = config if config is not None else CharacterizationConfig()
    rng = np.random.default_rng(config.seed)
    variation = VariationModel(
        sigma_vth_v=design.tech.sigma_vth_v,
        enabled=config.process_variation,
    )
    n_samples = config.n_samples if config.process_variation else 1
    shifts = variation.sample_shifts(n_samples, design.nfins(), rng)

    shared_axis = config.charge_axis_c()
    pof_grids = {}

    with span(
        "characterize-cell",
        vdds=len(config.vdd_list),
        combos=len(ALL_COMBOS),
        samples=n_samples,
    ):
        # Per-Vdd precomputation, shared by all 7 combo tasks: the I-V
        # tables of the tabulated kernel and (when hoisted) the settled
        # baselines.  Both depend only on (vdd, shifts), and computing
        # them here keeps them deterministic regardless of how tasks
        # land on workers.
        per_vdd = {}
        for vdd in config.vdd_list:
            cell = _cell_for(design, vdd, config)
            tables = (
                cell._ensure_tables(shifts)
                if config.kernel == "tabulated"
                else None
            )
            settled = (
                cell.settle(shifts, dt_s=config.dt_s)
                if config.hoist_settle
                else None
            )
            per_vdd[vdd] = (tables, settled)

        tasks = [
            (combo, vdd)
            for combo in ALL_COMBOS
            for vdd in config.vdd_list
        ]
        grids = parallel_map(
            _characterize_task,
            tasks,
            payload={
                "design": design,
                "config": config,
                "shifts": shifts,
                "shared_axis": shared_axis,
                "per_vdd": per_vdd,
            },
            n_jobs=n_jobs,
            label="characterize",
            retry=retry.strict() if retry is not None else None,
            journal=journal,
            cost_hint_s=_task_cost_hint_s(config, n_samples),
            warm_pool=warm_pool,
            shm=shm,
        )
        if journal is not None:
            # every grid is present (strict policy) -- the checkpoint
            # has served its purpose
            journal.clear()
        n_vdd = len(config.vdd_list)
        for c, combo in enumerate(ALL_COMBOS):
            per_vdd = grids[c * n_vdd : (c + 1) * n_vdd]
            pof_grids[combo] = np.stack(per_vdd, axis=0)
            _log.debug(
                "characterized combo %s",
                kv(
                    combo="+".join(str(i) for i in combo),
                    vdds=n_vdd,
                    grid_points=len(config.axis_for_combo(combo))
                    ** len(combo),
                    samples=n_samples,
                ),
            )

        if convergence_active() and config.process_variation:
            # One convergence bin per Vdd: each grid point is an
            # n_samples-trial proportion, so the bin reports the
            # least-converged point -- the grid value nearest 0.5,
            # where the binomial bound peaks.
            for v_i, vdd in enumerate(config.vdd_list):
                values = np.concatenate(
                    [
                        pof_grids[combo][v_i].ravel()
                        for combo in ALL_COMBOS
                    ]
                )
                worst_p = (
                    float(values[np.argmin(np.abs(values - 0.5))])
                    if values.size
                    else 0.0
                )
                record_bin(
                    "characterize",
                    trials=int(n_samples),
                    pof=worst_p,
                    vdd_v=float(vdd),
                )

    return PofTable(
        vdd_list=np.array(config.vdd_list),
        charge_axis_c=shared_axis,
        pof=pof_grids,
        process_variation=config.process_variation,
        n_samples=n_samples,
    )


def _task_cost_hint_s(config: CharacterizationConfig, n_samples: int) -> float:
    """Rough wall-clock estimate [s] of one (combo, vdd) grid task.

    Used by :func:`~repro.parallel.parallel_map` to skip pool spin-up
    when the whole map is cheaper than forking workers.  The model is
    (rows x steps) at an empirical ~25 ns per row-step for the mean
    combo grid, plus a fixed per-task floor; precision is irrelevant --
    only the inline-vs-pool break-even (~tens of ms) matters.
    """
    mean_points = sum(
        len(config.axis_for_combo(combo)) ** len(combo)
        for combo in ALL_COMBOS
    ) / len(ALL_COMBOS)
    steps = max(int(round(config.t_sim_s / config.dt_s)), 1)
    if not config.hoist_settle:
        steps += 80
    return 2.5e-8 * mean_points * n_samples * steps + 0.005


def _pof_grid_for_combo(
    design: SramCellDesign,
    vdd: float,
    combo,
    axis_c: np.ndarray,
    shifts: np.ndarray,
    config: CharacterizationConfig,
    settled: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    tables: Optional[IVTables] = None,
) -> np.ndarray:
    """POF over the charge mesh of one (vdd, combo) case.

    ``settled`` / ``tables`` are the per-Vdd precomputations hoisted
    into the parent (computed here when absent, with identical
    results).  The (grid point x variation sample) expansion is
    chunked under ``config.max_batch`` rows; chunks are independent
    row ranges of the same batch, so the POF is identical to the
    unchunked evaluation.
    """
    cell = _cell_for(design, vdd, config, tables=tables)
    n_samples = shifts.shape[0]
    if settled is None:
        settled = cell.settle(shifts, dt_s=config.dt_s)

    mesh = np.meshgrid(*([axis_c] * len(combo)), indexing="ij")
    n_points = mesh[0].size
    charges = np.zeros((n_points, 3), dtype=np.float64)
    for dim, strike_index in enumerate(combo):
        charges[:, strike_index] = mesh[dim].ravel()

    # tile: every grid point runs every variation sample -- in chunks
    # of whole grid points so peak memory stays under max_batch rows
    points_per_chunk = max(1, config.max_batch // n_samples)
    flipped_chunks = []
    for start in range(0, n_points, points_per_chunk):
        chunk = charges[start : start + points_per_chunk]
        n_chunk = chunk.shape[0]
        charges_full = np.repeat(chunk, n_samples, axis=0)
        shifts_full = np.tile(shifts, (n_chunk, 1))
        settled_full = (
            np.tile(settled[0], n_chunk),
            np.tile(settled[1], n_chunk),
        )
        flipped_chunks.append(
            cell.run_impulse(
                charges_full,
                shifts_full,
                settled=settled_full,
                t_sim_s=config.t_sim_s,
                dt_s=config.dt_s,
            )
        )
    flipped = (
        np.concatenate(flipped_chunks)
        if len(flipped_chunks) > 1
        else flipped_chunks[0]
    )
    pof_flat = flipped.reshape(n_points, n_samples).mean(axis=1)
    return pof_flat.reshape(mesh[0].shape)


def _resample_to_axis(
    grid: np.ndarray, from_axis: np.ndarray, to_axis: np.ndarray
) -> np.ndarray:
    """Interpolate a POF grid onto the shared axis (log-charge linear)."""
    if len(from_axis) == len(to_axis) and np.allclose(from_axis, to_axis):
        return grid
    from scipy.interpolate import RegularGridInterpolator

    ndim = grid.ndim
    interp = RegularGridInterpolator(
        (np.log(from_axis),) * ndim,
        grid,
        method="linear",
        bounds_error=False,
        fill_value=None,
    )
    mesh = np.meshgrid(*([np.log(to_axis)] * ndim), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    return np.clip(interp(points).reshape(mesh[0].shape), 0.0, 1.0)
