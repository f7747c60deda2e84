"""SRAM cell soft-error characterization (paper Section 4).

Builds the POF LUTs: for every supply voltage and every combination of
the three strike currents, the flip probability over a log-spaced
charge grid, with threshold-voltage process variation Monte Carlo
(1000 samples in the paper; configurable here).  An impulse strike's
outcome depends only on ``(q1, q2+q3)`` and, per variation sample, is
monotone in charge, so each sample's first flipping point on each
fixed-``q1`` line -- found by bisection -- fixes the whole table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..devices import VariationModel
from ..errors import ConfigError
from ..obs import get_logger, get_registry, kv, span
from ..obs.convergence import convergence_active, record_bin
from ..parallel import parallel_map
from .cell import SramCellDesign
from .fastcell import FastCell
from .ivtab import IVTables
from .pof_lut import PofTable, _blend, _cell
from .strike import ALL_COMBOS, combo_label

_log = get_logger(__name__)

#: Headroom factor on the variation sample's max |dVth| when sizing the
#: I-V tables.
_TABLE_PAD_HEADROOM = 1.5


@dataclass(frozen=True)
class CharacterizationConfig:
    """Knobs of the cell characterization.

    Every field changes the POF table, so the whole config enters the
    artifact-cache key; execution knobs (workers, pools, shared memory)
    live elsewhere.

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

    The cell runs the tabulated :class:`~repro.sram.fastcell.FastCell`
    kernel on per-(role-type, Vdd) I-V tables built once per Vdd task,
    and every grid is made non-decreasing along each charge axis (POF
    is physically monotone in each collected charge).
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

    def __post_init__(self):
        if not self.vdd_list or not all(
            math.isfinite(v) and v > 0 for v in self.vdd_list
        ):
            raise ConfigError("vdd_list must hold positive finite voltages")
        if any(b <= a for a, b in zip(self.vdd_list, self.vdd_list[1:])):
            raise ConfigError("vdd_list must be strictly increasing")
        if self.n_charge_points < 4:
            raise ConfigError("need >= 4 charge points")
        if not (0 < self.charge_min_fc < self.charge_max_fc):
            raise ConfigError("need 0 < charge_min < charge_max")
        if self.n_samples < 1:
            raise ConfigError("need >= 1 variation sample")
        if self.max_pair_points < 3 or self.max_triple_points < 3:
            raise ConfigError("pair/triple grids need >= 3 points per axis")
        if not self.t_sim_s > 0:
            raise ConfigError("t_sim_s must be positive")
        if not 0 < self.dt_s <= self.t_sim_s:
            raise ConfigError("need 0 < dt_s <= t_sim_s")

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


def _combo_rows(config: CharacterizationConfig):
    """The distinct ``(q1, q2+q3)`` rows of the seven combo meshes.

    Returns ``(rows, inverses)``: ``rows`` is ``(n, 2)`` [C] in
    lexicographic order, so each fixed-``q1`` line is a contiguous run
    with ``q2+q3`` ascending, and ``inverses[c]`` maps the flattened
    mesh of ``ALL_COMBOS[c]`` onto ``rows``.  The sum is formed exactly
    as :meth:`~repro.sram.fastcell.FastCell.run_impulse` forms it.
    """
    keys = []
    for combo in ALL_COMBOS:
        axis = config.axis_for_combo(combo)
        mesh = np.meshgrid(*([axis] * len(combo)), indexing="ij")
        charges = np.zeros((mesh[0].size, 3), dtype=np.float64)
        for dim, strike_index in enumerate(combo):
            charges[:, strike_index] = mesh[dim].ravel()
        keys.append(
            np.stack([charges[:, 0], charges[:, 1] + charges[:, 2]], axis=1)
        )
    rows, inverse = np.unique(
        np.concatenate(keys), axis=0, return_inverse=True
    )
    bounds = np.cumsum([len(k) for k in keys])[:-1]
    return rows, np.split(inverse.ravel(), bounds)


def _flip_outcomes(cell, rows, shifts, settled, config):
    """Every sample's flip outcome at every distinct row, by bisection.

    Rows sharing ``q1`` form a line ordered by ``q2+q3``, along which
    each sample flips monotonically; its first flipping index (the
    line's length if none) fixes the line.  Each (line, sample) pair is
    one bisection chain, and all chains share one
    :meth:`FastCell.run_impulse_refill` batch: a chain's next midpoint
    enters as soon as its row is decided, under the population's
    early-exit margin.  Returns the ``(n_rows, n_samples)`` outcomes
    and the number of rows integrated.
    """
    _, line_of_row, line_len = np.unique(
        rows[:, 0], return_inverse=True, return_counts=True
    )
    line_start = np.cumsum(line_len) - line_len
    n_samples = shifts.shape[0]
    # chain c bisects line c // n_samples for sample c % n_samples
    line = np.repeat(np.arange(len(line_len)), n_samples)
    sample = np.tile(np.arange(n_samples), len(line_len))
    lo = np.zeros(line.size, dtype=np.int64)
    hi = line_len[line]
    sims = 0

    def strike(chains):
        nonlocal sims
        sims += chains.size
        charges = np.zeros((chains.size, 3), dtype=np.float64)
        mid = (lo[chains] + hi[chains]) // 2
        charges[:, :2] = rows[line_start[line[chains]] + mid]
        return sample[chains], charges

    def refill(chains, flipped):
        mid = (lo[chains] + hi[chains]) // 2
        hi[chains[flipped]] = mid[flipped]
        lo[chains[~flipped]] = mid[~flipped] + 1
        chains = chains[lo[chains] < hi[chains]]
        return (chains, *strike(chains))

    cell.run_impulse_refill(
        shifts,
        settled,
        *strike(np.arange(line.size)),
        refill,
        t_sim_s=config.t_sim_s,
        dt_s=config.dt_s,
    )
    first_flip = lo.reshape(len(line_len), n_samples)
    pos_of_row = np.arange(len(rows)) - line_start[line_of_row]
    return first_flip[line_of_row] <= pos_of_row[:, np.newaxis], sims


def _characterize_task(payload, vdd):
    """Pool worker: the seven finished POF grids of one Vdd.

    The task builds its own I-V tables and settles its own baselines:
    both are pure functions of (design, vdd, shifts, shift pad), and the
    shifts and pad come from the parent, so results are identical for
    any worker count.  Grids come back in
    :data:`~repro.sram.strike.ALL_COMBOS` order.
    """
    design = payload["design"]
    config = payload["config"]
    shifts = payload["shifts"]
    tables = IVTables(design, vdd, shift_pad_v=payload["shift_pad_v"])
    get_registry().counter("characterize.kernel.table_builds").inc()
    cell = FastCell(design, vdd, tables)
    settled = cell.settle(shifts, dt_s=config.dt_s)

    rows, inverses = _combo_rows(config)
    flipped, sims = _flip_outcomes(cell, rows, shifts, settled, config)
    pof_rows = flipped.mean(axis=1)

    grids = []
    for combo, inverse in zip(ALL_COMBOS, inverses):
        combo_axis = config.axis_for_combo(combo)
        grid = _enforce_monotone(
            pof_rows[inverse].reshape((len(combo_axis),) * len(combo))
        )
        grids.append(
            _resample_to_axis(grid, combo_axis, payload["shared_axis"])
        )

    metrics = get_registry()
    if metrics.enabled:
        metrics.counter("characterize.grid_points").inc(
            sum(len(inverse) for inverse in inverses)
        )
        metrics.counter("characterize.cell_sims").inc(sims)
    return grids


def characterize_shard_encode(grids) -> list:
    """JSON-safe encoding of one Vdd's seven POF grids for the journal.

    ``ndarray.tolist`` preserves the nesting of every grid rank, and
    JSON floats round-trip exactly, keeping resumed tables
    bit-identical.
    """
    return [np.asarray(grid, dtype=np.float64).tolist() for grid in grids]


def characterize_shard_decode(payload: list) -> list:
    """Inverse of :func:`characterize_shard_encode`.

    Anything but seven square grids of the combos' ranks on one axis
    raises, so the journal discards the line (``journal.invalid``) and
    the task reruns -- a shard of another layout is never misread.
    """
    grids = [np.asarray(grid, dtype=np.float64) for grid in payload]
    if len(grids) != len(ALL_COMBOS) or grids[0].ndim != 1:
        raise ValueError("not a per-Vdd set of combo grids")
    n_q = grids[0].shape[0]
    for combo, grid in zip(ALL_COMBOS, grids):
        if grid.shape != (n_q,) * len(combo):
            raise ValueError(f"grid of combo {combo} has shape {grid.shape}")
    return grids


def characterize_cell(
    design: SramCellDesign,
    config: Optional[CharacterizationConfig] = None,
    n_jobs: int = 1,
    retry=None,
    journal=None,
) -> PofTable:
    """Build the full POF table for a cell design.

    Note the decimated multi-strike grids are re-interpolated onto the
    shared axis so the :class:`~repro.sram.pof_lut.PofTable` stores one
    consistent axis (simplifies queries and serialization).

    ``n_jobs`` fans the independent per-Vdd tasks out across worker
    processes (1 = inline, 0 = one per CPU); the table is bit-identical
    for any worker count.

    A :class:`~repro.parallel.RetryPolicy` in ``retry`` governs
    transient worker loss; graceful degradation is **not** available
    here (every Vdd's grids are required to assemble the table), so the
    policy is forced strict and unrecoverable loss raises
    :class:`~repro.errors.WorkerCrashError` -- the attached ``journal``
    (built with :func:`characterize_shard_encode` /
    :func:`characterize_shard_decode`) preserves the finished Vdds for
    the next attempt.
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
        grids = parallel_map(
            _characterize_task,
            list(config.vdd_list),
            payload={
                "design": design,
                "config": config,
                "shifts": shifts,
                "shared_axis": shared_axis,
                # one pad from all samples, so every Vdd's tables cover
                # the whole population
                "shift_pad_v": _TABLE_PAD_HEADROOM
                * float(np.max(np.abs(shifts))),
            },
            n_jobs=n_jobs,
            label="characterize",
            retry=retry.strict() if retry is not None else None,
            journal=journal,
            cost_hint_s=_task_cost_hint_s(config, n_samples),
        )
        if journal is not None:
            # every grid is present (strict policy) -- the checkpoint
            # has served its purpose
            journal.clear()
        for c, combo in enumerate(ALL_COMBOS):
            pof_grids[combo] = np.stack([per_vdd[c] for per_vdd in grids])
            _log.debug(
                "characterized combo %s",
                kv(combo=combo_label(combo), vdds=len(grids), samples=n_samples),
            )

        if convergence_active() and config.process_variation:
            # One convergence bin per Vdd: each grid point is an
            # n_samples-trial proportion, so the bin reports the
            # least-converged point -- the grid value nearest 0.5,
            # where the binomial bound peaks.
            for v_i, vdd in enumerate(config.vdd_list):
                values = np.concatenate(
                    [pof_grids[combo][v_i].ravel() for combo in ALL_COMBOS]
                )
                worst_p = float(values[np.argmin(np.abs(values - 0.5))])
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
    """Rough wall-clock estimate [s] of one per-Vdd task.

    Used by :func:`~repro.parallel.parallel_map` to skip pool spin-up
    when the whole map is cheaper than forking workers.  The model is
    the ~0.05 s I-V table build; ~0.3 ms of overhead per step of the
    refilled batch, which integrates for its longest chain, about a
    third of the ``halvings.max()`` horizons bounding it; and ~0.6 us
    per row-step for the rows (one per halving of each line, per
    sample), which decide in about a sixth of the horizon.  Precision
    is irrelevant -- only the inline-vs-pool break-even (~tens of ms)
    matters.
    """
    rows, _ = _combo_rows(config)
    _, line_len = np.unique(rows[:, 0], return_counts=True)
    halvings = np.ceil(np.log2(line_len + 1))
    steps = max(int(round(config.t_sim_s / config.dt_s)), 1)
    per_step_s = 1e-4 * halvings.max() + 1e-7 * n_samples * halvings.sum()
    return 0.05 + steps * float(per_step_s)


def _resample_to_axis(
    grid: np.ndarray, from_axis: np.ndarray, to_axis: np.ndarray
) -> np.ndarray:
    """Interpolate a POF grid onto the shared axis (log-charge linear)."""
    if len(from_axis) == len(to_axis) and np.allclose(from_axis, to_axis):
        return grid
    mesh = np.meshgrid(*([np.log(to_axis)] * grid.ndim), indexing="ij")
    points = np.stack([m.ravel() for m in mesh])
    cells, fracs = _cell(np.log(from_axis), points)
    (pof,) = _blend(grid.reshape(-1), len(from_axis), cells, fracs)
    return np.clip(pof.reshape(mesh[0].shape), 0.0, 1.0)
