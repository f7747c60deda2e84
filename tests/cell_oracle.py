"""Reference cell kernels and characterization, kept as test oracles.

The shipped cell runs one path per caller: the tabulated current
kernel (the fused one where no I-V tables are built) with early-exit
relaxation, and the characterization bisects each variation sample's
flip frontier.  These oracles swap the optimizations back out so tests
can hold the shipped path to its contracts:

* :class:`FullHorizonCell` -- the shipped current kernel, but every
  trajectory is integrated to the full horizon (no early exit);
* :class:`ExactCell` -- additionally evaluates the six devices with one
  compact-model call per role, the original implementation;
* :func:`dense_pof_table` -- the dense characterization: every grid
  point of every combo simulated for every variation sample;
* :func:`round_flip_outcomes` -- the flip-frontier bisection in rounds:
  every unfinished (line, sample) chain's midpoint in one
  :meth:`FastCell.run_impulse` batch per round;
* :func:`dense_iv_tables` -- the I-V table build with every cell of
  every slab evaluated by one full compact-model call.
"""

import numpy as np

from repro.devices import VariationModel
from repro.sram import ALL_COMBOS, FastCell, IVTables, PofTable
from repro.sram.characterize import (
    _TABLE_PAD_HEADROOM,
    _enforce_monotone,
    _resample_to_axis,
)
from repro.sram.ivtab import _MIN_W_PAD_V, I_SCALE_A


def dense_iv_tables(design, vdd_v, shift_pad_v, points, clamp_margin_v=0.6):
    """The ``(3, n, n)`` table of :class:`IVTables`, every cell evaluated
    by one compact-model call per slab on the full ``(u, w)`` grid."""
    pad = max(float(shift_pad_v), _MIN_W_PAD_V)
    vdd = float(vdd_v)
    u_lo = -float(clamp_margin_v)
    u_hi = vdd + float(clamp_margin_v)
    u = np.linspace(u_lo, u_hi, points)[:, np.newaxis]
    w = np.linspace(u_lo - pad, u_hi + pad, points)[np.newaxis, :]
    nmos = design.tech.nmos
    pmos = design.tech.pmos
    z = np.empty((3, points, points), dtype=np.float64)
    # pull-down: drain at the node, source grounded
    z[0] = np.arcsinh(design.nfin_of("pd_l") * nmos.ids(u, w, 0.0) / I_SCALE_A)
    # pass-gate: drain at the bit line (vdd), source at the node
    z[1] = np.arcsinh(design.nfin_of("pg_l") * nmos.ids(vdd, w, u) / I_SCALE_A)
    # pull-up: drain at the node, source at vdd
    z[2] = np.arcsinh(design.nfin_of("pu_l") * pmos.ids(u, w, vdd) / I_SCALE_A)
    return z


def exact_node_currents(cell, vq, vqb, shifts):
    """Currents [A] into nodes q and qb, one model call per role.

    ``shifts`` has shape ``(n, 6)`` in :data:`~repro.sram.cell.ROLES`
    order.  A device's ids flows drain -> source, i.e. *out of* its
    drain node: PU sources current into its node, PD sinks it, and PG
    leaks it in from the bit line (= vdd).
    """
    design = cell.design
    vdd = cell.vdd

    def ids(role, vd, vg, vs):
        return design.nfin_of(role) * design.model_of(role).ids(
            vd, vg, vs, vth_shift=shifts[:, design.role_index(role)]
        )

    i_q = (
        -ids("pu_l", vq, vqb, vdd)
        - ids("pd_l", vq, vqb, 0.0)
        + ids("pg_l", vdd, 0.0, vq)
    )
    i_qb = (
        -ids("pu_r", vqb, vq, vdd)
        - ids("pd_r", vqb, vq, 0.0)
        + ids("pg_r", vdd, 0.0, vqb)
    )
    return i_q, i_qb


class FullHorizonCell(FastCell):
    """The shipped kernel with the early exit taken out."""

    def _relax(self, vq, vqb, ctx, steps, dt_s, margin):
        for _ in range(steps):
            vq, vqb = self._step(vq, vqb, ctx, dt_s)
        return vq < vqb


class _RoleShifts:
    """Kernel context of :class:`ExactCell`: the raw ``(n, 6)`` shifts."""

    def __init__(self, shifts):
        self.shifts = shifts

    def take(self, keep):
        return _RoleShifts(self.shifts[keep])


class ExactCell(FullHorizonCell):
    """The original cell: per-role currents, full-horizon relaxation."""

    def _make_ctx(self, shifts):
        return _RoleShifts(shifts)

    def _deriv_currents(self, a, b, ctx):
        return exact_node_currents(self, a, b, ctx.shifts)


def dense_pof_table(design, config, cell_cls=FastCell, kernel="tabulated"):
    """The characterization with every grid point simulated densely.

    Samples the same variation shifts as
    :func:`~repro.sram.characterize_cell`, sizes the I-V tables with the
    same pad (``kernel="tabulated"``; ``"fused"`` builds none), settles
    per Vdd, runs every mesh point of every combo for every sample, and
    finishes each grid with the shipped monotone and resampling steps.
    """
    n_samples = config.n_samples if config.process_variation else 1
    variation = VariationModel(
        sigma_vth_v=design.tech.sigma_vth_v,
        enabled=config.process_variation,
    )
    shifts = variation.sample_shifts(
        n_samples, design.nfins(), np.random.default_rng(config.seed)
    )
    pad = _TABLE_PAD_HEADROOM * float(np.max(np.abs(shifts)))
    shared_axis = config.charge_axis_c()
    pof = {combo: [] for combo in ALL_COMBOS}
    for vdd in config.vdd_list:
        tables = None
        if kernel == "tabulated":
            tables = IVTables(design, vdd, shift_pad_v=pad)
        cell = cell_cls(design, vdd, tables)
        settled = cell.settle(shifts, dt_s=config.dt_s)
        for combo in ALL_COMBOS:
            axis = config.axis_for_combo(combo)
            mesh = np.meshgrid(*([axis] * len(combo)), indexing="ij")
            n_points = mesh[0].size
            charges = np.zeros((n_points, 3), dtype=np.float64)
            for dim, strike_index in enumerate(combo):
                charges[:, strike_index] = mesh[dim].ravel()
            flipped = cell.run_impulse(
                np.repeat(charges, n_samples, axis=0),
                np.tile(shifts, (n_points, 1)),
                settled=(
                    np.tile(settled[0], n_points),
                    np.tile(settled[1], n_points),
                ),
                t_sim_s=config.t_sim_s,
                dt_s=config.dt_s,
            )
            pof_flat = flipped.reshape(n_points, n_samples).mean(axis=1)
            grid = _enforce_monotone(pof_flat.reshape(mesh[0].shape))
            pof[combo].append(_resample_to_axis(grid, axis, shared_axis))
    return PofTable(
        vdd_list=np.array(config.vdd_list),
        charge_axis_c=shared_axis,
        pof={combo: np.stack(grids) for combo, grids in pof.items()},
        process_variation=config.process_variation,
        n_samples=n_samples,
    )


def round_flip_outcomes(cell, rows, shifts, settled, config):
    """:func:`repro.sram.characterize._flip_outcomes` in rounds.

    Every round runs the midpoints of all unfinished (line, sample)
    chains as one :meth:`FastCell.run_impulse` batch under the
    population's early-exit margin, and waits for the batch's slowest
    row.  Returns the ``(n_rows, n_samples)`` outcomes and the number of
    rows integrated.
    """
    _, line_of_row, line_len = np.unique(
        rows[:, 0], return_inverse=True, return_counts=True
    )
    line_start = np.cumsum(line_len) - line_len
    margin = cell.early_exit_margin_v(shifts)
    lo = np.zeros((len(line_len), shifts.shape[0]), dtype=np.int64)
    hi = np.repeat(line_len[:, np.newaxis], shifts.shape[0], axis=1)
    sims = 0
    while True:
        line, sample = np.nonzero(lo < hi)
        if not line.size:
            break
        mid = (lo[line, sample] + hi[line, sample]) // 2
        charges = np.zeros((line.size, 3), dtype=np.float64)
        charges[:, :2] = rows[line_start[line] + mid]
        flipped = cell.run_impulse(
            charges,
            shifts[sample],
            settled=(settled[0][sample], settled[1][sample]),
            t_sim_s=config.t_sim_s,
            dt_s=config.dt_s,
            margin_v=margin,
        )
        hi[line[flipped], sample[flipped]] = mid[flipped]
        lo[line[~flipped], sample[~flipped]] = mid[~flipped] + 1
        sims += line.size
    pos_of_row = np.arange(len(rows)) - line_start[line_of_row]
    return lo[line_of_row] <= pos_of_row[:, np.newaxis], sims
