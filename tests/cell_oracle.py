"""Reference cell kernels and characterization, kept as test oracles.

The shipped cell runs one path per caller: the fused (or tabulated)
current kernel with early-exit relaxation, and the characterization
bisects each variation sample's flip frontier.  These oracles swap the
optimizations back out so tests can hold the shipped path to its
contracts:

* :class:`FullHorizonCell` -- the shipped current kernel, but every
  trajectory is integrated to the full horizon (no early exit);
* :class:`ExactCell` -- additionally evaluates the six devices with one
  compact-model call per role, the original implementation;
* :func:`dense_pof_table` -- the dense characterization: every grid
  point of every combo simulated for every variation sample.
"""

import numpy as np

from repro.devices import VariationModel
from repro.sram import ALL_COMBOS, FastCell, IVTables, PofTable
from repro.sram.characterize import (
    _TABLE_PAD_HEADROOM,
    _enforce_monotone,
    _resample_to_axis,
)


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


def dense_pof_table(design, config, cell_cls=FastCell):
    """The characterization with every grid point simulated densely.

    Samples the same variation shifts as
    :func:`~repro.sram.characterize_cell`, sizes the I-V tables with the
    same pad, settles per Vdd, runs every mesh point of every combo for
    every sample, and finishes each grid with the shipped monotone and
    resampling steps.
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
        if config.kernel == "tabulated":
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
            grid = pof_flat.reshape(mesh[0].shape)
            if config.enforce_monotone:
                grid = _enforce_monotone(grid)
            pof[combo].append(_resample_to_axis(grid, axis, shared_axis))
    return PofTable(
        vdd_list=np.array(config.vdd_list),
        charge_axis_c=shared_axis,
        pof={combo: np.stack(grids) for combo, grids in pof.items()},
        process_variation=config.process_variation,
        n_samples=n_samples,
    )
