"""Reference cell kernels, kept as test oracles for :class:`FastCell`.

The shipped cell runs one path per caller: the fused (or tabulated)
current kernel with early-exit relaxation.  These subclasses swap the
two optimizations back out so tests can hold the shipped path to its
contracts:

* :class:`FullHorizonCell` -- the shipped current kernel, but every
  trajectory is integrated to the full horizon (no early exit);
* :class:`ExactCell` -- additionally evaluates the six devices with one
  compact-model call per role, the original implementation.
"""

from repro.sram import FastCell


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
