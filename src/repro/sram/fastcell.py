"""Fast vectorized strike simulation of the 6T cell.

The paper's cell characterization needs POF over (Vdd x charge grid x
strike combination x 1000 variation samples) -- far too many transient
runs for a general-purpose MNA engine.  :class:`FastCell` integrates
the cell's exact 2-state ODE (storage nodes ``q``/``qb``; all other
nodes are ideal rails in the hold state) with RK4, vectorized across an
arbitrary batch of (charge, Vth-shift) scenarios.  It uses the *same*
:class:`~repro.devices.FinFETModel` equations as the MNA engine, so the
two agree by construction (an integration test enforces this).

Strike injection modes
----------------------
* ``"impulse"`` (default) -- the paper's rectangular pulse has width
  tau ~ 17 fs (eq. 2), three orders of magnitude faster than the cell's
  ~1.3 ps feedback time, so the deposited charge simply steps the node
  voltage by Q/C before the cell responds.  The paper itself verifies
  POF depends only on charge (Section 4); the impulse limit is that
  observation taken exactly.  Excursions are clamped to
  [-0.6 V, Vdd + 0.6 V], emulating junction clamping of overdriven
  nodes.
* ``"pulse"`` -- resolve a rectangular current pulse of a given width
  explicitly (used by the pulse-width ablation).

Current kernels
---------------
The RK4 stage derivative is served by one of two kernels, chosen by
whether the cell is given I-V tables (see ``docs/performance.md``):

* ``"fused"`` (no tables) -- two stacked compact-model calls per stage
  (one batched n-type for {pd_l, pg_l, pd_r, pg_r}, one batched p-type
  for {pu_l, pu_r}).  Bit-identical to six per-role calls: the model is
  purely elementwise, so stacking rows changes nothing but the
  Python-call count.  Qcrit extraction and the circuit baseline use it.
* ``"tabulated"`` (``tables=``) -- bilinear lookups into per-(role-type,
  Vdd) :class:`~repro.sram.ivtab.IVTables` built once per Vdd by the
  characterization and amortized over every stage evaluation.
  Approximate, with a tested POF accuracy budget.

Strike relaxation always exits early: trajectories whose node
separation has regeneratively latched (checked every
``_EARLY_EXIT_CHECK_EVERY`` steps) are frozen and the live batch is
compacted, so the fixed integration horizon is only paid near the flip
boundary.  Outcomes equal the full-horizon integration.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..obs import get_registry
from .cell import ROLES, SramCellDesign
from .ivtab import IVTables

#: Node-voltage clamp margin beyond the rails [V] -- the forward drop
#: of the junctions that catch an overdriven storage node.
_CLAMP_MARGIN_V = 0.6

#: Early-exit separation margin as a fraction of Vdd.  A
#: trajectory whose |vq - vqb| stays beyond the margin with a stable
#: sign across two consecutive checks is past the metastable point by
#: more than any excursion the regenerative feedback can still undo,
#: so it can only latch to that side -- the outcome is decided.
#: Stress integration over the reachable post-strike state space shows
#: wrong-side excursions (a trajectory visiting s < -m yet ending
#: unflipped, or vice versa) bounded by ~1.1x the worst per-device
#: |dVth| of the batch, so the margin is
#: max(0.6 * Vdd, 1.5 * max|dVth|); if mismatch is so extreme that the
#: margin exceeds the latched separation, nothing freezes and the loop
#: silently degrades to the full horizon (correct, just not faster).
#: The equality tests compare against the full-horizon run.
_EARLY_EXIT_MARGIN_FRAC = 0.6

#: Safety factor on the batch's worst |dVth| in the margin.
_EARLY_EXIT_SHIFT_FACTOR = 1.5

#: Integration steps between early-exit checks.
_EARLY_EXIT_CHECK_EVERY = 8


class _FusedCtx:
    """Pre-gathered shift rows for the stacked two-call kernel.

    ``nsh`` rows are (pd_l, pg_l, pd_r, pg_r); ``psh`` rows are
    (pu_l, pu_r) -- the order the stage stacks its terminal voltages.
    """

    __slots__ = ("nsh", "psh")

    def __init__(self, nsh: np.ndarray, psh: np.ndarray):
        self.nsh = nsh
        self.psh = psh

    def take(self, keep: np.ndarray) -> "_FusedCtx":
        return _FusedCtx(self.nsh[:, keep], self.psh[:, keep])


#: Row mask turning the opposite-node voltage into the three effective
#: gate queries: the pass-gate's gate is the grounded word line, so its
#: row ignores the node voltage entirely.
_TAB_GATE_MASK = np.array([[1.0], [0.0], [1.0]])


class _TabCtx:
    """Effective-gate offsets for the tabulated kernel.

    ``offsets`` has shape ``(3, 2n)`` with rows (-d_pd, -d_pg, +d_pu);
    the stage query is ``w3 = other * _TAB_GATE_MASK + offsets`` where
    ``other`` is the opposite-node voltage.  Columns: the first ``n``
    serve node q (devices pd_l/pg_l/pu_l), the last ``n`` node qb
    (pd_r/pg_r/pu_r), so one table query per stage covers both nodes.
    """

    __slots__ = ("tables", "offsets")

    def __init__(self, tables, offsets):
        self.tables = tables
        self.offsets = offsets

    def take(self, keep: np.ndarray) -> "_TabCtx":
        keep2 = np.concatenate([keep, keep])
        return _TabCtx(self.tables, self.offsets[:, keep2])


class FastCell:
    """Vectorized two-node hold-state model of one 6T cell at fixed Vdd.

    Parameters
    ----------
    design, vdd_v:
        Cell design and supply voltage.
    tables:
        :class:`~repro.sram.ivtab.IVTables` built for ``vdd_v``; given,
        the cell runs the tabulated kernel, and every batch's shifts
        must lie inside the tables' shift pad.  ``None`` runs the fused
        compact-model kernel.
    """

    def __init__(
        self,
        design: SramCellDesign,
        vdd_v: float,
        tables: Optional[IVTables] = None,
    ):
        if vdd_v <= 0:
            raise ConfigError("Vdd must be positive")
        self.design = design
        self.vdd = float(vdd_v)
        self.cap_f = design.tech.node_cap_f
        self.kernel = "fused" if tables is None else "tabulated"
        self._nmos = design.tech.nmos
        self._pmos = design.tech.pmos
        self._idx = {role: design.role_index(role) for role in ROLES}
        self._nfin = {role: design.nfin_of(role) for role in ROLES}
        # fin counts in stacked-row order, as column vectors so the
        # per-row scale broadcasts across the batch
        self._nf_n = np.array(
            [
                [self._nfin["pd_l"]],
                [self._nfin["pg_l"]],
                [self._nfin["pd_r"]],
                [self._nfin["pg_r"]]
            ],
            dtype=np.float64,
        )
        self._nf_p = np.array(
            [[self._nfin["pu_l"]], [self._nfin["pu_r"]]], dtype=np.float64
        )
        if tables is not None and abs(tables.vdd - self.vdd) > 1e-12:
            raise ConfigError("I-V tables were built for a different Vdd")
        self._tables = tables

    # -- dynamics -------------------------------------------------------------

    def _deriv_currents(self, a, b, ctx):
        """Stage currents [A] into (q, qb) under the cell's kernel.

        A device's ids flows drain -> source, i.e. *out of* its drain
        node: the pull-up sources current into its node, the pull-down
        sinks it, and the pass-gate leaks it in from the bit line.
        """
        if isinstance(ctx, _FusedCtx):
            vf = np.full_like(a, self.vdd)
            z = np.zeros_like(a)
            # row order (pd_l, pg_l, pd_r, pg_r) / (pu_l, pu_r)
            vd_n = np.stack((a, vf, b, vf))
            vg_n = np.stack((b, z, a, z))
            vs_n = np.stack((z, a, z, b))
            ids_n = self._nf_n * self._nmos.ids(
                vd_n, vg_n, vs_n, vth_shift=ctx.nsh
            )
            vd_p = np.stack((a, b))
            vg_p = np.stack((b, a))
            vs_p = np.full_like(vd_p, self.vdd)
            ids_p = self._nf_p * self._pmos.ids(
                vd_p, vg_p, vs_p, vth_shift=ctx.psh
            )
            i_q = -ids_p[0] - ids_n[0] + ids_n[1]
            i_qb = -ids_p[1] - ids_n[2] + ids_n[3]
            return i_q, i_qb
        # tabulated: both nodes, all three device types, one gather
        n = a.shape[0]
        u = np.concatenate([a, b])
        other = np.concatenate([b, a])
        i3 = ctx.tables.currents_stacked(
            u, other * _TAB_GATE_MASK + ctx.offsets
        )
        i = -i3[2] - i3[0] + i3[1]
        return i[:n], i[n:]

    def _step(self, vq, vqb, ctx, dt, extra_q=0.0, extra_qb=0.0):
        """One RK4 step; ``extra_*`` are additional injected currents [A]."""
        c = self.cap_f

        def deriv(a, b):
            i_q, i_qb = self._deriv_currents(a, b, ctx)
            return (i_q + extra_q) / c, (i_qb + extra_qb) / c

        k1q, k1b = deriv(vq, vqb)
        k2q, k2b = deriv(vq + 0.5 * dt * k1q, vqb + 0.5 * dt * k1b)
        k3q, k3b = deriv(vq + 0.5 * dt * k2q, vqb + 0.5 * dt * k2b)
        k4q, k4b = deriv(vq + dt * k3q, vqb + dt * k3b)
        vq_new = vq + dt / 6.0 * (k1q + 2 * k2q + 2 * k3q + k4q)
        vqb_new = vqb + dt / 6.0 * (k1b + 2 * k2b + 2 * k3b + k4b)
        return self._clamp(vq_new), self._clamp(vqb_new)

    def _clamp(self, v):
        return np.clip(v, -_CLAMP_MARGIN_V, self.vdd + _CLAMP_MARGIN_V)

    # -- kernel plumbing ------------------------------------------------------

    def _make_ctx(self, shifts: np.ndarray):
        """Build the per-batch kernel context for validated ``shifts``."""
        if self._tables is None:
            nsh = np.stack(
                (
                    shifts[:, self._idx["pd_l"]],
                    shifts[:, self._idx["pg_l"]],
                    shifts[:, self._idx["pd_r"]],
                    shifts[:, self._idx["pg_r"]],
                )
            )
            psh = np.stack(
                (shifts[:, self._idx["pu_l"]], shifts[:, self._idx["pu_r"]])
            )
            return _FusedCtx(nsh, psh)
        max_shift = float(np.max(np.abs(shifts))) if shifts.size else 0.0
        if not self._tables.covers(max_shift):
            raise ConfigError(
                f"I-V tables cover |dVth| <= {self._tables.shift_pad_v:g} V "
                f"but the batch reaches {max_shift:g} V"
            )
        offsets = np.stack(
            (
                -np.concatenate(
                    [shifts[:, self._idx["pd_l"]], shifts[:, self._idx["pd_r"]]]
                ),
                -np.concatenate(
                    [shifts[:, self._idx["pg_l"]], shifts[:, self._idx["pg_r"]]]
                ),
                np.concatenate(
                    [shifts[:, self._idx["pu_l"]], shifts[:, self._idx["pu_r"]]]
                ),
            )
        )
        return _TabCtx(self._tables, offsets)

    def early_exit_margin_v(self, shifts: np.ndarray) -> float:
        """Early-exit margin [V] for a batch (see module constants)."""
        max_shift = float(np.max(np.abs(shifts))) if shifts.size else 0.0
        return max(
            _EARLY_EXIT_MARGIN_FRAC * self.vdd,
            _EARLY_EXIT_SHIFT_FACTOR * max_shift,
        )

    def _relax(
        self, vq, vqb, ctx, steps: int, dt_s: float, margin: float
    ) -> np.ndarray:
        """Free relaxation for ``steps``; returns the flip mask.

        Trajectories whose separation has regeneratively latched are
        frozen at the checkpoints and the live batch is compacted;
        outcomes equal the full-horizon run.
        """
        n = vq.shape[0]
        outcome = np.zeros(n, dtype=bool)
        active = np.arange(n)
        s_prev = vq - vqb
        done = 0
        frozen_total = 0
        saved_total = 0
        while done < steps and active.size:
            span = min(_EARLY_EXIT_CHECK_EVERY, steps - done)
            for _ in range(span):
                vq, vqb = self._step(vq, vqb, ctx, dt_s)
            done += span
            s = vq - vqb
            # decided: beyond the margin with a stable sign at two
            # consecutive checkpoints (overshoot past the rails relaxes
            # |s| back toward Vdd, so "still growing" is NOT required)
            decided = (
                (np.abs(s) > margin)
                & (np.abs(s_prev) > margin)
                & (s * s_prev > 0.0)
            )
            if decided.any():
                outcome[active[decided]] = s[decided] < 0.0
                n_dec = int(decided.sum())
                frozen_total += n_dec
                saved_total += n_dec * (steps - done)
                keep = ~decided
                active = active[keep]
                vq = vq[keep]
                vqb = vqb[keep]
                s = s[keep]
                ctx = ctx.take(keep)
            s_prev = s
        if active.size:
            outcome[active] = vq < vqb
        reg = get_registry()
        if reg.enabled and frozen_total:
            reg.counter("characterize.kernel.early_exit.frozen").inc(
                frozen_total
            )
            reg.counter("characterize.kernel.early_exit.steps_saved").inc(
                saved_total
            )
        return outcome

    def _count_run(self):
        reg = get_registry()
        if reg.enabled:
            reg.counter(f"characterize.kernel.runs.{self.kernel}").inc()

    def settle(
        self,
        shifts: np.ndarray,
        t_settle_s: float = 2.0e-11,
        dt_s: float = 2.5e-13,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Relax from the ideal (Vdd, 0) state to the leakage-balanced
        hold point of each variation sample."""
        shifts = self._check_shifts(shifts)
        ctx = self._make_ctx(shifts)
        n = shifts.shape[0]
        vq = np.full(n, self.vdd, dtype=np.float64)
        vqb = np.zeros(n, dtype=np.float64)
        steps = max(int(round(t_settle_s / dt_s)), 1)
        for _ in range(steps):
            vq, vqb = self._step(vq, vqb, ctx, dt_s)
        return vq, vqb

    # -- strike experiments ------------------------------------------------------

    def run_impulse(
        self,
        charges_c: np.ndarray,
        shifts: np.ndarray,
        settled: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        t_sim_s: float = 3.0e-11,
        dt_s: float = 2.5e-13,
        margin_v: Optional[float] = None,
    ) -> np.ndarray:
        """Impulse-mode strike batch; returns a boolean flip mask.

        Parameters
        ----------
        charges_c:
            ``(n, 3)`` charges [C] for (I1, I2, I3).
        shifts:
            ``(n, 6)`` per-role Vth shifts [V].
        settled:
            Pre-settled ``(vq, vqb)`` baselines (broadcastable to n);
            computed if omitted.
        margin_v:
            Early-exit margin [V], by default :meth:`early_exit_margin_v`
            of this batch; pass the population's when splitting one
            variation population over several batches.
        """
        charges = self._check_charges(charges_c)
        shifts = self._check_shifts(shifts, charges.shape[0])
        self._count_run()
        if settled is None:
            vq, vqb = self.settle(shifts)
        else:
            vq = np.broadcast_to(settled[0], (charges.shape[0],)).astype(np.float64).copy()
            vqb = np.broadcast_to(settled[1], (charges.shape[0],)).astype(np.float64).copy()

        # I1 pulls q down; I2 and I3 push qb up (STRIKE_TARGETS).
        vq = self._clamp(vq - charges[:, 0] / self.cap_f)
        vqb = self._clamp(vqb + (charges[:, 1] + charges[:, 2]) / self.cap_f)

        steps = max(int(round(t_sim_s / dt_s)), 1)
        if margin_v is None:
            margin_v = self.early_exit_margin_v(shifts)
        return self._relax(
            vq, vqb, self._make_ctx(shifts), steps, dt_s, margin_v
        )

    def run_pulse(
        self,
        charges_c: np.ndarray,
        shifts: np.ndarray,
        pulse_width_s: float,
        settled: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        t_sim_s: float = 3.0e-11,
        dt_s: float = 2.5e-13,
    ) -> np.ndarray:
        """Resolved rectangular-pulse strike batch (width ablation).

        The pulse starts at t = 0 with amplitude ``Q / width`` per
        strike (paper eq. 3) and is integrated with sub-steps fine
        enough to resolve it.
        """
        if pulse_width_s <= 0:
            raise ConfigError("pulse width must be positive")
        charges = self._check_charges(charges_c)
        shifts = self._check_shifts(shifts, charges.shape[0])
        self._count_run()
        ctx = self._make_ctx(shifts)
        if settled is None:
            vq, vqb = self.settle(shifts)
        else:
            vq = np.broadcast_to(settled[0], (charges.shape[0],)).astype(np.float64).copy()
            vqb = np.broadcast_to(settled[1], (charges.shape[0],)).astype(np.float64).copy()

        amp_q = -charges[:, 0] / pulse_width_s
        amp_qb = (charges[:, 1] + charges[:, 2]) / pulse_width_s

        # Phase 1: during the pulse, with >= 20 sub-steps across it.
        # (No early exit here: the injected currents can still reverse
        # a separation that looks decided.)
        pulse_dt = min(dt_s, pulse_width_s / 20.0)
        pulse_steps = max(int(round(pulse_width_s / pulse_dt)), 1)
        for _ in range(pulse_steps):
            vq, vqb = self._step(
                vq, vqb, ctx, pulse_dt, extra_q=amp_q, extra_qb=amp_qb
            )
        # Phase 2: free relaxation.
        steps = max(int(round(t_sim_s / dt_s)), 1)
        return self._relax(
            vq, vqb, ctx, steps, dt_s, self.early_exit_margin_v(shifts)
        )

    def critical_charge_c(
        self,
        direction: np.ndarray,
        shifts: np.ndarray,
        q_lo_c: float = 1.0e-18,
        q_hi_c: float = 2.0e-14,
        iterations: int = 28,
        settled: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> np.ndarray:
        """Per-sample critical charge along a strike direction [C].

        ``direction`` is a non-negative (3,) unit split of total charge
        over (I1, I2, I3); bisection runs vectorized over the ``shifts``
        batch.  Samples that do not flip even at ``q_hi_c`` report
        ``q_hi_c`` (callers should treat the ceiling as censored).
        """
        direction = np.asarray(direction, dtype=np.float64)
        if direction.shape != (3,) or np.any(direction < 0) or direction.sum() <= 0:
            raise ConfigError("direction must be a non-negative (3,) split")
        direction = direction / direction.sum()
        shifts = self._check_shifts(shifts)
        n = shifts.shape[0]
        if settled is None:
            settled = self.settle(shifts)

        lo = np.full(n, q_lo_c, dtype=np.float64)
        hi = np.full(n, q_hi_c, dtype=np.float64)
        # ensure hi actually flips; if not, it will stay censored at hi
        for _ in range(iterations):
            mid = np.sqrt(lo * hi)  # bisection in log space
            charges = mid[:, np.newaxis] * direction[np.newaxis, :]
            flipped = self.run_impulse(charges, shifts, settled=settled)
            hi = np.where(flipped, mid, hi)
            lo = np.where(flipped, lo, mid)
        return hi

    # -- validation helpers ---------------------------------------------------

    def _check_charges(self, charges_c) -> np.ndarray:
        charges = np.atleast_2d(np.asarray(charges_c, dtype=np.float64))
        if charges.ndim != 2 or charges.shape[1] != 3:
            raise ConfigError("charges must have shape (n, 3)")
        if np.any(charges < 0):
            raise ConfigError("charges cannot be negative")
        return charges

    def _check_shifts(self, shifts, expected_n: Optional[int] = None) -> np.ndarray:
        shifts = np.atleast_2d(np.asarray(shifts, dtype=np.float64))
        if shifts.ndim != 2 or shifts.shape[1] != len(ROLES):
            raise ConfigError(f"shifts must have shape (n, {len(ROLES)})")
        if expected_n is not None and shifts.shape[0] != expected_n:
            if shifts.shape[0] == 1:
                shifts = np.repeat(shifts, expected_n, axis=0)
            else:
                raise ConfigError(
                    "shifts batch size must match charges batch size"
                )
        return shifts
