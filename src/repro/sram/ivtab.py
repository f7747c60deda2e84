"""Tabulated I-V backend for the fast cell kernel.

The hold-state cell only ever evaluates its six transistors in three
configurations -- pull-down (source grounded), pass-gate (drain at the
bit line, gate at the low word line) and pull-up (source at Vdd).  In
each configuration the compact model depends on exactly two scalars:
the free node voltage ``u`` and an *effective gate voltage* ``w`` that
absorbs the per-device threshold shift.  This is exact, not an
approximation: :class:`~repro.devices.finfet.FinFETModel` enters its
threshold only through ``vgs - vth``, so

* NMOS: ``ids(vd, vg, vs, dvth) == ids(vd, vg - dvth, vs, 0)``
* PMOS: ``ids(vd, vg, vs, dvth) == ids(vd, vg + dvth, vs, 0)``

:class:`IVTables` therefore stores one dense ``(3, nu, nw)`` grid per
(design, Vdd) -- one slab per role type, with the role's fin count
baked in -- and evaluates it with bilinear interpolation.  All three
slabs share both axes, so one stage evaluation of the whole batch is a
single index computation plus four flat gathers, regardless of how
many devices or nodes are being served.

The stored value is ``asinh(I / I_SCALE_A)`` rather than the raw
current: in subthreshold the current is exponential in ``w``, which
the asinh compression turns into a *linear* function of ``w``, so
bilinear interpolation is nearly exact precisely where the flip
boundary is decided.  The only approximation error left is the gentle
curvature of the strong-inversion and triode regions (see
``docs/performance.md`` for the measured accuracy budget).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ConfigError

__all__ = ["IVTables", "DEFAULT_TABLE_POINTS", "I_SCALE_A"]

#: Default points per table axis.  769 points over the ~2.3 V clamped
#: node range is a ~3 mV pitch; with the asinh value compression the
#: resulting critical-charge boundary shift is ~1.5e-4 in log charge,
#: an order of magnitude below the spacing between Monte Carlo samples
#: and the charge grid at characterization scale, which keeps the POF
#: deviation versus the exact kernel inside the documented 0.01 budget
#: (asserted by tests and the perf harness).
DEFAULT_TABLE_POINTS = 769

#: Current scale of the asinh compression [A].  Chosen between the
#: off-state leakage (~nA) and the on-current (~50 uA) so subthreshold
#: currents land on the logarithmic branch of asinh.
I_SCALE_A = 1.0e-9

#: Minimum half-width of the threshold-shift headroom [V] -- keeps the
#: gate axis meaningful in the no-variation case (all shifts zero).
_MIN_W_PAD_V = 0.05


class IVTables:
    """Bilinear LUT of the three hold-state device configurations.

    Slab order along the leading axis is (pull-down, pass-gate,
    pull-up); fin counts are baked into the stored currents.

    Parameters
    ----------
    design:
        Cell design (technology card + fin counts).
    vdd_v:
        Supply voltage the pass-gate/pull-up rails are pinned to.
    shift_pad_v:
        Threshold-shift headroom [V] widening the effective-gate axis;
        must cover ``max |dvth|`` of every query batch
        (:meth:`covers` checks, callers rebuild when exceeded).
    points:
        Grid points per axis.
    clamp_margin_v:
        Node-voltage clamp margin beyond the rails [V] (the ``u`` axis
        spans ``[-margin, vdd + margin]``).
    """

    def __init__(
        self,
        design,
        vdd_v: float,
        shift_pad_v: float = _MIN_W_PAD_V,
        points: int = DEFAULT_TABLE_POINTS,
        clamp_margin_v: float = 0.6,
    ):
        if vdd_v <= 0:
            raise ConfigError("Vdd must be positive")
        if shift_pad_v < 0:
            raise ConfigError("shift pad cannot be negative")
        if points < 8:
            raise ConfigError("need >= 8 table points per axis")
        self.vdd = float(vdd_v)
        self.points = int(points)
        self.shift_pad_v = max(float(shift_pad_v), _MIN_W_PAD_V)
        pad = self.shift_pad_v
        self.u_lo = -float(clamp_margin_v)
        u_hi = self.vdd + float(clamp_margin_v)
        self.w_lo = self.u_lo - pad
        w_hi = u_hi + pad
        n = self.points
        self.u_inv_step = (n - 1) / (u_hi - self.u_lo)
        self.w_inv_step = (n - 1) / (w_hi - self.w_lo)

        u = np.linspace(self.u_lo, u_hi, n)[:, np.newaxis]
        w = np.linspace(self.w_lo, w_hi, n)[np.newaxis, :]
        nmos = design.tech.nmos
        pmos = design.tech.pmos
        z = np.empty((3, n, n), dtype=np.float64)
        # pull-down: drain at the node, source grounded
        z[0] = np.arcsinh(
            design.nfin_of("pd_l") * nmos.ids(u, w, 0.0) / I_SCALE_A
        )
        # pass-gate: drain at the bit line (vdd), source at the node
        z[1] = np.arcsinh(
            design.nfin_of("pg_l") * nmos.ids(self.vdd, w, u) / I_SCALE_A
        )
        # pull-up: drain at the node, source at vdd
        z[2] = np.arcsinh(
            design.nfin_of("pu_l") * pmos.ids(u, w, self.vdd) / I_SCALE_A
        )
        self.z = z
        self._flat = z.ravel()
        # flat offset of each slab, as a column for (3, m) query batches
        self._slab = (np.arange(3) * n * n)[:, np.newaxis]

    def covers(self, max_shift_v: float) -> bool:
        """Whether the effective-gate axis absorbs ``max |dvth|``."""
        return float(max_shift_v) <= self.shift_pad_v

    def currents(
        self, u: np.ndarray, w_pd: np.ndarray, w_pg: np.ndarray, w_pu: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Interpolated (pull-down, pass-gate, pull-up) currents [A].

        ``u`` is the free-node voltage of every query; the ``w_*`` are
        the matching effective gate voltages (gate minus shift for the
        n-type roles, gate plus shift for the p-type).
        """
        i = self.currents_stacked(u, np.stack((w_pd, w_pg, w_pu)))
        return i[0], i[1], i[2]

    def currents_stacked(self, u: np.ndarray, w3: np.ndarray) -> np.ndarray:
        """Interpolated currents [A] for a stacked query.

        ``u`` has shape ``(m,)``; ``w3`` has shape ``(3, m)`` with rows
        (pull-down, pass-gate, pull-up).  Returns ``(3, m)`` currents.
        This is the hot entry point: one index computation and four
        flat gathers serve all three device types at once.
        """
        n = self.points
        tu = (u - self.u_lo) * self.u_inv_step
        iu = np.clip(tu.astype(np.int64), 0, n - 2)
        fu = tu - iu
        tw = (w3 - self.w_lo) * self.w_inv_step
        jw = np.clip(tw.astype(np.int64), 0, n - 2)
        fw = tw - jw
        base = self._slab + iu * n + jw
        flat = self._flat
        v00 = flat[base]
        v01 = flat[base + 1]
        v10 = flat[base + n]
        v11 = flat[base + n + 1]
        z0 = v00 + (v01 - v00) * fw
        z1 = v10 + (v11 - v10) * fw
        return I_SCALE_A * np.sinh(z0 + (z1 - z0) * fu)

    def __getstate__(self):
        state = self.__dict__.copy()
        # the flat view rebuilds for free; keep the pickle payload lean
        state.pop("_flat", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._flat = self.z.ravel()
