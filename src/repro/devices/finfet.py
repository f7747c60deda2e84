"""Smooth compact I-V model for short-channel SOI FinFETs.

The proprietary 14 nm model card the paper uses (via [28, 29]) is
replaced by a smooth EKV/alpha-power hybrid that captures exactly the
behaviours the SRAM flip dynamics depend on:

* exponential subthreshold conduction with a realistic swing,
* alpha-power-law strong inversion with velocity saturation
  (``alpha`` between 1 and 2, short-channel devices sit near 1.3),
* smooth triode-to-saturation transition (tanh) and channel-length
  modulation,
* full drain-source symmetry (the model is evaluated source-referenced
  from the lower-potential terminal, so ``vds`` of either sign works),
* a per-device threshold-voltage shift hook for process variation.

The same vectorized functions serve both the MNA circuit engine and the
fast array-characterization path (:mod:`repro.sram.fastcell`), so the
two solvers agree by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..constants import THERMAL_VOLTAGE_300K
from ..errors import ConfigError

NMOS = 1
PMOS = -1


@dataclass(frozen=True)
class FinFETModel:
    """Compact-model card for one device flavour.

    Attributes
    ----------
    name:
        Card identifier (``"nfet14"`` ...).
    polarity:
        ``NMOS`` (+1) or ``PMOS`` (-1).
    vth0_v:
        Nominal threshold voltage magnitude [V].
    beta_a_per_valpha:
        Strong-inversion transconductance coefficient per fin
        [A / V^alpha]: ``Id_sat = beta * veff^alpha``.
    alpha:
        Velocity-saturation exponent (2 = long channel, ~1.3 at 14 nm).
    n_factor:
        Subthreshold slope factor; swing = ``n vt ln10 / alpha``.
    vdsat_coeff:
        Saturation voltage proportionality: ``vdsat = max(vdsat_min,
        vdsat_coeff * veff)``.
    vdsat_min_v:
        Floor of the saturation voltage [V].
    lambda_v:
        Channel-length modulation [1/V].
    cgg_f:
        Total gate capacitance per fin [F] (split evenly gs/gd).
    cdb_f:
        Drain junction/fringe capacitance per fin [F] (small in SOI).
    """

    name: str
    polarity: int
    vth0_v: float
    beta_a_per_valpha: float
    alpha: float
    n_factor: float
    vdsat_coeff: float = 0.6
    vdsat_min_v: float = 0.05
    lambda_v: float = 0.05
    cgg_f: float = 4.0e-17
    cdb_f: float = 1.0e-17
    #: Junction temperature [K].  Enters the subthreshold slope through
    #: kT/q; use :meth:`at_temperature` to also apply the Vth and
    #: mobility temperature coefficients.
    temperature_k: float = 300.0

    def __post_init__(self):
        if self.polarity not in (NMOS, PMOS):
            raise ConfigError("polarity must be +1 (NMOS) or -1 (PMOS)")
        if self.vth0_v <= 0:
            raise ConfigError("vth0 must be a positive magnitude")
        if self.beta_a_per_valpha <= 0:
            raise ConfigError("beta must be positive")
        if not (1.0 <= self.alpha <= 2.0):
            raise ConfigError("alpha must lie in [1, 2]")
        if self.n_factor < 1.0:
            raise ConfigError("subthreshold n-factor must be >= 1")
        if self.vdsat_min_v <= 0 or self.vdsat_coeff <= 0:
            raise ConfigError("saturation-voltage parameters must be positive")
        if self.lambda_v < 0:
            raise ConfigError("channel-length modulation cannot be negative")
        if self.temperature_k <= 0:
            raise ConfigError("temperature must be positive")

    # -- core NMOS-referenced equations (vectorized) ----------------------

    @property
    def thermal_voltage_v(self) -> float:
        """kT/q at the model's junction temperature [V]."""
        from ..constants import BOLTZMANN_EV_PER_K

        return BOLTZMANN_EV_PER_K * self.temperature_k

    def _veff(self, vgs, vth):
        """Smooth effective overdrive: n*vt*softplus((vgs-vth)/(n*vt))."""
        nvt = self.n_factor * self.thermal_voltage_v
        x = (np.asarray(vgs, dtype=np.float64) - vth) / nvt
        # log1p(exp(x)) computed stably on both branches
        return nvt * np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))

    def gate_terms(self, vgs, vth):
        """The gate-only factors ``(vdsat, idsat)`` of the core current.

        A caller holding one source-referenced gate voltage against many
        drain voltages evaluates these once and broadcasts them through
        :meth:`channel_ids`; the arithmetic is the same element for
        element as :meth:`ids`.
        """
        veff = self._veff(vgs, vth)
        vdsat = np.maximum(self.vdsat_min_v, self.vdsat_coeff * veff)
        idsat = self.beta_a_per_valpha * np.power(veff, self.alpha)
        return vdsat, idsat

    def channel_ids(self, vdsat, idsat, vds):
        """Core current from :meth:`gate_terms` at ``vds >= 0``."""
        vds = np.asarray(vds, dtype=np.float64)
        return idsat * np.tanh(vds / vdsat) * (1.0 + self.lambda_v * vds)

    def _core_ids(self, vgs, vds, vth):
        """Drain current for a source-referenced NMOS with vds >= 0."""
        return self.channel_ids(*self.gate_terms(vgs, vth), vds)

    def ids(self, vd, vg, vs, vth_shift=0.0):
        """Terminal current flowing drain -> source [A] (vectorized).

        Sign conventions: positive current exits the drain node for a
        conducting NMOS (drain above source); PMOS mirrors.  ``vth_shift``
        adds to the threshold magnitude (process variation hook).
        """
        vd = np.asarray(vd, dtype=np.float64)
        vg = np.asarray(vg, dtype=np.float64)
        vs = np.asarray(vs, dtype=np.float64)
        vth = self.vth0_v + np.asarray(vth_shift, dtype=np.float64)

        if self.polarity == NMOS:
            hi, lo = np.maximum(vd, vs), np.minimum(vd, vs)
            ids_mag = self._core_ids(vg - lo, hi - lo, vth)
            sign = np.where(vd >= vs, 1.0, -1.0)
            return sign * ids_mag
        # PMOS: mirror every potential
        hi, lo = np.maximum(vd, vs), np.minimum(vd, vs)
        ids_mag = self._core_ids(hi - vg, hi - lo, vth)
        sign = np.where(vd >= vs, -1.0, 1.0)
        # current flows source -> drain when conducting: drain->source
        # current is negative for vd < vs ... sign handled above.
        return -sign * ids_mag

    # -- figures of merit ---------------------------------------------------

    def on_current(self, vdd: float) -> float:
        """|Id| at |vgs| = |vds| = vdd [A per fin]."""
        if self.polarity == NMOS:
            return float(self.ids(vdd, vdd, 0.0))
        return float(abs(self.ids(0.0, 0.0, vdd)))

    def off_current(self, vdd: float) -> float:
        """|Id| at vgs = 0, |vds| = vdd [A per fin]."""
        if self.polarity == NMOS:
            return float(abs(self.ids(vdd, 0.0, 0.0)))
        return float(abs(self.ids(0.0, vdd, vdd)))

    def subthreshold_swing_mv_dec(self) -> float:
        """Analytic subthreshold swing [mV/decade]."""
        import math

        return (
            self.n_factor * self.thermal_voltage_v * math.log(10.0) / self.alpha
        ) * 1.0e3

    def with_shift(self, delta_vth_v: float) -> "FinFETModel":
        """A copy with the threshold magnitude shifted (corner modeling)."""
        return replace(self, vth0_v=self.vth0_v + delta_vth_v)

    #: Threshold temperature coefficient [V/K] (magnitude decreases as
    #: the junction heats -- typical advanced-node value ~0.7 mV/K).
    VTH_TEMP_COEFF_V_PER_K = 7.0e-4
    #: Mobility temperature exponent (phonon-scattering limited).
    MOBILITY_TEMP_EXPONENT = 1.5

    def at_temperature(self, temperature_k: float) -> "FinFETModel":
        """A copy with the standard temperature coefficients applied.

        Three effects relative to the card's reference temperature:
        the subthreshold slope widens with kT/q, |Vth| drops by
        ~0.7 mV/K, and the drive current degrades with mobility as
        ``(T0/T)^1.5``.  Hotter silicon is therefore leakier *and*
        weaker -- the combination that makes SER grow with temperature.
        """
        if temperature_k <= 0:
            raise ConfigError("temperature must be positive")
        delta_t = temperature_k - self.temperature_k
        new_vth = max(
            self.vth0_v - self.VTH_TEMP_COEFF_V_PER_K * delta_t, 1.0e-3
        )
        mobility_factor = (
            self.temperature_k / temperature_k
        ) ** self.MOBILITY_TEMP_EXPONENT
        return replace(
            self,
            vth0_v=new_vth,
            beta_a_per_valpha=self.beta_a_per_valpha * mobility_factor,
            temperature_k=float(temperature_k),
        )
