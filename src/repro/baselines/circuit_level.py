"""The classic circuit-level SER baseline (paper related work [14, 17]).

Circuit-level-only studies estimate SER without any device/layout
Monte Carlo:

1. extract the cell's critical charge ``Qcrit`` with a canonical
   current source (the double exponential of Baumann [17]),
2. plug it into the empirical Hazucha-Svensson rate model

       SER = F * A_sens * exp(-Qcrit / Qs)

   where ``F`` is the particle flux, ``A_sens`` the sensitive area and
   ``Qs`` the technology's charge-collection slope.

What this baseline *cannot* produce -- and the paper's cross-layer flow
can -- is the SEU/MBU decomposition, the per-species energy dependence,
and the layout-driven multi-cell geometry.  The ablation bench compares
both on the same technology card.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..layout import SramArrayLayout
from ..physics import spectrum_for
from ..sram.cell import SramCellDesign
from ..sram.fastcell import FastCell
from ..units import nm_to_cm, per_second_to_fit


@dataclass
class CircuitLevelSerModel:
    """Hazucha-Svensson-style SER estimate from Qcrit alone.

    Parameters
    ----------
    design:
        Cell design (technology card).
    collection_slope_c:
        The ``Qs`` of the exponential [C].  Defaults to the mean
        collected charge of a representative strike, which is what a
        circuit-level study would calibrate from a single device
        simulation or from literature.
    pulse_width_s:
        Width of the double-exponential used for Qcrit extraction
        (the baseline papers use ~100 ps collection tails; the flip
        outcome is width-insensitive per the paper's Section 4).
    """

    design: SramCellDesign
    collection_slope_c: float = 6.0e-17
    pulse_width_s: float = 1.0e-12

    def __post_init__(self):
        if self.collection_slope_c <= 0:
            raise ConfigError("collection slope must be positive")
        if self.pulse_width_s <= 0:
            raise ConfigError("pulse width must be positive")

    def critical_charge_c(self, vdd_v: float) -> float:
        """Qcrit via the nominal cell and a resolved current pulse."""
        cell = FastCell(self.design, vdd_v)
        shifts = np.zeros((1, 6))
        settled = cell.settle(shifts)
        lo, hi = 1.0e-18, 5.0e-14
        for _ in range(30):
            mid = np.sqrt(lo * hi)
            flipped = cell.run_pulse(
                np.array([[mid, 0.0, 0.0]]),
                shifts,
                pulse_width_s=self.pulse_width_s,
                settled=settled,
            )[0]
            if flipped:
                hi = mid
            else:
                lo = mid
        return float(np.sqrt(lo * hi))

    def fit_rate(
        self,
        particle_name: str,
        vdd_v: float,
        layout: Optional[SramArrayLayout] = None,
    ) -> float:
        """Baseline FIT estimate for one particle species.

        ``F`` is the species' total ground-level flux; ``A_sens`` the
        summed sensitive-fin footprint of the array (a circuit-level
        study would use a drawn-diffusion estimate exactly like this).
        """
        layout = layout if layout is not None else SramArrayLayout()
        spectrum = spectrum_for(particle_name)
        flux = spectrum.integral_flux(spectrum.e_min_mev, spectrum.e_max_mev)

        sensitive = layout.packed_boxes[layout.fin_strike >= 0]
        widths_cm = nm_to_cm(sensitive[:, 3] - sensitive[:, 0])
        lengths_cm = nm_to_cm(sensitive[:, 4] - sensitive[:, 1])
        area_cm2 = float(np.sum(widths_cm * lengths_cm))

        qcrit = self.critical_charge_c(vdd_v)
        rate_per_s = flux * area_cm2 * np.exp(
            -qcrit / self.collection_slope_c
        )
        return per_second_to_fit(rate_per_s)

    def fit_series(
        self, particle_name: str, vdd_values: Sequence[float]
    ) -> np.ndarray:
        """Baseline FIT at each Vdd (one Qcrit extraction per point)."""
        return np.array(
            [self.fit_rate(particle_name, float(v)) for v in vdd_values]
        )
