"""Heavy-ion cross-section characterization: sigma(LET) and Weibull fit.

Accelerated SEE testing does not work in (species, energy) coordinates:
beams are specified by their **LET**, and the measured observable is
the per-bit upset cross section versus LET, conventionally fitted with
the cumulative Weibull

    sigma(L) = sigma_sat * (1 - exp(-((L - L0)/W)^s))    for L > L0.

This module runs that virtual experiment on the library's array: a
mono-LET beam (optionally tilted), deposits = LET x chord with
straggling disabled (beam LETs are quoted as effective surface values),
POF from the cell tables, cross section from the launch-window
normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ConfigError
from ..layout import SramArrayLayout
from ..sram import PofTable
from .fusion import BatchPlan, CampaignPoint
from .mc import ArrayMcConfig, ArraySerSimulator


@dataclass(frozen=True)
class CrossSectionPoint:
    """One sigma(LET) measurement."""

    let_kev_per_nm: float
    cross_section_cm2_per_bit: float
    pof_per_particle: float
    n_particles: int


@dataclass(frozen=True)
class WeibullFit:
    """Cumulative-Weibull parameters of a sigma(LET) curve.

    Attributes
    ----------
    sigma_sat_cm2:
        Saturation cross section per bit.
    let_threshold:
        Onset LET L0 [keV/nm].
    width / shape:
        Weibull width W and shape s.
    """

    sigma_sat_cm2: float
    let_threshold: float
    width: float
    shape: float

    def evaluate(self, let_kev_per_nm) -> np.ndarray:
        """sigma(LET) from the fitted parameters (vectorized)."""
        let = np.asarray(let_kev_per_nm, dtype=np.float64)
        x = np.maximum(let - self.let_threshold, 0.0) / self.width
        return self.sigma_sat_cm2 * (1.0 - np.exp(-np.power(x, self.shape)))


class HeavyIonCampaign:
    """Mono-LET beam campaigns against one array + POF table.

    Each beam runs as a one-point :class:`~repro.ser.fusion.BatchPlan`
    on :attr:`simulator`, the array Monte Carlo behind every FIT: same
    draw blocks, same strike kernel, same merge.
    """

    def __init__(
        self,
        layout: SramArrayLayout,
        pof_table: PofTable,
        margin_nm: float = 100.0,
    ):
        # a LET point deposits LET x chord in either deposition mode;
        # "direct" only spares the simulator the yield LUTs it never reads
        config = ArrayMcConfig(deposition_mode="direct", margin_nm=margin_nm)
        self.simulator = ArraySerSimulator(layout, pof_table, config=config)

    def run_let(
        self,
        let_kev_per_nm: float,
        vdd_v: float,
        n_particles: int,
        rng: np.random.Generator,
        direction_law: str = "beam:1.0",
    ) -> CrossSectionPoint:
        """Cross section at one LET.

        ``sigma = POF_per_particle * A_launch / n_bits`` -- the upset
        count per unit fluence per bit, exactly how beam data are
        reduced.  Draw block ``i`` takes the ``i``-th child stream
        spawned off ``rng``, so a sweep sharing one generator gives
        every LET its own streams.
        """
        if let_kev_per_nm <= 0:
            raise ConfigError("LET must be positive")
        # a beam is named by its LET, which also labels its energy
        point = CampaignPoint.uniform(
            "heavy-ion",
            let_kev_per_nm,
            vdd_v,
            n_particles,
            rng,
            let_kev_per_nm=float(let_kev_per_nm),
            direction_law=direction_law,
        )
        (result,) = BatchPlan(self.simulator, [point]).execute()
        n_cells = self.simulator.layout.n_cells
        sigma = result.pof_total * result.launch_area_cm2 / n_cells
        return CrossSectionPoint(
            let_kev_per_nm=float(let_kev_per_nm),
            cross_section_cm2_per_bit=float(sigma),
            pof_per_particle=float(result.pof_total),
            n_particles=n_particles,
        )

    def sweep_let(
        self,
        lets_kev_per_nm: Sequence[float],
        vdd_v: float,
        n_particles: int,
        rng: np.random.Generator,
        direction_law: str = "beam:1.0",
    ):
        """sigma(LET) curve over a LET grid."""
        return [
            self.run_let(float(let), vdd_v, n_particles, rng, direction_law)
            for let in lets_kev_per_nm
        ]


def fit_weibull(points: Sequence[CrossSectionPoint]) -> WeibullFit:
    """Least-squares cumulative-Weibull fit of a sigma(LET) curve.

    Requires at least four points with at least two non-zero cross
    sections (a threshold and a saturation region).
    """
    lets = np.array([p.let_kev_per_nm for p in points])
    sigmas = np.array([p.cross_section_cm2_per_bit for p in points])
    if len(points) < 4:
        raise ConfigError("need >= 4 LET points for a Weibull fit")
    if np.count_nonzero(sigmas) < 2:
        raise ConfigError("need >= 2 non-zero cross sections to fit")

    from scipy.optimize import curve_fit

    # fit in normalized units: raw cross sections are ~1e-11 cm^2,
    # far below the optimizer's default tolerances
    scale = float(np.max(sigmas))
    normalized = sigmas / scale

    nonzero = lets[sigmas > 0]
    zero_below = lets[sigmas == 0]
    l0_guess = float(np.max(zero_below)) if len(zero_below) else float(
        0.5 * np.min(nonzero)
    )

    def model(let, sigma_sat, l0, width, shape):
        x = np.maximum(let - l0, 0.0) / np.maximum(width, 1e-6)
        return sigma_sat * (1.0 - np.exp(-np.power(x, np.maximum(shape, 0.1))))

    let_span = float(np.ptp(lets))
    p0 = [
        1.0,
        min(max(l0_guess, 1e-4), float(np.max(lets))),
        max(let_span / 4, 1e-3),
        1.5,
    ]
    # physical bounds keep the optimizer off the degenerate ridge
    # (negative threshold + huge shape) that sparse sharp-onset data
    # otherwise admits
    bounds = (
        [0.0, 0.0, 1e-4, 0.3],
        [10.0, float(np.max(lets)), 10.0 * let_span, 20.0],
    )
    try:
        popt, _ = curve_fit(
            model, lets, normalized, p0=p0, bounds=bounds, maxfev=20000
        )
    except RuntimeError as exc:
        raise ConfigError(f"Weibull fit did not converge: {exc}") from exc
    sigma_sat, l0, width, shape = popt
    return WeibullFit(
        sigma_sat_cm2=float(abs(sigma_sat)) * scale,
        let_threshold=float(l0),
        width=float(abs(width)),
        shape=float(abs(shape)),
    )
