"""FIT-rate integration (paper Section 5.2, eqs. 7-8).

``SER(FIT) = sum_E POF(E) * IntFlux(E) * Lx * Ly`` over the
discretized particle spectrum, where POF(E) is per particle launched
onto the reference area and IntFlux the integral flux in the bin.

The reference area must match the POF normalization: this module uses
the Monte Carlo *launch window* area (array + margin) together with the
per-launched-particle POFs, which is exactly equivalent to the paper's
``Lx * Ly`` with per-array-hit POFs -- the margin particles' near-zero
POFs are duly paid for with the larger area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigError
from ..obs import get_logger, get_registry, kv
from ..physics.spectra import EnergyBins
from ..units import per_second_to_fit
from .mc import ArrayPofResult

_log = get_logger(__name__)


@dataclass(frozen=True)
class FitResult:
    """FIT rates of one (particle, vdd) spectrum integration.

    Attributes
    ----------
    particle_name / vdd_v:
        The integrated case.
    bins:
        The spectrum discretization used (eq. 8).
    pof_per_bin:
        Per-launched-particle POF triples per bin: shape ``(n_bins, 3)``
        ordered (total, seu, mbu).
    fit_total / fit_seu / fit_mbu:
        Failure rates in FIT (failures per 1e9 device hours).
    degraded:
        True when any folded MC campaign lost shards to worker
        crashes, or when the campaigns drew their pair counts from a
        degraded electron-yield LUT: the rates rest on fewer trials
        than requested, so their standard errors are wider.  Degraded
        results are never written to the artifact cache.
    """

    particle_name: str
    vdd_v: float
    bins: EnergyBins
    pof_per_bin: np.ndarray
    fit_total: float
    fit_seu: float
    fit_mbu: float
    degraded: bool = False

    @property
    def mbu_to_seu_ratio(self) -> float:
        """The paper's Fig. 10 metric.

        Degenerate denominators keep their mathematical meaning: an
        MBU rate with **no** SEU rate is ``inf`` (MBU-dominated, not
        "no MBUs"), and 0/0 is ``nan`` (no events at all, ratio
        undefined).
        """
        if self.fit_seu > 0:
            return self.fit_mbu / self.fit_seu
        return math.inf if self.fit_mbu > 0 else math.nan


def fit_from_spectrum_run(
    spectrum,
    result: ArrayPofResult,
    e_min_mev: Optional[float] = None,
    e_max_mev: Optional[float] = None,
) -> FitResult:
    """FIT from a continuous-spectrum campaign (no binning).

    The campaign's POFs are flux-weighted means over the sampled band,
    so the rate is simply ``POF_mean * integral_flux * launch_area`` --
    the zero-bin-error counterpart of eq. 8.
    """
    e_min = e_min_mev if e_min_mev is not None else spectrum.e_min_mev
    e_max = e_max_mev if e_max_mev is not None else spectrum.e_max_mev
    flux = spectrum.integral_flux(e_min, e_max)
    area = result.launch_area_cm2
    edges = np.array([e_min, e_max])
    bins = EnergyBins(edges, np.array([result.energy_mev]), np.array([flux]))
    pof = np.array([[result.pof_total, result.pof_seu, result.pof_mbu]])
    return FitResult(
        particle_name=result.particle_name,
        vdd_v=result.vdd_v,
        bins=bins,
        pof_per_bin=pof,
        fit_total=per_second_to_fit(result.pof_total * flux * area),
        fit_seu=per_second_to_fit(result.pof_seu * flux * area),
        fit_mbu=per_second_to_fit(result.pof_mbu * flux * area),
        degraded=result.degraded,
    )


def integrate_fit(
    particle_name: str,
    vdd_v: float,
    bins: EnergyBins,
    results: Sequence[ArrayPofResult],
    degraded: bool = False,
) -> FitResult:
    """Fold per-energy MC results with the spectrum (eq. 8).

    ``results[i]`` must be the MC outcome at ``bins.representative_mev[i]``;
    every result must share the same launch area.  ``degraded`` flags
    an input the results do not carry, such as a degraded yield LUT;
    the FIT is degraded when it or any result is.
    """
    if len(results) != len(bins):
        raise ConfigError(
            f"need one MC result per bin ({len(bins)}), got {len(results)}"
        )
    # relative-tolerance comparison: absolute rounding (the previous
    # ``round(area, 18)`` set) both rejected ulp-different areas from
    # independently built results and passed tiny real mismatches
    area_cm2 = results[0].launch_area_cm2
    for r in results[1:]:
        if not math.isclose(
            r.launch_area_cm2, area_cm2, rel_tol=1e-9, abs_tol=0.0
        ):
            raise ConfigError(
                "all MC results must share one launch area "
                f"(got {r.launch_area_cm2!r} vs {area_cm2!r})"
            )

    pof = np.array(
        [[r.pof_total, r.pof_seu, r.pof_mbu] for r in results]
    )
    flux = bins.integral_flux_per_cm2_s  # [1/(cm^2 s)]
    rates_per_s = pof.T @ flux * area_cm2  # (3,)

    metrics = get_registry()
    if metrics.enabled:
        metrics.counter("fit.integrations").inc()
        metrics.counter("fit.energy_bins").inc(len(bins))
        _log.debug(
            "fit integrated %s",
            kv(
                particle=particle_name,
                vdd=vdd_v,
                bins=len(bins),
                fit_total=per_second_to_fit(float(rates_per_s[0])),
            ),
        )

    return FitResult(
        particle_name=particle_name,
        vdd_v=vdd_v,
        bins=bins,
        pof_per_bin=pof,
        fit_total=per_second_to_fit(float(rates_per_s[0])),
        fit_seu=per_second_to_fit(float(rates_per_s[1])),
        fit_mbu=per_second_to_fit(float(rates_per_s[2])),
        degraded=degraded or any(r.degraded for r in results),
    )
