"""Ground-level particle flux spectra (paper Fig. 2).

Two spectra drive the FIT-rate integration (paper eqs. 7-8):

* :class:`SeaLevelProtonSpectrum` -- the differential sea-level proton
  intensity of Fig. 2(a) (after Hagmann et al. [23]), implemented as a
  log-log interpolation over anchor points read off the figure and
  converted from per-steradian intensity to through-surface flux by the
  cosine-weighted hemisphere factor pi.
* :class:`AlphaEmissionSpectrum` -- the package alpha emission spectrum
  of Fig. 2(b) (after Sai-Halasz et al. [24]): U/Th decay-chain lines,
  Gaussian-broadened, over a degraded low-energy continuum (alphas born
  below the package surface emerge slowed down), normalized to the
  paper's assumed total emission rate of 0.001 alpha / (cm^2 h) [25].

Both expose the same interface: differential flux, integral flux over a
band, energy discretization for eq. 8, and flux-weighted sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError, PhysicsError
from ..units import per_hour_to_per_second

#: Paper assumption: total alpha emission rate [1/(cm^2 h)].
ALPHA_EMISSION_RATE_PER_CM2_H = 0.001


@dataclass(frozen=True)
class EnergyBins:
    """Discretized spectrum for the eq. 8 sum.

    Attributes
    ----------
    edges_mev:
        Bin edges, shape ``(n+1,)``.
    representative_mev:
        Representative (geometric-mean) energy per bin, shape ``(n,)``.
    integral_flux_per_cm2_s:
        Integral flux in each bin [1/(cm^2 s)], shape ``(n,)``.
    """

    edges_mev: np.ndarray
    representative_mev: np.ndarray
    integral_flux_per_cm2_s: np.ndarray

    def __len__(self) -> int:
        return len(self.representative_mev)

    @property
    def total_flux_per_cm2_s(self) -> float:
        """Total integral flux across all bins."""
        return float(np.sum(self.integral_flux_per_cm2_s))


class _SpectrumBase:
    """Shared integration / binning / sampling machinery."""

    #: Domain of validity [MeV]; subclasses set these.
    e_min_mev: float
    e_max_mev: float

    def differential_flux(self, energy_mev):
        """Differential through-surface flux [1/(cm^2 s MeV)]."""
        raise NotImplementedError

    def integral_flux(self, e_lo_mev: float, e_hi_mev: float) -> float:
        """Integral flux [1/(cm^2 s)] over ``[e_lo, e_hi]`` (log-trapezoid)."""
        if not (0 < e_lo_mev < e_hi_mev):
            raise ConfigError("need 0 < e_lo < e_hi for integral flux")
        e_lo = max(e_lo_mev, self.e_min_mev)
        e_hi = min(e_hi_mev, self.e_max_mev)
        if e_hi <= e_lo:
            return 0.0
        grid = np.exp(np.linspace(math.log(e_lo), math.log(e_hi), 257))
        flux = self.differential_flux(grid)
        return float(np.trapezoid(flux, grid))

    def make_bins(
        self,
        n_bins: int,
        e_min_mev: Optional[float] = None,
        e_max_mev: Optional[float] = None,
    ) -> EnergyBins:
        """Log-spaced energy discretization with per-bin integral fluxes."""
        if n_bins < 1:
            raise ConfigError("need at least one energy bin")
        e_min = self.e_min_mev if e_min_mev is None else float(e_min_mev)
        e_max = self.e_max_mev if e_max_mev is None else float(e_max_mev)
        if not (0 < e_min < e_max):
            raise ConfigError("need 0 < e_min < e_max for binning")
        edges = np.exp(np.linspace(math.log(e_min), math.log(e_max), n_bins + 1))
        centers = np.sqrt(edges[:-1] * edges[1:])
        integrals = np.array(
            [
                self.integral_flux(edges[i], edges[i + 1])
                for i in range(n_bins)
            ]
        )
        return EnergyBins(edges, centers, integrals)

    def sample_energies(
        self,
        n: int,
        rng: np.random.Generator,
        n_bins: int = 256,
        e_min_mev: Optional[float] = None,
        e_max_mev: Optional[float] = None,
    ) -> np.ndarray:
        """Sample energies [MeV] with probability proportional to flux.

        ``e_min_mev`` / ``e_max_mev`` restrict the sampled band (for
        folding a sub-range, e.g. the FIT integration window).
        """
        bins = self.make_bins(n_bins, e_min_mev, e_max_mev)
        weights = bins.integral_flux_per_cm2_s
        total = weights.sum()
        if total <= 0:
            raise PhysicsError("spectrum has zero total flux; cannot sample")
        probabilities = weights / total
        chosen = rng.choice(len(bins), size=n, p=probabilities)
        lo = bins.edges_mev[chosen]
        hi = bins.edges_mev[chosen + 1]
        # log-uniform within a bin (bins are narrow in log space)
        u = rng.uniform(0.0, 1.0, size=n)
        return lo * (hi / lo) ** u


class SeaLevelProtonSpectrum(_SpectrumBase):
    """Sea-level differential proton flux (paper Fig. 2(a)).

    Anchor points ``(E [MeV], intensity [1/(m^2 s sr MeV)])`` are read
    off the published figure; between anchors the spectrum is a power
    law (linear in log-log).  The through-surface differential flux is
    ``pi * intensity * 1e-4`` [1/(cm^2 s MeV)] (cosine-weighted downward
    hemisphere).
    """

    # The published figure spans 1e0-1e7 MeV; the 0.1-1 MeV anchors
    # extrapolate its low-energy power-law slope, covering the
    # low-energy direct-ionization protons the paper's Fig. 8 evaluates
    # (POF is scanned from 0.1 MeV).
    _ANCHORS_E_MEV = np.array(
        [0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1.0e3, 1.0e4, 1.0e5, 1.0e6, 1.0e7]
    )
    _ANCHORS_INTENSITY = np.array(
        [2.5e-2, 1.6e-2, 1.0e-2, 5.0e-3, 2.0e-3, 8.0e-4, 3.0e-4, 1.0e-4, 2.0e-5, 3.0e-7, 1.0e-9, 3.0e-12, 1.0e-14]
    )

    e_min_mev = 0.1
    e_max_mev = 1.0e7

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ConfigError("spectrum scale must be positive")
        self.scale = float(scale)
        self._log_e = np.log(self._ANCHORS_E_MEV)
        self._log_i = np.log(self._ANCHORS_INTENSITY)

    def intensity(self, energy_mev):
        """Differential intensity [1/(m^2 s sr MeV)] (vectorized)."""
        energy = np.asarray(energy_mev, dtype=np.float64)
        if np.any(energy <= 0):
            raise PhysicsError("energy must be positive")
        log_e = np.log(energy)
        log_i = np.interp(log_e, self._log_e, self._log_i)
        result = self.scale * np.exp(log_i)
        in_range = (energy >= self.e_min_mev) & (energy <= self.e_max_mev)
        return np.where(in_range, result, 0.0)

    def differential_flux(self, energy_mev):
        """Through-surface differential flux [1/(cm^2 s MeV)]."""
        # pi: integral of cos(theta) over the downward hemisphere;
        # 1e-4: m^-2 -> cm^-2.
        return math.pi * 1.0e-4 * self.intensity(energy_mev)


#: Prominent alpha lines of the 238U / 235U / 232Th decay chains [MeV]
#: with rough relative weights (each chain member contributes one line;
#: weights lump isotopic abundance and branching at figure fidelity).
_ALPHA_LINES_MEV = np.array(
    [4.20, 4.40, 4.78, 5.30, 5.49, 5.69, 6.00, 6.29, 6.78, 7.69, 8.78]
)
_ALPHA_LINE_WEIGHTS = np.array(
    [1.0, 0.6, 1.0, 0.8, 1.0, 0.7, 0.9, 0.6, 0.5, 0.7, 0.3]
)


class AlphaEmissionSpectrum(_SpectrumBase):
    """Package alpha emission spectrum (paper Fig. 2(b)).

    A mixture of Gaussian-broadened U/Th decay-chain lines plus a
    degraded continuum (fraction ``continuum_fraction`` spread over
    ``[0.5 MeV, max line]``, representing alphas slowed by overburden
    before reaching the die), normalized so the total emission rate is
    ``rate_per_cm2_h`` (paper: 0.001 alpha / cm^2 h).
    """

    e_min_mev = 0.1
    e_max_mev = 10.0

    def __init__(
        self,
        rate_per_cm2_h: float = ALPHA_EMISSION_RATE_PER_CM2_H,
        line_sigma_mev: float = 0.18,
        continuum_fraction: float = 0.35,
    ):
        if rate_per_cm2_h <= 0:
            raise ConfigError("alpha emission rate must be positive")
        if line_sigma_mev <= 0:
            raise ConfigError("line broadening sigma must be positive")
        if not (0.0 <= continuum_fraction < 1.0):
            raise ConfigError("continuum fraction must lie in [0, 1)")
        self.rate_per_cm2_s = per_hour_to_per_second(rate_per_cm2_h)
        self.line_sigma_mev = float(line_sigma_mev)
        self.continuum_fraction = float(continuum_fraction)
        self._normalization = self._compute_normalization()

    def _unnormalized_density(self, energy_mev):
        energy = np.asarray(energy_mev, dtype=np.float64)
        density = np.zeros_like(energy)
        sig = self.line_sigma_mev
        for line_e, weight in zip(_ALPHA_LINES_MEV, _ALPHA_LINE_WEIGHTS):
            density += (
                weight
                / (sig * math.sqrt(2.0 * math.pi))
                * np.exp(-0.5 * ((energy - line_e) / sig) ** 2)
            )
        line_mass = float(np.sum(_ALPHA_LINE_WEIGHTS))
        density *= (1.0 - self.continuum_fraction) / line_mass

        # Degraded continuum: flat in energy from 0.5 MeV up to the top
        # line -- the classic slowing-down spectrum of a thick source.
        cont_lo, cont_hi = 0.5, float(_ALPHA_LINES_MEV[-1])
        in_cont = (energy >= cont_lo) & (energy <= cont_hi)
        density += np.where(
            in_cont, self.continuum_fraction / (cont_hi - cont_lo), 0.0
        )
        in_range = (energy >= self.e_min_mev) & (energy <= self.e_max_mev)
        return np.where(in_range, density, 0.0)

    def _compute_normalization(self) -> float:
        grid = np.linspace(self.e_min_mev, self.e_max_mev, 4001)
        mass = float(np.trapezoid(self._unnormalized_density(grid), grid))
        if mass <= 0:
            raise PhysicsError("alpha spectrum has zero probability mass")
        return 1.0 / mass

    def differential_flux(self, energy_mev):
        """Differential emission flux [1/(cm^2 s MeV)] (vectorized)."""
        return (
            self.rate_per_cm2_s
            * self._normalization
            * self._unnormalized_density(energy_mev)
        )

    def integral_flux(self, e_lo_mev: float, e_hi_mev: float) -> float:
        """Integral flux [1/(cm^2 s)]; linear grid (spectrum is not smooth in log)."""
        if not (0 < e_lo_mev < e_hi_mev):
            raise ConfigError("need 0 < e_lo < e_hi for integral flux")
        e_lo = max(e_lo_mev, self.e_min_mev)
        e_hi = min(e_hi_mev, self.e_max_mev)
        if e_hi <= e_lo:
            return 0.0
        grid = np.linspace(e_lo, e_hi, 513)
        return float(np.trapezoid(self.differential_flux(grid), grid))


def spectrum_for(particle_name: str, **kwargs):
    """Factory: the ground-level spectrum for a particle name."""
    if particle_name == "proton":
        return SeaLevelProtonSpectrum(**kwargs)
    if particle_name == "alpha":
        return AlphaEmissionSpectrum(**kwargs)
    raise ConfigError(f"no ground-level spectrum for particle {particle_name!r}")
