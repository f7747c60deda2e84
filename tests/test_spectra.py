"""Flux spectra (paper Fig. 2): normalization, binning, sampling."""

import numpy as np
import pytest

from repro.errors import ConfigError, PhysicsError
from repro.physics import (
    ALPHA_EMISSION_RATE_PER_CM2_H,
    AlphaEmissionSpectrum,
    SeaLevelProtonSpectrum,
    spectrum_for,
)


class TestProtonSpectrum:
    def test_intensity_at_anchor(self):
        spectrum = SeaLevelProtonSpectrum()
        assert spectrum.intensity(1.0) == pytest.approx(1.0e-2)
        assert spectrum.intensity(1.0e7) == pytest.approx(1.0e-14, rel=1e-6)

    def test_monotone_decreasing(self):
        spectrum = SeaLevelProtonSpectrum()
        energies = np.logspace(-1, 7, 200)
        intensity = spectrum.intensity(energies)
        assert np.all(np.diff(intensity) <= 0)

    def test_out_of_range_zero(self):
        spectrum = SeaLevelProtonSpectrum()
        assert spectrum.intensity(1.0e8) == 0.0

    def test_flux_includes_hemisphere_factor(self):
        spectrum = SeaLevelProtonSpectrum()
        # flux = pi * intensity * 1e-4 (per-sr -> per-surface, m^2 -> cm^2)
        assert spectrum.differential_flux(10.0) == pytest.approx(
            np.pi * 1e-4 * spectrum.intensity(10.0)
        )

    def test_integral_flux_positive_and_ordered(self):
        spectrum = SeaLevelProtonSpectrum()
        low = spectrum.integral_flux(1.0, 10.0)
        high = spectrum.integral_flux(1.0e4, 1.0e5)
        assert low > high > 0.0

    def test_scale_parameter(self):
        doubled = SeaLevelProtonSpectrum(scale=2.0)
        base = SeaLevelProtonSpectrum()
        assert doubled.integral_flux(1, 100) == pytest.approx(
            2.0 * base.integral_flux(1, 100)
        )

    def test_negative_energy_rejected(self):
        with pytest.raises(PhysicsError):
            SeaLevelProtonSpectrum().intensity(-1.0)


class TestAlphaSpectrum:
    def test_total_rate_matches_paper(self):
        # paper: 0.001 alpha / (cm^2 h) -> 2.78e-7 / (cm^2 s)
        spectrum = AlphaEmissionSpectrum()
        total = spectrum.integral_flux(0.1, 10.0)
        expected = ALPHA_EMISSION_RATE_PER_CM2_H / 3600.0
        assert total == pytest.approx(expected, rel=0.01)

    def test_support_below_10mev(self):
        # paper: U/Th alphas carry < 10 MeV
        spectrum = AlphaEmissionSpectrum()
        assert np.all(spectrum.differential_flux(np.array([11.0, 20.0])) == 0.0)

    def test_lines_visible(self):
        # the 5.49 MeV line region should exceed the 3 MeV valley
        spectrum = AlphaEmissionSpectrum()
        assert spectrum.differential_flux(5.49) > spectrum.differential_flux(3.0)

    def test_custom_rate(self):
        spectrum = AlphaEmissionSpectrum(rate_per_cm2_h=0.002)
        total = spectrum.integral_flux(0.1, 10.0)
        assert total == pytest.approx(0.002 / 3600.0, rel=0.01)

    def test_invalid_continuum_fraction(self):
        with pytest.raises(ConfigError):
            AlphaEmissionSpectrum(continuum_fraction=1.5)


class TestBinning:
    @pytest.mark.parametrize("spectrum_name", ["proton", "alpha"])
    def test_bins_partition_flux(self, spectrum_name):
        spectrum = spectrum_for(spectrum_name)
        bins = spectrum.make_bins(12)
        total = spectrum.integral_flux(spectrum.e_min_mev, spectrum.e_max_mev)
        assert bins.total_flux_per_cm2_s == pytest.approx(total, rel=0.02)

    def test_representative_inside_bins(self):
        spectrum = SeaLevelProtonSpectrum()
        bins = spectrum.make_bins(8, 1.0, 100.0)
        for i in range(len(bins)):
            assert bins.edges_mev[i] <= bins.representative_mev[i] <= bins.edges_mev[i + 1]

    def test_invalid_bin_count(self):
        with pytest.raises(ConfigError):
            SeaLevelProtonSpectrum().make_bins(0)


class TestSampling:
    def test_samples_within_range(self):
        spectrum = AlphaEmissionSpectrum()
        rng = np.random.default_rng(0)
        energies = spectrum.sample_energies(5000, rng)
        assert np.all(energies >= spectrum.e_min_mev)
        assert np.all(energies <= spectrum.e_max_mev)

    def test_alpha_samples_cluster_in_line_region(self):
        spectrum = AlphaEmissionSpectrum()
        rng = np.random.default_rng(1)
        energies = spectrum.sample_energies(5000, rng)
        assert 3.0 < np.median(energies) < 8.0

    def test_proton_samples_weighted_low(self):
        spectrum = SeaLevelProtonSpectrum()
        rng = np.random.default_rng(2)
        energies = spectrum.sample_energies(5000, rng)
        # flux is dominated by the lowest decades
        assert np.median(energies) < 100.0


class TestFactory:
    def test_factory_types(self):
        assert isinstance(spectrum_for("proton"), SeaLevelProtonSpectrum)
        assert isinstance(spectrum_for("alpha"), AlphaEmissionSpectrum)

    def test_unknown_rejected(self):
        for name in ("muon", "neutron"):
            with pytest.raises(ConfigError):
                spectrum_for(name)
