"""Heavy-ion sigma(LET) campaigns and Weibull fitting."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.layout import SramArrayLayout
from repro.ser import (
    CrossSectionPoint,
    HeavyIonCampaign,
    WeibullFit,
    fit_weibull,
)
from repro.sram import (
    CharacterizationConfig,
    SramCellDesign,
    characterize_cell,
)


@pytest.fixture(scope="module")
def campaign():
    design = SramCellDesign()
    table = characterize_cell(
        design,
        CharacterizationConfig(
            vdd_list=(0.7,),
            n_charge_points=17,
            n_samples=50,
            max_pair_points=4,
            max_triple_points=3,
        ),
    )
    return HeavyIonCampaign(SramArrayLayout(), table)


@pytest.fixture(scope="module")
def curve(campaign):
    rng = np.random.default_rng(3)
    lets = [0.03, 0.08, 0.15, 0.3, 0.8, 2.0]
    return campaign.sweep_let(lets, 0.7, 15000, rng)


class TestCrossSectionCurve:
    def test_threshold_behaviour(self, curve):
        # deep sub-threshold LET: no upsets; far above: saturated
        assert curve[0].cross_section_cm2_per_bit == 0.0
        assert curve[-1].cross_section_cm2_per_bit > 0.0

    def test_monotone_rise(self, curve):
        sigmas = [p.cross_section_cm2_per_bit for p in curve]
        assert all(
            b >= a - 0.15 * max(sigmas)
            for a, b in zip(sigmas, sigmas[1:])
        )

    def test_saturation_plateau(self, curve):
        # the last two points sit on the plateau together
        a, b = curve[-2:], None
        s1 = curve[-2].cross_section_cm2_per_bit
        s2 = curve[-1].cross_section_cm2_per_bit
        assert s1 == pytest.approx(s2, rel=0.3)

    def test_saturation_scale_is_sensitive_area(self, campaign, curve):
        """Saturated sigma per bit ~ the per-cell sensitive-fin area."""
        sat = curve[-1].cross_section_cm2_per_bit
        # 3 sensitive fins x 10 nm x 60 nm = 1800 nm^2 = 1.8e-11 cm^2;
        # oblique entry inflates the effective area somewhat
        assert 0.5e-11 < sat < 8e-11

    def test_tilt_raises_subthreshold_response(self, campaign):
        rng1 = np.random.default_rng(4)
        rng2 = np.random.default_rng(4)
        normal = campaign.run_let(0.1, 0.7, 15000, rng1, "beam:1.0")
        tilted = campaign.run_let(0.1, 0.7, 15000, rng2, "beam:0.5")
        assert (
            tilted.cross_section_cm2_per_bit
            > normal.cross_section_cm2_per_bit
        )

    def test_validation(self, campaign):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            campaign.run_let(-1.0, 0.7, 100, rng)
        with pytest.raises(ConfigError):
            campaign.run_let(1.0, 0.7, 0, rng)


class TestWeibullFit:
    def test_fit_recovers_threshold(self, curve):
        fit = fit_weibull(curve)
        # threshold LET sits between the last zero and first non-zero
        assert 0.02 < fit.let_threshold < 0.3
        assert fit.sigma_sat_cm2 > 0

    def test_fit_evaluates_close_to_data(self, curve):
        fit = fit_weibull(curve)
        for point in curve:
            predicted = float(fit.evaluate(point.let_kev_per_nm))
            assert predicted == pytest.approx(
                point.cross_section_cm2_per_bit,
                abs=0.35 * fit.sigma_sat_cm2,
            )

    def test_evaluate_below_threshold_zero(self):
        fit = WeibullFit(1e-11, 0.1, 0.05, 2.0)
        assert float(fit.evaluate(0.05)) == 0.0

    def test_synthetic_round_trip(self):
        truth = WeibullFit(2e-11, 0.12, 0.08, 1.8)
        lets = np.linspace(0.05, 1.0, 12)
        points = [
            CrossSectionPoint(float(l), float(truth.evaluate(l)), 0.0, 1000)
            for l in lets
        ]
        fit = fit_weibull(points)
        assert fit.sigma_sat_cm2 == pytest.approx(2e-11, rel=0.1)
        assert fit.let_threshold == pytest.approx(0.12, abs=0.05)

    def test_fit_needs_enough_points(self):
        points = [CrossSectionPoint(1.0, 1e-11, 0.0, 100)] * 3
        with pytest.raises(ConfigError):
            fit_weibull(points)

    def test_fit_needs_nonzero_data(self):
        points = [
            CrossSectionPoint(float(l), 0.0, 0.0, 100) for l in range(1, 6)
        ]
        with pytest.raises(ConfigError):
            fit_weibull(points)
