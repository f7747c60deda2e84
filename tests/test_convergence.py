"""Monte Carlo convergence diagnostics."""

import math

import numpy as np
import pytest

from repro.analysis import (
    BinBudgetState,
    ConvergenceEstimate,
    StratumState,
    allocate_blocks,
    build_energy_tilt,
    estimate_pof_error,
    split_blocks_across_strata,
)
from repro.errors import ConfigError
from repro.ser import ArrayPofResult


def _result(**overrides):
    """An array-MC result whose ``standard_error`` the tests read."""
    base = dict(
        particle_name="alpha",
        energy_mev=5.0,
        vdd_v=0.7,
        n_particles=10000,
        n_array_hits=1200,
        n_fin_strikes=600,
        pof_total=0.01,
        pof_seu=0.009,
        pof_mbu=0.001,
        launch_area_cm2=1e-8,
    )
    base.update(overrides)
    return ArrayPofResult(**base)


class TestConvergenceEstimate:
    def test_relative_error(self):
        est = ConvergenceEstimate(0.1, 0.01, 10000, 10)
        assert est.relative_error == pytest.approx(0.1)

    def test_zero_mean_infinite(self):
        est = ConvergenceEstimate(0.0, 0.0, 1000, 10)
        assert est.relative_error == float("inf")

    def test_sizing_scales_inverse_square(self):
        est = ConvergenceEstimate(0.1, 0.01, 10000, 10)
        # halving the relative error costs 4x the particles
        assert est.particles_for_relative_error(0.05) == 40000

    def test_sizing_requires_observations(self):
        est = ConvergenceEstimate(0.0, 0.0, 1000, 10)
        with pytest.raises(ConfigError):
            est.particles_for_relative_error(0.1)

    def test_sizing_validates_target(self):
        est = ConvergenceEstimate(0.1, 0.01, 10000, 10)
        with pytest.raises(ConfigError):
            est.particles_for_relative_error(0.0)


class TestPofStandardError:
    """``ArrayPofResult.standard_error``, the one per-result POF SE."""

    def test_binomial_bound(self):
        result = _result()
        expected = math.sqrt(0.01 * 0.99 / 10000)
        assert result.standard_error == pytest.approx(expected)

    def test_zero_hits_is_nan(self):
        # no hits means p is only known to be "small" -- claiming SE = 0
        # (perfect convergence) would be exactly backwards
        assert math.isnan(
            _result(n_array_hits=0, pof_total=0.0).standard_error
        )

    def test_degraded_is_nan(self):
        assert math.isnan(_result(degraded=True).standard_error)

    def test_degraded_beats_variance(self):
        # a lost shard taints even an exact stratified variance
        assert math.isnan(
            _result(degraded=True, pof_variance=1e-8).standard_error
        )

    def test_stratified_variance_used_directly(self):
        result = _result(pof_variance=4e-8)
        assert result.standard_error == pytest.approx(2e-4)

    def test_negative_variance_clamped(self):
        assert _result(pof_variance=-1e-20).standard_error == 0.0

    def test_no_particles_raises(self):
        with pytest.raises(ConfigError):
            _result(n_particles=0).standard_error


class TestBinBudgetState:
    def _state(self, **overrides):
        base = dict(
            key="a",
            trials=10000,
            pof=0.01,
            standard_error=1e-3,
            target_se=1e-4,
            max_trials=100000,
        )
        base.update(overrides)
        return BinBudgetState(**base)

    def test_variance_scale_recovers_per_trial_variance(self):
        state = self._state()
        assert state.variance_scale == pytest.approx(1e-6 * 10000)

    def test_variance_scale_nan_falls_back_to_max(self):
        state = self._state(standard_error=math.nan)
        assert state.variance_scale == 0.25

    def test_predicted_se_shrinks_with_trials(self):
        state = self._state()
        assert state.predicted_standard_error(0) == pytest.approx(1e-3)
        assert state.predicted_standard_error(30000) == pytest.approx(5e-4)

    def test_converged_needs_finite_se(self):
        assert not self._state(standard_error=math.nan).converged
        assert not self._state().converged
        assert self._state(standard_error=5e-5).converged

    def test_validation(self):
        with pytest.raises(ConfigError):
            self._state(trials=-1)
        with pytest.raises(ConfigError):
            self._state(target_se=-1e-4)
        with pytest.raises(ConfigError):
            self._state(max_trials=0)


class TestAllocateBlocks:
    def _state(self, key, se, trials=10000, target=1e-4, ceiling=10**6):
        return BinBudgetState(
            key=key,
            trials=trials,
            pof=0.01,
            standard_error=se,
            target_se=target,
            max_trials=ceiling,
        )

    def test_worst_bin_first(self):
        states = [self._state("low", 1e-3), self._state("high", 4e-3)]
        out = allocate_blocks(states, 4, 4096)
        # 16x the variance: all four blocks chase the worst bin
        assert out == {"high": 4}

    def test_equalizes_predicted_errors(self):
        states = [self._state("a", 2e-3), self._state("b", 2e-3)]
        out = allocate_blocks(states, 6, 4096)
        assert out["a"] + out["b"] == 6
        assert abs(out["a"] - out["b"]) <= 1

    def test_converged_bins_excluded(self):
        states = [
            self._state("done", 5e-5),
            self._state("busy", 1e-3),
        ]
        out = allocate_blocks(states, 3, 4096)
        assert out == {"busy": 3}

    def test_ceiling_respected(self):
        states = [self._state("capped", 1e-2, trials=9000, ceiling=9000)]
        assert allocate_blocks(states, 5, 4096) == {}

    def test_unknown_se_keeps_receiving(self):
        states = [
            self._state("quiet", math.nan),
            self._state("noisy", 1e-3),
        ]
        out = allocate_blocks(states, 4, 4096)
        # nan SE plans with the worst-case variance -> never starved
        assert out.get("quiet", 0) >= 1

    def test_tie_keeps_earliest(self):
        states = [self._state("first", 1e-3), self._state("second", 1e-3)]
        assert allocate_blocks(states, 1, 4096) == {"first": 1}

    def test_duplicate_keys_raise(self):
        states = [self._state("a", 1e-3), self._state("a", 1e-3)]
        with pytest.raises(ConfigError):
            allocate_blocks(states, 1, 4096)

    def test_validation(self):
        with pytest.raises(ConfigError):
            allocate_blocks([], -1, 4096)
        with pytest.raises(ConfigError):
            allocate_blocks([], 1, 0)


class TestSplitBlocksAcrossStrata:
    def test_variance_weighted(self):
        strata = [
            StratumState("core", 0.2, 4096, 0.05, 200),
            StratumState("frame", 0.8, 4096, 0.0, 50),
        ]
        out = split_blocks_across_strata(strata, 8, 4096)
        # frame has hits but zero POF -> zero planning variance
        assert out == {"core": 8}

    def test_rule_of_three_decay(self):
        # an all-miss stratum plans with p <= 3/n, so its priority
        # decays with trials instead of pinning at the 1/4 worst case
        fresh = StratumState("s", 1.0, 100, 0.0, 0)
        seasoned = StratumState("s", 1.0, 100000, 0.0, 0)
        assert fresh.planning_variance == pytest.approx(3.0 / 100)
        assert seasoned.planning_variance == pytest.approx(3.0 / 100000)
        assert StratumState("s", 1.0, 4, 0.0, 0).planning_variance == 0.25

    def test_tilt_reorders(self):
        flat = [
            StratumState("a", 0.5, 4096, 0.01, 40, tilt=1.0),
            StratumState("b", 0.5, 4096, 0.01, 40, tilt=4.0),
        ]
        out = split_blocks_across_strata(flat, 3, 4096)
        assert out["b"] > out.get("a", 0)

    def test_duplicate_names_raise(self):
        strata = [
            StratumState("s", 0.5, 1, 0.0, 0),
            StratumState("s", 0.5, 1, 0.0, 0),
        ]
        with pytest.raises(ConfigError):
            split_blocks_across_strata(strata, 1, 4096)

    def test_validation(self):
        with pytest.raises(ConfigError):
            split_blocks_across_strata([], 1, 4096)
        stratum = StratumState("s", 1.0, 1, 0.0, 0)
        with pytest.raises(ConfigError):
            split_blocks_across_strata([stratum], -1, 4096)
        with pytest.raises(ConfigError):
            split_blocks_across_strata([stratum], 1, 0)


class TestBuildEnergyTilt:
    def test_flat_pof_all_ones(self):
        tilt = build_energy_tilt([0.0, 1.0, 2.0], [0.5, 0.5, 0.5], 8.0)
        assert tilt == [1.0, 1.0, 1.0]

    def test_steep_region_tilts_up(self):
        # POF jumps between the 2nd and 3rd point: gradient peaks there
        tilt = build_energy_tilt(
            [0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.5, 0.5], 8.0
        )
        assert max(tilt) == max(tilt[1], tilt[2])
        assert all(1.0 / 8.0 <= t <= 8.0 for t in tilt)

    def test_single_point_is_neutral(self):
        assert build_energy_tilt([0.0], [0.3], 8.0) == [1.0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_energy_tilt([0.0, 1.0], [0.1, 0.2], 0.5)
        with pytest.raises(ConfigError):
            build_energy_tilt([0.0, 1.0], [0.1], 8.0)


class TestEstimatePofError:
    @pytest.fixture(scope="class")
    def simulator(self):
        from repro.geometry import FinGeometry, SoiFinWorld
        from repro.layout import SramArrayLayout
        from repro.physics import ALPHA
        from repro.ser import ArraySerSimulator
        from repro.sram import (
            CharacterizationConfig,
            SramCellDesign,
            characterize_cell,
        )
        from repro.transport import ElectronYieldLUT, TransportEngine

        design = SramCellDesign()
        table = characterize_cell(
            design,
            CharacterizationConfig(
                vdd_list=(0.7,),
                n_charge_points=13,
                n_samples=30,
                max_pair_points=4,
                max_triple_points=3,
            ),
        )
        fin = FinGeometry(
            design.tech.collection_length_nm,
            design.tech.fin.width_nm,
            design.tech.fin.height_nm,
        )
        lut = ElectronYieldLUT.build(
            ALPHA,
            np.logspace(-1, 1, 4),
            3000,
            np.random.default_rng(0),
            engine=TransportEngine(SoiFinWorld(fin=fin)),
        )
        return ArraySerSimulator(SramArrayLayout(), table, {"alpha": lut})

    def test_estimate_shape(self, simulator):
        from repro.physics import ALPHA

        est = estimate_pof_error(
            simulator, ALPHA, 2.0, 0.7, 20000, np.random.default_rng(1),
            n_batches=5,
        )
        assert est.mean_pof > 0
        assert est.standard_error > 0
        assert est.relative_error < 0.5
        assert est.n_particles == 20000

    def test_more_particles_tighter(self, simulator):
        from repro.physics import ALPHA

        small = estimate_pof_error(
            simulator, ALPHA, 2.0, 0.7, 5000, np.random.default_rng(2),
            n_batches=5,
        )
        large = estimate_pof_error(
            simulator, ALPHA, 2.0, 0.7, 40000, np.random.default_rng(2),
            n_batches=5,
        )
        assert large.relative_error < small.relative_error

    def test_validation(self, simulator):
        from repro.physics import ALPHA

        with pytest.raises(ConfigError):
            estimate_pof_error(
                simulator, ALPHA, 2.0, 0.7, 1000, np.random.default_rng(0),
                n_batches=1,
            )
        with pytest.raises(ConfigError):
            estimate_pof_error(
                simulator, ALPHA, 2.0, 0.7, 5, np.random.default_rng(0),
                n_batches=10,
            )
