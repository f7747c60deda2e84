"""Device-level Monte Carlo transport and the electron-yield LUT."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.geometry import FinGeometry, RayBatch, SoiFinWorld, SoiStack
from repro.physics import ALPHA, PROTON, mean_chord_deposit_kev, mean_pairs
from repro.transport import (
    ElectronYieldLUT,
    TransportConfig,
    TransportEngine,
    default_energy_grid,
)

from .array_oracle import sample_pairs_blend_rows


@pytest.fixture(scope="module")
def engine():
    return TransportEngine()


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2014)


class TestTransportEngine:
    def test_vertical_ray_through_fin(self):
        # deterministic config: no straggling/fano, vertical hit
        engine = TransportEngine(
            config=TransportConfig(straggling=False, fano=False)
        )
        fin = engine.world.fin
        rays = RayBatch(
            np.array([[0.0, 0.0, 100.0]]), np.array([[0.0, 0.0, -1.0]])
        )
        result = engine.transport(ALPHA, 1.0, rays, np.random.default_rng(0))
        assert result.fin_chord_nm[0] == pytest.approx(fin.height_nm)
        expected_pairs = float(
            mean_pairs(mean_chord_deposit_kev(ALPHA, 1.0, fin.height_nm))
        )
        assert result.fin_pairs[0] == pytest.approx(expected_pairs, rel=1e-6)

    def test_missing_ray_no_pairs(self):
        engine = TransportEngine()
        rays = RayBatch(
            np.array([[1000.0, 1000.0, 100.0]]), np.array([[0.0, 0.0, -1.0]])
        )
        result = engine.transport(PROTON, 1.0, rays, np.random.default_rng(0))
        assert result.fin_chord_nm[0] == 0.0
        assert result.fin_pairs[0] == 0.0
        assert result.hit_fraction == 0.0

    def test_launch_statistics(self, engine, rng):
        result = engine.launch(ALPHA, 1.0, 20000, rng)
        assert 0.001 < result.hit_fraction < 0.5
        assert result.mean_pairs_given_hit > 50

    def test_alpha_generates_more_than_proton(self, engine, rng):
        alpha = engine.launch(ALPHA, 1.0, 30000, rng)
        proton = engine.launch(PROTON, 1.0, 30000, rng)
        assert (
            alpha.mean_pairs_given_hit > 3.0 * proton.mean_pairs_given_hit
        )

    def test_energy_degradation_with_beol(self, rng):
        # a thick BEOL overburden reduces the energy reaching the fin,
        # which *raises* the yield for above-peak alphas (dE/dx grows
        # as the particle slows) -- so just check the result changes.
        fin = FinGeometry()
        bare = TransportEngine(
            SoiFinWorld(fin=fin),
            TransportConfig(straggling=False, fano=False),
        )
        buried = TransportEngine(
            SoiFinWorld(fin=fin, stack=SoiStack(beol_thickness_nm=2000.0)),
            TransportConfig(straggling=False, fano=False),
        )
        rays = RayBatch(
            np.array([[0.0, 0.0, 2500.0]]), np.array([[0.0, 0.0, -1.0]])
        )
        pairs_bare = bare.transport(ALPHA, 2.0, rays, np.random.default_rng(0)).fin_pairs[0]
        pairs_buried = buried.transport(ALPHA, 2.0, rays, np.random.default_rng(0)).fin_pairs[0]
        assert pairs_buried != pytest.approx(pairs_bare, rel=1e-3)

    def test_invalid_launch_args(self, engine, rng):
        with pytest.raises(ConfigError):
            engine.launch(ALPHA, -1.0, 100, rng)
        with pytest.raises(ConfigError):
            engine.launch(ALPHA, 1.0, 0, rng)


class TestElectronYieldLUT:
    @pytest.fixture(scope="class")
    def lut(self):
        rng = np.random.default_rng(7)
        energies = np.logspace(-1, 2, 7)
        return ElectronYieldLUT.build(ALPHA, energies, 4000, rng)

    def test_monotone_energy_grid_required(self):
        with pytest.raises(ConfigError):
            ElectronYieldLUT(
                particle_name="alpha",
                energies_mev=np.array([1.0, 1.0]),
                hit_fraction=np.zeros(2),
                mean_pairs=np.zeros(2),
                quantiles=np.zeros((2, 5)),
            )

    def test_mean_interpolation_brackets(self, lut):
        e_mid = np.sqrt(lut.energies_mev[2] * lut.energies_mev[3])
        mean_mid = lut.mean_at(e_mid)
        lo = min(lut.mean_pairs[2], lut.mean_pairs[3])
        hi = max(lut.mean_pairs[2], lut.mean_pairs[3])
        assert lo <= mean_mid <= hi

    def test_out_of_range_clamps(self, lut):
        assert lut.mean_at(1e-3) == pytest.approx(lut.mean_pairs[0])
        assert lut.mean_at(1e5) == pytest.approx(lut.mean_pairs[-1])

    def test_sample_pairs_statistics(self, lut):
        rng = np.random.default_rng(9)
        energy = float(lut.energies_mev[3])
        samples = lut.sample_pairs(energy, 20000, rng)
        assert np.mean(samples) == pytest.approx(
            lut.mean_pairs[3], rel=0.08
        )
        assert np.all(samples >= 0)

    def test_normalized_series_peaks_at_one(self, lut):
        energies, series = lut.normalized_yield_series()
        assert np.max(series) == pytest.approx(1.0)
        assert len(energies) == len(series)

    def test_round_trip_serialization(self, lut):
        clone = ElectronYieldLUT.from_dict(lut.to_dict())
        assert np.allclose(clone.energies_mev, lut.energies_mev)
        assert np.allclose(clone.quantiles, lut.quantiles)
        assert clone.particle_name == lut.particle_name

    def test_build_rejects_tiny_statistics(self):
        with pytest.raises(ConfigError):
            ElectronYieldLUT.build(
                ALPHA, np.array([1.0, 2.0]), 10, np.random.default_rng(0)
            )

    def test_default_grid(self):
        grid = default_energy_grid("alpha", 13)
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(100.0)
        from repro.errors import PhysicsError

        with pytest.raises(PhysicsError):
            default_energy_grid("neutron")


class TestEmptyRowFallback:
    """Zero-hit energy rows must not bias sampled pair counts low."""

    @pytest.fixture(scope="class")
    def gappy_lut(self):
        # row 1 saw zero hits: all-zero quantile placeholder
        quantiles = np.array(
            [
                np.linspace(0.0, 100.0, 9),
                np.zeros(9),
                np.linspace(0.0, 200.0, 9),
            ]
        )
        return ElectronYieldLUT(
            particle_name="alpha",
            energies_mev=np.array([1.0, 10.0, 100.0]),
            hit_fraction=np.array([0.5, 0.0, 0.5]),
            mean_pairs=np.array([50.0, 0.0, 100.0]),
            quantiles=quantiles,
            trials_per_energy=1000,
        )

    def test_sample_pairs_skips_empty_row(self, gappy_lut, caplog, monkeypatch):
        # between rows 0 and 1 the old code blended toward the zero
        # placeholder; the fallback must sample the populated row 0
        import logging

        # CLI tests may have run configure_logging (propagate=False);
        # restore propagation so caplog sees the records
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        rng = np.random.default_rng(3)
        with caplog.at_level("WARNING", logger="repro"):
            samples = gappy_lut.sample_pairs(3.0, 4000, rng)
        assert np.mean(samples) == pytest.approx(50.0, rel=0.1)
        assert any(
            "empty LUT row" in record.message for record in caplog.records
        )

    def test_sample_pairs_many_skips_empty_row(
        self, gappy_lut, caplog, monkeypatch
    ):
        import logging

        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        rng = np.random.default_rng(4)
        energies = np.full(4000, 30.0)  # bracketed by rows 1 (empty) and 2
        with caplog.at_level("WARNING", logger="repro"):
            samples = gappy_lut.sample_pairs_many(energies, rng)
        assert np.mean(samples) == pytest.approx(100.0, rel=0.1)
        assert any(
            "empty LUT rows" in record.message for record in caplog.records
        )

    def test_populated_bracket_untouched(self, gappy_lut):
        # queries on a fully populated bracket keep exact interpolation
        full = ElectronYieldLUT(
            particle_name="alpha",
            energies_mev=gappy_lut.energies_mev.copy(),
            hit_fraction=np.array([0.5, 0.5, 0.5]),
            mean_pairs=np.array([50.0, 75.0, 100.0]),
            quantiles=np.array(
                [
                    np.linspace(0.0, 100.0, 9),
                    np.linspace(0.0, 150.0, 9),
                    np.linspace(0.0, 200.0, 9),
                ]
            ),
            trials_per_energy=1000,
        )
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        direct = full.sample_pairs(3.0, 100, rng_a)
        via_many = full.sample_pairs_many(np.full(100, 3.0), rng_b)
        assert np.allclose(direct, via_many)

    def test_all_rows_empty_raises(self):
        from repro.errors import LookupError_

        lut = ElectronYieldLUT(
            particle_name="alpha",
            energies_mev=np.array([1.0, 10.0]),
            hit_fraction=np.zeros(2),
            mean_pairs=np.zeros(2),
            quantiles=np.zeros((2, 5)),
            trials_per_energy=100,
        )
        with pytest.raises(LookupError_):
            lut.sample_pairs(3.0, 10, np.random.default_rng(0))
        with pytest.raises(LookupError_):
            lut.sample_pairs_many(np.array([3.0]), np.random.default_rng(0))

    def test_both_brackets_empty_snaps_to_nearest(self):
        # rows 0 and 1 empty, row 2 populated: queries low in the grid
        # must reach the only populated row
        lut = ElectronYieldLUT(
            particle_name="alpha",
            energies_mev=np.array([1.0, 10.0, 100.0]),
            hit_fraction=np.array([0.0, 0.0, 0.5]),
            mean_pairs=np.array([0.0, 0.0, 100.0]),
            quantiles=np.array(
                [np.zeros(9), np.zeros(9), np.linspace(0.0, 200.0, 9)]
            ),
            trials_per_energy=1000,
        )
        rng = np.random.default_rng(6)
        samples = lut.sample_pairs(2.0, 4000, rng)
        assert np.mean(samples) == pytest.approx(100.0, rel=0.1)
        many = lut.sample_pairs_many(
            np.full(4000, 2.0), np.random.default_rng(7)
        )
        assert np.mean(many) == pytest.approx(100.0, rel=0.1)


class TestGatherThenBlend:
    """``sample_pairs_many`` against the whole-row blend it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(
        n_e=st.integers(2, 13),
        n_q=st.integers(3, 129),
        empty_bits=st.integers(0, 2**13 - 1),
        placement=st.sampled_from(
            ("below", "inside", "above", "grid", "mixed")
        ),
        mono=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # rows 0 and 1 empty, queries clamped onto [0, 1]: two-sided snap
    @example(
        n_e=4, n_q=5, empty_bits=0b0011, placement="below", mono=True, seed=2
    )
    # row 1 empty, queries on [0, 1]: one-sided snap
    @example(
        n_e=3, n_q=9, empty_bits=0b010, placement="below", mono=False, seed=1
    )
    def test_bit_identical_to_row_blend(
        self, n_e, n_q, empty_bits, placement, mono, seed
    ):
        rng = np.random.default_rng(seed)
        grid = np.exp(
            rng.uniform(-3.0, 0.0) + np.cumsum(rng.uniform(0.05, 1.5, n_e))
        )
        populated = ((empty_bits >> np.arange(n_e)) & 1) == 0
        if not populated.any():
            populated[rng.integers(n_e)] = True
        quantiles = np.sort(rng.gamma(2.0, 50.0, (n_e, n_q)), axis=1)
        quantiles[~populated] = 0.0
        lut = ElectronYieldLUT(
            particle_name="alpha",
            energies_mev=grid,
            hit_fraction=np.where(
                populated, rng.uniform(0.01, 0.5, n_e), 0.0
            ),
            mean_pairs=quantiles.mean(axis=1),
            quantiles=quantiles,
            trials_per_energy=1000,
        )
        n = int(rng.integers(1, 400))
        draws = {
            "below": grid[0] * rng.uniform(0.01, 1.0, n),
            "inside": np.exp(
                rng.uniform(np.log(grid[0]), np.log(grid[-1]), n)
            ),
            "above": grid[-1] * rng.uniform(1.0, 100.0, n),
            "grid": grid[rng.integers(0, n_e, n)],
        }
        if placement == "mixed":
            pick = rng.integers(0, len(draws), n)
            energies = np.stack(list(draws.values()))[pick, np.arange(n)]
        else:
            energies = draws[placement]
        if mono:
            energies = np.full(n, energies[0])

        shipped_rng = np.random.default_rng(seed + 1)
        oracle_rng = np.random.default_rng(seed + 1)
        shipped = lut.sample_pairs_many(energies, shipped_rng)
        oracle = sample_pairs_blend_rows(lut, energies, oracle_rng)
        assert shipped.dtype == oracle.dtype == np.float64
        assert np.array_equal(shipped.view(np.int64), oracle.view(np.int64))
        assert (
            shipped_rng.bit_generator.state == oracle_rng.bit_generator.state
        )


class TestYieldShape:
    def test_fig4_shape_decreasing_above_peak(self):
        """Paper Fig. 4: yield falls with energy above the Bragg peak."""
        rng = np.random.default_rng(11)
        energies = np.array([1.0, 3.0, 10.0, 30.0, 100.0])
        lut = ElectronYieldLUT.build(ALPHA, energies, 6000, rng)
        # above the ~0.8 MeV alpha peak the mean yield must fall
        assert np.all(np.diff(lut.mean_pairs) < 0)
