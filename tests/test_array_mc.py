"""Array-level Monte Carlo (paper Section 5.1)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.layout import SramArrayLayout
from repro.physics import ALPHA, PROTON
from repro.sram import CharacterizationConfig, SramCellDesign, characterize_cell
from repro.ser import ArrayMcConfig, ArraySerSimulator
from repro.transport import ElectronYieldLUT, TransportEngine
from repro.geometry import FinGeometry, SoiFinWorld


@pytest.fixture(scope="module")
def design():
    return SramCellDesign()


@pytest.fixture(scope="module")
def pof_table(design):
    config = CharacterizationConfig(
        vdd_list=(0.7, 0.9),
        n_charge_points=17,
        n_samples=50,
        max_pair_points=5,
        max_triple_points=4,
        seed=5,
    )
    return characterize_cell(design, config)


@pytest.fixture(scope="module")
def yield_luts(design):
    rng = np.random.default_rng(6)
    fin = FinGeometry(
        design.tech.collection_length_nm,
        design.tech.fin.width_nm,
        design.tech.fin.height_nm,
    )
    engine = TransportEngine(SoiFinWorld(fin=fin))
    energies = np.logspace(-1, 2, 5)
    return {
        "alpha": ElectronYieldLUT.build(ALPHA, energies, 4000, rng, engine=engine),
        "proton": ElectronYieldLUT.build(PROTON, energies, 4000, rng, engine=engine),
    }


@pytest.fixture(scope="module")
def simulator(pof_table, yield_luts):
    return ArraySerSimulator(
        SramArrayLayout(), pof_table, yield_luts=yield_luts
    )


class TestConfig:
    def test_lut_mode_requires_luts(self, pof_table):
        with pytest.raises(ConfigError):
            ArraySerSimulator(SramArrayLayout(), pof_table, yield_luts=None)

    def test_direct_mode_needs_no_luts(self, pof_table):
        sim = ArraySerSimulator(
            SramArrayLayout(),
            pof_table,
            config=ArrayMcConfig(deposition_mode="direct"),
        )
        assert sim.config.deposition_mode == "direct"

    def test_invalid_mode(self):
        invalid = (
            {"deposition_mode": "teleport"},
            {"margin_nm": -1.0},
        )
        for fields in invalid:
            with pytest.raises(ConfigError):
                ArrayMcConfig(**fields)

    def test_direction_law_defaults(self):
        config = ArrayMcConfig()
        assert config.law_for("alpha") == "isotropic"
        assert config.law_for("proton") == "cosine"


class TestRun:
    def test_result_bookkeeping(self, simulator):
        rng = np.random.default_rng(7)
        result = simulator.run(ALPHA, 2.0, 0.7, 20000, rng)
        assert result.n_particles == 20000
        assert 0 < result.n_array_hits <= 20000
        assert result.n_fin_strikes > 0
        assert 0.0 <= result.pof_total <= 1.0
        assert result.pof_seu <= result.pof_total + 1e-12
        assert result.pof_mbu >= 0.0

    def test_alpha_pof_exceeds_proton(self, simulator):
        """Paper Fig. 8: alpha POF >> proton POF at equal energy."""
        rng = np.random.default_rng(8)
        alpha = simulator.run(ALPHA, 1.0, 0.7, 40000, rng)
        proton = simulator.run(PROTON, 1.0, 0.7, 40000, rng)
        assert alpha.pof_total > 3.0 * proton.pof_total

    def test_lower_vdd_higher_pof(self, simulator):
        """Paper Fig. 8: POF increases as Vdd drops."""
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        low = simulator.run(ALPHA, 2.0, 0.7, 40000, rng1)
        high = simulator.run(ALPHA, 2.0, 0.9, 40000, rng2)
        assert low.pof_total >= high.pof_total

    def test_conditional_pof_scaling(self, simulator):
        rng = np.random.default_rng(10)
        result = simulator.run(ALPHA, 2.0, 0.7, 20000, rng)
        if result.n_array_hits:
            expected = result.pof_total * result.n_particles / result.n_array_hits
            assert result.pof_total_given_hit == pytest.approx(expected)

    def test_invalid_args(self, simulator):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            simulator.run(ALPHA, -1.0, 0.7, 100, rng)
        with pytest.raises(ConfigError):
            simulator.run(ALPHA, 1.0, 0.7, 0, rng)


class TestDepositionModes:
    def test_modes_agree_in_order_of_magnitude(self, pof_table, yield_luts):
        layout = SramArrayLayout()
        rng1 = np.random.default_rng(12)
        rng2 = np.random.default_rng(12)
        lut_sim = ArraySerSimulator(
            layout, pof_table, yield_luts, ArrayMcConfig(deposition_mode="lut")
        )
        direct_sim = ArraySerSimulator(
            layout, pof_table, config=ArrayMcConfig(deposition_mode="direct")
        )
        r_lut = lut_sim.run(ALPHA, 2.0, 0.7, 50000, rng1)
        r_direct = direct_sim.run(ALPHA, 2.0, 0.7, 50000, rng2)
        assert r_lut.pof_total > 0
        assert r_direct.pof_total > 0
        ratio = r_lut.pof_total / r_direct.pof_total
        assert 0.2 < ratio < 5.0

    def test_lut_mode_missing_particle(self, pof_table, yield_luts):
        sim = ArraySerSimulator(
            SramArrayLayout(),
            pof_table,
            yield_luts={"alpha": yield_luts["alpha"]},
        )
        with pytest.raises(ConfigError):
            sim.run(PROTON, 1.0, 0.7, 5000, np.random.default_rng(0))


class TestMbuGeometry:
    def test_mbu_needs_multiple_cells(self, pof_table, yield_luts):
        """A 1x1 array can never produce an MBU."""
        sim = ArraySerSimulator(
            SramArrayLayout(n_rows=1, n_cols=1), pof_table, yield_luts
        )
        result = sim.run(ALPHA, 1.0, 0.7, 30000, np.random.default_rng(13))
        assert result.pof_mbu == pytest.approx(0.0, abs=1e-12)

    def test_larger_array_catches_more_mbu(self, simulator, pof_table, yield_luts):
        rng = np.random.default_rng(14)
        result = simulator.run(ALPHA, 1.0, 0.7, 60000, rng)
        # the 9x9 array with isotropic alphas must see some MBU
        assert result.pof_mbu > 0.0
