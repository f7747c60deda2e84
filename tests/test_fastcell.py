"""Fast vectorized cell model, including agreement with the MNA engine."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sram import FastCell, SramCellDesign
from repro.sram.qcrit import (
    critical_charge_samples_c,
    critical_charge_vs_vdd,
    nominal_critical_charge_c,
)

from .cell_oracle import ExactCell, FullHorizonCell, exact_node_currents


@pytest.fixture(scope="module")
def design():
    return SramCellDesign()


@pytest.fixture(scope="module")
def cell(design):
    return FastCell(design, 0.8)


ZERO_SHIFTS = np.zeros((1, 6))


class TestSettle:
    def test_settles_to_hold_state(self, cell):
        vq, vqb = cell.settle(ZERO_SHIFTS)
        assert vq[0] == pytest.approx(0.8, abs=0.02)
        assert vqb[0] == pytest.approx(0.0, abs=0.02)

    def test_batch_settle(self, cell):
        rng = np.random.default_rng(0)
        shifts = rng.standard_normal((50, 6)) * 0.03
        vq, vqb = cell.settle(shifts)
        assert vq.shape == (50,)
        assert np.all(vq > 0.7)
        assert np.all(vqb < 0.1)


class TestImpulseStrikes:
    def test_zero_charge_never_flips(self, cell):
        flipped = cell.run_impulse(np.zeros((4, 3)), np.zeros((4, 6)))
        assert not np.any(flipped)

    def test_huge_charge_always_flips(self, cell):
        charges = np.zeros((3, 3))
        charges[:, 0] = 5e-15
        flipped = cell.run_impulse(charges, np.zeros((3, 6)))
        assert np.all(flipped)

    @pytest.mark.parametrize("strike_index", [0, 1, 2])
    def test_each_strike_path_can_flip(self, cell, strike_index):
        charges = np.zeros((1, 3))
        charges[0, strike_index] = 5e-15
        assert cell.run_impulse(charges, ZERO_SHIFTS)[0]

    def test_combined_strikes_flip_below_single_threshold(self, cell):
        qcrit = nominal_critical_charge_c(cell.design, 0.8)
        # 60% of Qcrit on each of I1 and I2 together must flip
        charges = np.array([[0.6 * qcrit, 0.6 * qcrit, 0.0]])
        assert cell.run_impulse(charges, ZERO_SHIFTS)[0]
        # but 60% on I1 alone must not
        charges_single = np.array([[0.6 * qcrit, 0.0, 0.0]])
        assert not cell.run_impulse(charges_single, ZERO_SHIFTS)[0]

    def test_monotone_in_charge(self, cell):
        qcrit = nominal_critical_charge_c(cell.design, 0.8)
        grid = np.linspace(0.2, 2.0, 16) * qcrit
        charges = np.zeros((16, 3))
        charges[:, 0] = grid
        flipped = cell.run_impulse(charges, np.zeros((16, 6)))
        # once it flips it stays flipped at larger charges
        first = np.argmax(flipped)
        assert np.all(flipped[first:])

    def test_shift_broadcasting(self, cell):
        charges = np.zeros((5, 3))
        flipped = cell.run_impulse(charges, np.zeros((1, 6)))
        assert flipped.shape == (5,)

    def test_bad_shapes_rejected(self, cell):
        with pytest.raises(ConfigError):
            cell.run_impulse(np.zeros((2, 2)), np.zeros((2, 6)))
        with pytest.raises(ConfigError):
            cell.run_impulse(np.zeros((2, 3)), np.zeros((3, 6)))


class TestPulseMode:
    def test_pulse_matches_impulse_at_fs_width(self, cell):
        """The paper's charge-equivalence: a fs pulse acts as an impulse."""
        qcrit = nominal_critical_charge_c(cell.design, 0.8)
        for factor in (0.8, 1.3):
            charges = np.array([[factor * qcrit, 0.0, 0.0]])
            impulse = cell.run_impulse(charges, ZERO_SHIFTS)[0]
            pulse = cell.run_pulse(
                charges, ZERO_SHIFTS, pulse_width_s=17e-15
            )[0]
            assert impulse == pulse

    def test_invalid_width(self, cell):
        with pytest.raises(ConfigError):
            cell.run_pulse(np.zeros((1, 3)), ZERO_SHIFTS, pulse_width_s=0.0)


class TestCriticalCharge:
    def test_nominal_in_plausible_band(self, design):
        qcrit = nominal_critical_charge_c(design, 0.8)
        # advanced-node SRAM: Qcrit of order 0.05-1 fC
        assert 2e-17 < qcrit < 1e-15

    def test_increases_with_vdd(self, design):
        qcrits = critical_charge_vs_vdd(design, [0.7, 0.9, 1.1])
        assert np.all(np.diff(qcrits) > 0)

    def test_distribution_spread(self, design):
        rng = np.random.default_rng(5)
        samples = critical_charge_samples_c(design, 0.8, 100, rng)
        assert np.std(samples) > 0.0
        nominal = nominal_critical_charge_c(design, 0.8)
        assert np.mean(samples) == pytest.approx(nominal, rel=0.15)

    def test_direction_validation(self, cell):
        with pytest.raises(ConfigError):
            cell.critical_charge_c(np.array([0.0, 0.0, 0.0]), ZERO_SHIFTS)


def _variation_batch(n=24, sigma=0.05, seed=7):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 6)) * sigma


def _boundary_charges(design, vdd, n=24, lo=0.3, hi=2.5, seed=9):
    """Charge batch straddling the flip boundary, one row per sample."""
    qcrit = nominal_critical_charge_c(design, vdd)
    rng = np.random.default_rng(seed)
    charges = np.zeros((n, 3))
    charges[:, 0] = qcrit * np.exp(
        rng.uniform(np.log(lo), np.log(hi), size=n)
    )
    return charges


def _tables_for(design, vdd, shifts):
    """I-V tables covering ``shifts``, padded as the characterization pads."""
    from repro.sram import IVTables

    return IVTables(
        design, vdd, shift_pad_v=1.5 * float(np.max(np.abs(shifts)))
    )


class TestFusedKernel:
    """The fused two-call kernel must be bit-identical to the exact
    per-role oracle -- the model is elementwise, so stacking rows can
    only change the Python-call count.  The shipped cell also exits
    early, so the strike tests hold it to the full-horizon oracle."""

    @pytest.fixture(scope="class")
    def pair(self, design):
        return ExactCell(design, 0.8), FastCell(design, 0.8)

    def test_settle_bit_identical(self, pair):
        exact, fused = pair
        shifts = _variation_batch()
        vq_e, vqb_e = exact.settle(shifts)
        vq_f, vqb_f = fused.settle(shifts)
        assert np.array_equal(vq_e, vq_f)
        assert np.array_equal(vqb_e, vqb_f)

    def test_stage_currents_bit_identical(self, pair):
        _, fused = pair
        shifts = _variation_batch()
        rng = np.random.default_rng(3)
        vq = rng.uniform(-0.6, 1.4, len(shifts))
        vqb = rng.uniform(-0.6, 1.4, len(shifts))
        got = fused._deriv_currents(vq, vqb, fused._make_ctx(shifts))
        want = exact_node_currents(fused, vq, vqb, shifts)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_impulse_bit_identical(self, pair, design):
        exact, fused = pair
        shifts = _variation_batch()
        charges = _boundary_charges(design, 0.8)
        assert np.array_equal(
            exact.run_impulse(charges, shifts),
            fused.run_impulse(charges, shifts),
        )

    def test_pulse_bit_identical(self, pair, design):
        exact, fused = pair
        shifts = _variation_batch(n=8)
        charges = _boundary_charges(design, 0.8, n=8)
        for width in (17e-15, 2e-12):
            assert np.array_equal(
                exact.run_pulse(charges, shifts, pulse_width_s=width),
                fused.run_pulse(charges, shifts, pulse_width_s=width),
            )

    def test_critical_charge_bit_identical(self, pair):
        exact, fused = pair
        shifts = _variation_batch(n=12)
        direction = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(
            exact.critical_charge_c(direction, shifts),
            fused.critical_charge_c(direction, shifts),
        )


class TestTabulatedKernel:
    """The bilinear I-V backend is approximate; its contract is the
    documented accuracy budget, not bit-identity."""

    def test_critical_charge_within_budget(self, design):
        shifts = _variation_batch(n=12)
        exact = ExactCell(design, 0.8)
        tab = FastCell(design, 0.8, _tables_for(design, 0.8, shifts))
        direction = np.array([1.0, 0.0, 0.0])
        q_e = exact.critical_charge_c(direction, shifts)
        q_t = tab.critical_charge_c(direction, shifts)
        # measured boundary shift at the default table resolution is
        # ~1.5e-4 in log charge; 5e-3 relative is a comfortable ceiling
        np.testing.assert_allclose(q_t, q_e, rtol=5e-3)

    def test_flips_agree_away_from_boundary(self, design):
        shifts = _variation_batch(n=16)
        exact = ExactCell(design, 0.8)
        tab = FastCell(design, 0.8, _tables_for(design, 0.8, shifts))
        qcrit = nominal_critical_charge_c(design, 0.8)
        for factor in (0.5, 2.0):
            charges = np.zeros((16, 3))
            charges[:, 0] = factor * qcrit
            assert np.array_equal(
                exact.run_impulse(charges, shifts),
                tab.run_impulse(charges, shifts),
            )

    def test_tables_built_once_and_shared(self, design):
        from repro.sram import IVTables

        tables = IVTables(design, 0.8, shift_pad_v=0.3)
        cell = FastCell(design, 0.8, tables)
        cell.run_impulse(np.zeros((2, 3)), np.zeros((2, 6)))
        assert cell._tables is tables  # covered batch: used as given

    def test_uncovered_shifts_rejected(self, design):
        from repro.sram import IVTables

        tables = IVTables(design, 0.8, shift_pad_v=0.01)
        cell = FastCell(design, 0.8, tables)
        with pytest.raises(ConfigError, match="I-V tables cover"):
            cell.run_impulse(np.zeros((2, 3)), np.full((2, 6), 0.2))

    def test_tables_must_match_vdd(self, design):
        from repro.sram import IVTables

        tables = IVTables(design, 0.8)
        with pytest.raises(ConfigError):
            FastCell(design, 0.9, tables)

    def test_kernel_follows_tables(self, design):
        from repro.sram import IVTables

        assert FastCell(design, 0.8).kernel == "fused"
        assert FastCell(design, 0.8, IVTables(design, 0.8)).kernel == (
            "tabulated"
        )

    def test_table_validation(self, design):
        from repro.sram import IVTables

        with pytest.raises(ConfigError):
            IVTables(design, -0.8)
        with pytest.raises(ConfigError):
            IVTables(design, 0.8, points=4)
        with pytest.raises(ConfigError):
            IVTables(design, 0.8, shift_pad_v=-0.1)

    def test_pickle_round_trip(self, design):
        import pickle

        from repro.sram import IVTables

        tables = IVTables(design, 0.8, points=65)
        clone = pickle.loads(pickle.dumps(tables))
        u = np.linspace(-0.2, 1.0, 7)
        w = np.stack([u, u * 0.5, u - 0.1])
        assert np.array_equal(
            tables.currents_stacked(u, w), clone.currents_stacked(u, w)
        )


class TestEarlyExit:
    """Freezing latched trajectories must not change any outcome."""

    def test_impulse_matches_full_horizon(self, design):
        full = FullHorizonCell(design, 0.8)
        ee = FastCell(design, 0.8)
        shifts = _variation_batch(n=48)
        charges = _boundary_charges(design, 0.8, n=48)
        assert np.array_equal(
            full.run_impulse(charges, shifts),
            ee.run_impulse(charges, shifts),
        )

    def test_tabulated_impulse_matches_full_horizon(self, design):
        shifts = _variation_batch(n=48)
        tables = _tables_for(design, 0.8, shifts)
        full = FullHorizonCell(design, 0.8, tables)
        ee = FastCell(design, 0.8, tables)
        charges = _boundary_charges(design, 0.8, n=48)
        assert np.array_equal(
            full.run_impulse(charges, shifts),
            ee.run_impulse(charges, shifts),
        )

    def test_pulse_matches_full_horizon(self, design):
        full = FullHorizonCell(design, 0.8)
        ee = FastCell(design, 0.8)
        shifts = _variation_batch(n=16)
        charges = _boundary_charges(design, 0.8, n=16)
        assert np.array_equal(
            full.run_pulse(charges, shifts, pulse_width_s=2e-12),
            ee.run_pulse(charges, shifts, pulse_width_s=2e-12),
        )

    def test_critical_charge_matches_full_horizon(self, design):
        full = FullHorizonCell(design, 0.8)
        ee = FastCell(design, 0.8)
        shifts = _variation_batch(n=12)
        direction = np.array([0.0, 1.0, 0.0])
        assert np.array_equal(
            full.critical_charge_c(direction, shifts),
            ee.critical_charge_c(direction, shifts),
        )

    def test_explicit_margin_matches_full_horizon(self, design, monkeypatch):
        from repro.sram import fastcell

        # a 0.55 V margin checked every 4 steps
        monkeypatch.setattr(fastcell, "_EARLY_EXIT_MARGIN_FRAC", 0.55 / 0.8)
        monkeypatch.setattr(fastcell, "_EARLY_EXIT_CHECK_EVERY", 4)
        full = FullHorizonCell(design, 0.8)
        ee = FastCell(design, 0.8)
        shifts = _variation_batch(n=32)
        assert ee.early_exit_margin_v(shifts) == pytest.approx(0.55)
        charges = _boundary_charges(design, 0.8, n=32)
        assert np.array_equal(
            full.run_impulse(charges, shifts),
            ee.run_impulse(charges, shifts),
        )

    def test_actually_freezes(self, design):
        """Decisive charges must be frozen before the full horizon (the
        point of the optimization); verified through the metrics."""
        from repro.obs.registry import disable_metrics, enable_metrics

        registry = enable_metrics(fresh=True)
        try:
            ee = FastCell(design, 0.8)
            qcrit = nominal_critical_charge_c(design, 0.8)
            charges = np.zeros((8, 3))
            charges[:, 0] = np.linspace(0.1, 4.0, 8) * qcrit
            ee.run_impulse(charges, np.zeros((8, 6)))
            frozen = registry.counter(
                "characterize.kernel.early_exit.frozen"
            ).value
            saved = registry.counter(
                "characterize.kernel.early_exit.steps_saved"
            ).value
            assert frozen > 0
            assert saved > 0
        finally:
            disable_metrics()


class TestPinnedQcritGoldens:
    """Qcrit and the circuit baseline always exit early now; these
    literals were captured from the full-horizon implementation and
    must reproduce exactly."""

    def test_critical_charge_vs_vdd(self, design):
        assert critical_charge_vs_vdd(design, (0.7, 0.9, 1.1)).tolist() == [
            1.8199949964343669e-16,
            2.3399955729518626e-16,
            2.8599958455549186e-16,
        ]

    def test_circuit_baseline_qcrit(self, design):
        from repro.baselines.circuit_level import CircuitLevelSerModel

        qcrit = CircuitLevelSerModel(design).critical_charge_c(0.8)
        assert qcrit == 2.266996656507116e-16

    def test_qcrit_cdf_samples(self, design):
        from repro.sram import QcritCdfModel

        model = QcritCdfModel.characterize(design, (0.8,), n_samples=16)
        assert model.qcrit_samples[0.8].tolist() == [
            1.750340964010015e-16,
            1.8363379548337232e-16,
            1.9274750942990532e-16,
            1.967830120269015e-16,
            1.981367781631325e-16,
            2.0174497983750105e-16,
            2.0462136959124902e-16,
            2.0561549622529167e-16,
            2.125010570747239e-16,
            2.1251075522670836e-16,
            2.125971251447895e-16,
            2.193332385908802e-16,
            2.2113058120700405e-16,
            2.2736804949872637e-16,
            2.410657906066895e-16,
            2.615467304618093e-16,
        ]


class TestAgreementWithMnaEngine:
    """The fast model and the full SPICE-substitute must agree on the
    flip boundary -- they share the same device equations."""

    def test_qcrit_brackets_mna_flip(self, design):
        from repro.circuit import RectPulse, make_strike_time_grid, run_transient

        vdd = 0.8
        qcrit = nominal_critical_charge_c(design, vdd)
        tau = design.tech.transit_time_s(vdd)

        def mna_flips(charge):
            wave = RectPulse.from_charge(charge, tau, delay_s=1e-12)
            circuit = design.build_circuit(vdd, strike_waveforms={0: wave})
            times = make_strike_time_grid(1e-12, tau, 6e-11)
            result = run_transient(
                circuit, times, initial_conditions=design.hold_state_guess(vdd)
            )
            return result.final_voltage("q") < result.final_voltage("qb")

        # 25% margins around the fast model's Qcrit must agree
        assert not mna_flips(0.75 * qcrit)
        assert mna_flips(1.25 * qcrit)
