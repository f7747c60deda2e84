"""Cell characterization into POF LUTs (paper Section 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, LookupError_
from repro.sram import (
    ALL_COMBOS,
    CharacterizationConfig,
    PofTable,
    SramCellDesign,
    characterize_cell,
)
from repro.sram.qcrit import (
    critical_charge_samples_c,
    nominal_critical_charge_c,
)


@pytest.fixture(scope="module")
def design():
    return SramCellDesign()


@pytest.fixture(scope="module")
def table(design):
    config = CharacterizationConfig(
        vdd_list=(0.7, 0.9),
        n_charge_points=17,
        n_samples=60,
        max_pair_points=6,
        max_triple_points=4,
        seed=3,
    )
    return characterize_cell(design, config)


@pytest.fixture(scope="module")
def nominal_table(design):
    config = CharacterizationConfig(
        vdd_list=(0.7, 0.9),
        n_charge_points=17,
        process_variation=False,
        max_pair_points=6,
        max_triple_points=4,
    )
    return characterize_cell(design, config)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CharacterizationConfig(vdd_list=())
        with pytest.raises(ConfigError):
            CharacterizationConfig(vdd_list=(0.9, 0.7))
        with pytest.raises(ConfigError):
            CharacterizationConfig(vdd_list=(0.7, 0.7))
        for vdd in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                CharacterizationConfig(vdd_list=(0.7, vdd))
        with pytest.raises(ConfigError):
            CharacterizationConfig(charge_min_fc=1.0, charge_max_fc=0.5)
        with pytest.raises(ConfigError):
            CharacterizationConfig(n_samples=0)
        # a zero step divides by zero; a negative time or step would
        # clamp to one backwards RK4 step
        for times in (
            dict(dt_s=0.0),
            dict(dt_s=-2.5e-13),
            dict(t_sim_s=-3e-11),
            dict(t_sim_s=0.0),
            dict(t_sim_s=1e-13, dt_s=2.5e-13),
        ):
            with pytest.raises(ConfigError):
                CharacterizationConfig(**times)

    def test_charge_axis_log_spaced(self):
        axis = CharacterizationConfig(n_charge_points=11).charge_axis_c()
        ratios = axis[1:] / axis[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_combo_axis_decimation(self):
        config = CharacterizationConfig(n_charge_points=21, max_pair_points=7)
        assert len(config.axis_for_combo((0,))) == 21
        assert len(config.axis_for_combo((0, 1))) == 7


class TestKernelEquivalence:
    """End-to-end contracts of the shipped characterization (fused
    stacking, early exit, flip-frontier bisection): each reproduces the
    dense oracle -- every grid point simulated for every sample -- on
    the original kernel (exact per-role currents, full horizon)
    bit-identically; the tabulated kernel it ships with stays within
    its POF accuracy budget."""

    BASE = dict(
        vdd_list=(0.7,),
        n_charge_points=7,
        n_samples=6,
        max_pair_points=3,
        max_triple_points=3,
        seed=11,
    )

    @classmethod
    def _config(cls, **overrides):
        return CharacterizationConfig(**cls.BASE, **overrides)

    @classmethod
    def _run(cls, design, **overrides):
        return characterize_cell(design, cls._config(**overrides))

    @pytest.fixture(scope="class")
    def seed_table(self, design):
        from .cell_oracle import ExactCell, dense_pof_table

        return dense_pof_table(
            design, self._config(), cell_cls=ExactCell, kernel="fused"
        )

    @staticmethod
    def _assert_identical(a, b):
        for combo in a.pof:
            assert np.array_equal(a.pof[combo], b.pof[combo])

    def test_fused_bit_identical(self, design, seed_table, monkeypatch):
        """The shipped bisection on the fused kernel: a cell that drops
        the I-V tables the characterization builds for it."""
        from repro.sram import FastCell
        from repro.sram import characterize as module

        class FusedCell(FastCell):
            def __init__(self, design, vdd_v, tables=None):
                super().__init__(design, vdd_v)

        monkeypatch.setattr(module, "FastCell", FusedCell)
        self._assert_identical(self._run(design), seed_table)

    def test_early_exit_bit_identical(self, design):
        from .cell_oracle import FullHorizonCell, dense_pof_table

        dense = dense_pof_table(
            design, self._config(), cell_cls=FullHorizonCell
        )
        self._assert_identical(self._run(design), dense)

    def test_tabulated_within_budget(self, design, seed_table):
        tabulated = self._run(design)  # the shipped kernel
        for combo in seed_table.pof:
            dev = np.max(
                np.abs(tabulated.pof[combo] - seed_table.pof[combo])
            )
            assert dev <= 0.01, f"combo {combo}: |dPOF| {dev:.4f}"

    def test_kernel_metrics_recorded(self, design):
        from repro.obs.registry import disable_metrics, enable_metrics

        registry = enable_metrics(fresh=True)
        try:
            self._run(design)
            runs = registry.counter("characterize.kernel.runs.tabulated")
            builds = registry.counter("characterize.kernel.table_builds")
            frozen = registry.counter(
                "characterize.kernel.early_exit.frozen"
            )
            assert runs.value > 0
            assert builds.value >= 1
            assert frozen.value > 0
        finally:
            disable_metrics()


class TestFlipFrontier:
    """The shipped bisection of each sample's flip frontier against the
    dense grid, and the properties it rests on."""

    @pytest.mark.parametrize(
        "config",
        [
            # serbench scale (MODEL samples=40, default seed)
            CharacterizationConfig(n_samples=40),
            CharacterizationConfig(),
            CharacterizationConfig(process_variation=False),
        ],
        ids=["serbench", "default", "nominal"],
    )
    def test_matches_dense_oracle(self, design, config):
        from .cell_oracle import dense_pof_table

        shipped = characterize_cell(design, config)
        dense = dense_pof_table(design, config)
        for combo in ALL_COMBOS:
            assert np.array_equal(shipped.pof[combo], dense.pof[combo]), combo

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sigma_scale=st.floats(0.5, 2.0),
        vdd=st.sampled_from((0.7, 0.9, 1.1)),
    )
    def test_monotone_per_sample_on_random_shifts(
        self, design, seed, sigma_scale, vdd
    ):
        """Along every fixed-q1 line each sample's dense outcome never
        unflips as q2+q3 grows, and the bisection reproduces it."""
        from repro.sram import FastCell, IVTables
        from repro.sram import characterize as module

        config = CharacterizationConfig(
            vdd_list=(vdd,),
            n_charge_points=9,
            n_samples=8,
            max_pair_points=5,
            max_triple_points=4,
        )
        sigma = sigma_scale * design.tech.sigma_vth_v
        shifts = np.random.default_rng(seed).normal(0.0, sigma, (8, 6))
        pad = 1.5 * float(np.max(np.abs(shifts)))
        cell = FastCell(design, vdd, IVTables(design, vdd, shift_pad_v=pad))
        settled = cell.settle(shifts, dt_s=config.dt_s)
        rows, _ = module._combo_rows(config)
        n_rows, n = len(rows), len(shifts)
        charges = np.zeros((n_rows * n, 3))
        charges[:, :2] = np.repeat(rows, n, axis=0)
        dense = cell.run_impulse(
            charges,
            np.tile(shifts, (n_rows, 1)),
            settled=(np.tile(settled[0], n_rows), np.tile(settled[1], n_rows)),
            t_sim_s=config.t_sim_s,
            dt_s=config.dt_s,
        ).reshape(n_rows, n)

        same_line = rows[1:, 0] == rows[:-1, 0]
        unflips = dense[:-1] & ~dense[1:] & same_line[:, np.newaxis]
        assert not unflips.any(), np.argwhere(unflips)
        bisected, _ = module._flip_outcomes(
            cell, rows, shifts, settled, config
        )
        assert np.array_equal(bisected, dense)

    def test_every_decision_gets_the_population_margin(
        self, design, monkeypatch
    ):
        """One robust outlier sets the early-exit margin (1.5 * 0.4 V >
        0.6 * Vdd); it never flips on the grid, so its chains finish
        while others still run, and the rows left in the batch would get
        a smaller margin of their own.  Every checkpoint decision must
        still use the population's margin."""
        from repro.devices import VariationModel
        from repro.sram import FastCell
        from repro.sram import characterize as module

        margins = []

        class SpyCell(FastCell):
            def _step(self, vq, vqb, ctx, dt, *args, **kwargs):
                self.live = ctx
                return super()._step(vq, vqb, ctx, dt, *args, **kwargs)

            def _latched(self, s, s_prev, margin):
                own = self.early_exit_margin_v(self.live.offsets)
                margins.append((margin, own))
                return super()._latched(s, s_prev, margin)

        sample_shifts = VariationModel.sample_shifts

        def with_outlier(self, n, nfins, rng):
            shifts = sample_shifts(self, n, nfins, rng)
            # strong pu_l/pd_r, weak pd_l/pu_r: the held state resists
            shifts[0] = [-0.4, 0.4, 0.0, 0.4, -0.4, 0.0]
            return shifts

        monkeypatch.setattr(VariationModel, "sample_shifts", with_outlier)
        monkeypatch.setattr(module, "FastCell", SpyCell)
        config = CharacterizationConfig(
            vdd_list=(0.7,),
            n_charge_points=7,
            n_samples=6,
            max_pair_points=3,
            max_triple_points=3,
            charge_max_fc=0.3,
            seed=11,
        )
        characterize_cell(design, config)
        population = FastCell(design, 0.7).early_exit_margin_v(
            np.array([[0.4] * 6])
        )
        assert margins
        assert all(passed == population for passed, _ in margins)
        # decisions made after the outlier's chains have finished
        assert any(own < population for _, own in margins)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        vdd=st.sampled_from((0.7, 0.9, 1.1)),
        kernel=st.sampled_from(("tabulated", "fused")),
        n_samples=st.integers(1, 6),
        n_charge_points=st.integers(4, 9),
        max_pair_points=st.integers(3, 5),
        steps=st.sampled_from((120, 123, 13, 5)),
        outlier=st.integers(-1, 5),
    )
    def test_refill_matches_rounds(
        self,
        design,
        seed,
        vdd,
        kernel,
        n_samples,
        n_charge_points,
        max_pair_points,
        steps,
        outlier,
    ):
        """The refilled batch decides every row as the round bisection
        does: the same outcomes from the same rows, frozen at the same
        checkpoints of their own ages, on both kernels, small random
        axes, horizons off the 8-step checkpoint grid and a population
        whose margin a robust outlier sets (``outlier`` is its sample
        index, -1 for none)."""
        from repro.obs.registry import disable_metrics, enable_metrics
        from repro.sram import FastCell, IVTables
        from repro.sram import characterize as module

        from .cell_oracle import round_flip_outcomes

        config = CharacterizationConfig(
            vdd_list=(vdd,),
            n_charge_points=n_charge_points,
            n_samples=n_samples,
            max_pair_points=max_pair_points,
            max_triple_points=3,
            t_sim_s=steps * 2.5e-13,
            dt_s=2.5e-13,
        )
        rng = np.random.default_rng(seed)
        shifts = rng.normal(0.0, design.tech.sigma_vth_v, (n_samples, 6))
        if 0 <= outlier < n_samples:
            shifts[outlier] = [-0.4, 0.4, 0.0, 0.4, -0.4, 0.0]
        tables = None
        if kernel == "tabulated":
            pad = 1.5 * float(np.max(np.abs(shifts)))
            tables = IVTables(design, vdd, shift_pad_v=pad)
        cell = FastCell(design, vdd, tables)
        settled = cell.settle(shifts, dt_s=config.dt_s)
        rows, _ = module._combo_rows(config)
        results = []
        try:
            for bisect in (module._flip_outcomes, round_flip_outcomes):
                registry = enable_metrics(fresh=True)
                flipped, sims = bisect(cell, rows, shifts, settled, config)
                frozen, saved = (
                    registry.counter(f"characterize.kernel.early_exit.{n}")
                    for n in ("frozen", "steps_saved")
                )
                results.append((flipped, sims, frozen.value, saved.value))
        finally:
            disable_metrics()
        refilled, rounds = results
        assert np.array_equal(refilled[0], rounds[0])
        assert refilled[1:] == rounds[1:]

    def test_counters_count_rows_integrated(self, design):
        """``cell_sims`` counts the rows the bisection integrated, not
        grid points x samples; ``grid_points`` counts mesh points."""
        from repro.obs.registry import disable_metrics, enable_metrics

        config = CharacterizationConfig(
            vdd_list=(0.7, 0.9),
            n_charge_points=7,
            n_samples=6,
            max_pair_points=3,
            max_triple_points=3,
            seed=11,
        )
        registry = enable_metrics(fresh=True)
        try:
            characterize_cell(design, config)
            grid_points = registry.counter("characterize.grid_points").value
            cell_sims = registry.counter("characterize.cell_sims").value
        finally:
            disable_metrics()
        # per Vdd: 3 x 7 singles + 3 x 3^2 pairs + 3^3 triple
        assert grid_points == 2 * 75
        # 109 rows at 0.7 V + 115 at 0.9 V, against 2 x 75 x 6 = 900
        # grid points x samples
        assert cell_sims == 224


class TestAgreementWithQcrit:
    """The I1-only POF row is the empirical CDF of the per-sample
    critical charge: both draw the same shifts from ``default_rng(seed)``,
    and a sample flips at a charge node iff its Qcrit lies at or below
    the node."""

    SEED = 8
    N_SAMPLES = 120

    @pytest.fixture(scope="class")
    def qcrit_table(self, design):
        config = CharacterizationConfig(
            vdd_list=(0.7, 0.9),
            n_charge_points=25,
            n_samples=self.N_SAMPLES,
            max_pair_points=6,
            max_triple_points=4,
            seed=self.SEED,
        )
        return characterize_cell(design, config)

    @pytest.mark.parametrize("v_i, vdd", [(0, 0.7), (1, 0.9)])
    def test_single_strike_pof_is_the_qcrit_cdf(
        self, design, qcrit_table, v_i, vdd
    ):
        qcrit = critical_charge_samples_c(
            design, vdd, self.N_SAMPLES, np.random.default_rng(self.SEED)
        )
        axis = qcrit_table.charge_axis_c
        at_or_below = np.sum(qcrit[:, np.newaxis] <= axis, axis=0)
        flipped = np.rint(qcrit_table.pof[(0,)][v_i] * self.N_SAMPLES)
        # one sample of slack: a last-bit change of one bisected Qcrit
        # (another numpy) may move it across a node
        assert np.max(np.abs(flipped - at_or_below)) <= 1, (
            flipped,
            at_or_below,
        )


class TestPofTableStructure:
    def test_all_combos_present(self, table):
        assert set(table.pof) == set(ALL_COMBOS)

    def test_grid_shapes(self, table):
        n_q = len(table.charge_axis_c)
        assert table.pof[(0,)].shape == (2, n_q)
        assert table.pof[(0, 1)].shape == (2, n_q, n_q)
        assert table.pof[(0, 1, 2)].shape == (2, n_q, n_q, n_q)

    def test_pof_in_unit_interval(self, table):
        for grid in table.pof.values():
            assert np.all(grid >= 0.0)
            assert np.all(grid <= 1.0)

    def test_monotone_along_each_axis(self, table):
        for combo, grid in table.pof.items():
            for axis in range(1, grid.ndim):
                assert np.all(np.diff(grid, axis=axis) >= -1e-12)

    def test_edges_are_decisive(self, table):
        # smallest charge never flips, largest always flips
        for vdd_index in range(2):
            single = table.pof[(0,)][vdd_index]
            assert single[0] == 0.0
            assert single[-1] == 1.0


class TestPofQueries:
    def test_zero_charge_zero_pof(self, table):
        assert table.query(0.8, np.zeros((3, 3))) == pytest.approx([0, 0, 0])

    def test_threshold_behaviour(self, table, design):
        qcrit = nominal_critical_charge_c(design, 0.7)
        low = table.query(0.7, np.array([[0.3 * qcrit, 0, 0]]))[0]
        high = table.query(0.7, np.array([[3.0 * qcrit, 0, 0]]))[0]
        assert low < 0.05
        assert high > 0.95

    def test_lower_vdd_weaker_cell(self, table):
        # at a charge near threshold, POF(0.7V) >= POF(0.9V)
        axis = table.charge_axis_c
        mid = np.array([[axis[len(axis) // 2], 0.0, 0.0]])
        assert table.query(0.7, mid)[0] >= table.query(0.9, mid)[0] - 1e-9

    def test_vdd_interpolation_brackets(self, table):
        charges = np.array([[1.2e-16, 0.0, 0.0]])
        p_lo = table.query(0.7, charges)[0]
        p_hi = table.query(0.9, charges)[0]
        p_mid = table.query(0.8, charges)[0]
        assert min(p_lo, p_hi) - 1e-12 <= p_mid <= max(p_lo, p_hi) + 1e-12

    def test_vdd_clamp_outside_range(self, table):
        charges = np.array([[1.2e-16, 0.0, 0.0]])
        assert table.query(0.5, charges)[0] == pytest.approx(
            table.query(0.7, charges)[0]
        )

    def test_charge_clamp_above_grid(self, table):
        charges = np.array([[1e-12, 0.0, 0.0]])  # 1 pC, way off grid
        assert table.query(0.7, charges)[0] == pytest.approx(1.0)

    def test_multi_strike_exceeds_single(self, table, design):
        qcrit = nominal_critical_charge_c(design, 0.7)
        q = 0.7 * qcrit
        single = table.query(0.7, np.array([[q, 0, 0]]))[0]
        double = table.query(0.7, np.array([[q, q, 0]]))[0]
        assert double >= single - 1e-9

    def test_scenario_query(self, table):
        from repro.sram import StrikeScenario

        pof = table.query_scenario(0.7, StrikeScenario(5e-16, 0, 0))
        assert pof == pytest.approx(1.0)

    def test_negative_charge_rejected(self, table):
        with pytest.raises(ConfigError):
            table.query(0.7, np.array([[-1e-16, 0, 0]]))

    def test_critical_charge_extraction(self, table, design):
        qcrit_table = table.critical_charge_c(0.7)
        qcrit_direct = nominal_critical_charge_c(design, 0.7)
        assert qcrit_table == pytest.approx(qcrit_direct, rel=0.25)


class TestNominalMode:
    def test_binary_pofs(self, nominal_table):
        # "deterministic binary value" (paper Section 4).  Multi-strike
        # grids are re-interpolated onto the shared axis, which smears
        # the step; the natively-gridded single-strike tables stay
        # exactly binary.
        for combo in ((0,), (1,), (2,)):
            grid = nominal_table.pof[combo]
            assert np.all((grid == 0.0) | (grid == 1.0))

    def test_n_samples_is_one(self, nominal_table):
        assert nominal_table.n_samples == 1
        assert not nominal_table.process_variation

    def test_pv_smooths_the_step(self, table, nominal_table):
        """With PV the POF transition must be wider than the binary step."""
        axis = table.charge_axis_c
        pv = table.pof[(0,)][0]
        intermediate = np.sum((pv > 0.02) & (pv < 0.98))
        assert intermediate >= 1


class TestSerialization:
    def test_round_trip(self, table):
        clone = PofTable.from_dict(table.to_dict())
        assert np.allclose(clone.vdd_list, table.vdd_list)
        assert np.allclose(clone.charge_axis_c, table.charge_axis_c)
        for combo in ALL_COMBOS:
            assert np.allclose(clone.pof[combo], table.pof[combo])
        charges = np.array([[1.3e-16, 0.0, 2.0e-16]])
        assert clone.query(0.8, charges)[0] == pytest.approx(
            table.query(0.8, charges)[0]
        )

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigError):
            PofTable.from_dict({"kind": "something-else"})


class TestGridPointConsistency:
    def test_query_reproduces_stored_grid(self, table):
        """Interpolation is exact at the tabulated grid points."""
        axis = table.charge_axis_c
        stored = table.pof[(0,)][0]  # vdd index 0 = 0.7 V
        for i in (0, len(axis) // 2, len(axis) - 1):
            charges = np.zeros((1, 3))
            charges[0, 0] = axis[i]
            assert table.query(0.7, charges)[0] == pytest.approx(
                stored[i], abs=1e-9
            )

    def test_pair_grid_point_consistency(self, table):
        axis = table.charge_axis_c
        mid = len(axis) // 2
        charges = np.zeros((1, 3))
        charges[0, 0] = axis[mid]
        charges[0, 1] = axis[mid]
        stored = table.pof[(0, 1)][0][mid, mid]
        assert table.query(0.7, charges)[0] == pytest.approx(
            stored, abs=1e-9
        )
