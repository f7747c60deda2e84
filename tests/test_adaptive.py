"""Adaptive trial allocation: strata, weighted merge, campaign controller."""

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import ConfigError, WorkerCrashError
from repro.layout import SramArrayLayout
from repro.obs.events import configure_events, disable_events, get_event_bus
from repro.obs.registry import disable_metrics, enable_metrics, get_registry
from repro.parallel import RetryPolicy, ShardJournal
from repro.parallel.engine import FAULT_ENV
from repro.physics import ALPHA, AlphaEmissionSpectrum
from repro.ser import (
    AdaptiveBin,
    AdaptiveCampaignController,
    AdaptiveConfig,
    ArrayMcConfig,
    ArrayPofResult,
    ArraySerSimulator,
    energy_strata,
    position_strata,
)
from repro.ser.mc import (
    DRAW_BLOCK_SIZE,
    array_shard_decode,
    array_shard_encode,
)
from repro.sram import PofTable
from repro.sram.strike import ALL_COMBOS


# -- cheap synthetic fixtures (shared idiom with test_parallel) ---------------


@pytest.fixture(scope="module")
def pof_table():
    """Tiny hand-built POF table, monotone along every charge axis."""
    vdds = (0.7, 0.9)
    n_q = 5
    base = np.linspace(0.0, 1.0, n_q)
    pof = {}
    for combo in ALL_COMBOS:
        grids = []
        for i_vdd in range(len(vdds)):
            grid = base * (1.0 - 0.2 * i_vdd)
            for _ in range(len(combo) - 1):
                grid = np.add.outer(grid, base * (1.0 - 0.2 * i_vdd)) / 2.0
            grids.append(grid)
        pof[combo] = np.stack(grids, axis=0)
    return PofTable(
        vdd_list=vdds,
        charge_axis_c=np.logspace(-16, -14, n_q),
        pof=pof,
        process_variation=False,
        n_samples=1,
    )


@pytest.fixture(scope="module")
def layout():
    return SramArrayLayout(n_rows=4, n_cols=4)


def make_simulator(layout, pof_table):
    config = ArrayMcConfig(deposition_mode="direct")
    return ArraySerSimulator(layout, pof_table, config=config)


def seed_for_fn(bins):
    index = {bin_.key: i for i, bin_ in enumerate(bins)}

    def seed_for(bin_):
        return np.random.SeedSequence([7, index[bin_.key]])

    return seed_for


def small_controller(simulator, bins, **config_overrides):
    base = dict(
        target_se=2e-3,
        pilot_trials=DRAW_BLOCK_SIZE,
        max_trials=4 * DRAW_BLOCK_SIZE,
        round_blocks=2,
        max_rounds=8,
    )
    base.update(config_overrides)
    return AdaptiveCampaignController(
        simulator, AdaptiveConfig(**base), n_jobs=1
    )


# -- configuration objects -----------------------------------------------------


class TestAdaptiveConfig:
    def test_defaults_valid(self):
        config = AdaptiveConfig()
        assert config.target_se > 0

    def test_validation(self):
        for target_se in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                AdaptiveConfig(target_se=target_se)
        with pytest.raises(ConfigError):
            AdaptiveConfig(pilot_trials=0)
        with pytest.raises(ConfigError):
            AdaptiveConfig(max_trials=0)
        with pytest.raises(ConfigError):
            AdaptiveConfig(round_blocks=0)
        with pytest.raises(ConfigError):
            AdaptiveConfig(max_rounds=0)

    def test_controller_needs_some_ceiling(self, layout, pof_table):
        simulator = make_simulator(layout, pof_table)
        with pytest.raises(ConfigError, match="ceiling"):
            AdaptiveCampaignController(simulator, AdaptiveConfig())
        controller = AdaptiveCampaignController(
            simulator, AdaptiveConfig(), default_max_trials=8192
        )
        assert controller.max_trials == 8192


class TestAdaptiveBin:
    def test_key_is_stable(self):
        bin_ = AdaptiveBin("alpha", 5.0, 0.7)
        assert bin_.key == "alpha.vdd=0.7.e=5"

    def test_spectrum_needs_range(self):
        with pytest.raises(ConfigError):
            AdaptiveBin("alpha", 5.0, 0.7, spectrum=AlphaEmissionSpectrum())
        with pytest.raises(ConfigError):
            AdaptiveBin("alpha", 5.0, 0.7, e_range=(0.5, 10.0))

    def test_energy_positive(self):
        with pytest.raises(ConfigError):
            AdaptiveBin("alpha", 0.0, 0.7)


# -- sampling strata -----------------------------------------------------------


class TestPositionStrata:
    def test_small_margin_collapses_to_core(self, layout):
        # halo wider than the margin: the core bbox clips to the whole
        # window and there is no frame left to stratify
        strata = position_strata(layout, margin_nm=100.0, halo_nm=200.0)
        assert [s["name"] for s in strata] == ["core"]
        assert strata[0]["weight"] == pytest.approx(1.0)

    def test_wide_margin_splits_core_and_frame(self, layout):
        strata = position_strata(layout, margin_nm=1000.0, halo_nm=200.0)
        assert [s["name"] for s in strata] == ["core", "frame"]
        assert sum(s["weight"] for s in strata) == pytest.approx(1.0)
        assert 0.0 < strata[0]["weight"] < 1.0

    def test_core_contains_sensitive_boxes(self, layout):
        strata = position_strata(layout, margin_nm=1000.0, halo_nm=200.0)
        (x0, x1, y0, y1), = strata[0]["rects"]
        boxes = layout.packed_boxes[layout.fin_strike >= 0]
        assert x0 <= float(np.min(boxes[:, 0]))
        assert y0 <= float(np.min(boxes[:, 1]))
        assert x1 >= float(np.max(boxes[:, 3]))
        assert y1 >= float(np.max(boxes[:, 4]))

    def test_rects_tile_the_window(self, layout):
        margin = 1000.0
        strata = position_strata(layout, margin_nm=margin, halo_nm=200.0)
        x_range, y_range, _z, _area = layout.launch_window(margin)
        window_area = (x_range[1] - x_range[0]) * (y_range[1] - y_range[0])
        covered = sum(
            (x1 - x0) * (y1 - y0)
            for s in strata
            for (x0, x1, y0, y1) in s["rects"]
        )
        assert covered == pytest.approx(window_area)

    def test_negative_halo_rejected(self, layout):
        with pytest.raises(ConfigError):
            position_strata(layout, margin_nm=100.0, halo_nm=-1.0)


class TestEnergyStrata:
    def test_weights_sum_to_one(self):
        strata = energy_strata(AlphaEmissionSpectrum(), 0.5, 10.0, 4)
        assert sum(s["weight"] for s in strata) == pytest.approx(1.0)
        assert all(s["weight"] > 0 for s in strata)

    def test_bands_tile_the_range(self):
        strata = energy_strata(AlphaEmissionSpectrum(), 0.5, 10.0, 4)
        edges = [s["e_range"] for s in strata]
        assert edges[0][0] == pytest.approx(0.5)
        assert edges[-1][1] == pytest.approx(10.0)
        for (_, hi), (lo, _) in zip(edges[:-1], edges[1:]):
            assert hi == pytest.approx(lo)

    def test_validation(self):
        spectrum = AlphaEmissionSpectrum()
        with pytest.raises(ConfigError):
            energy_strata(spectrum, 0.5, 10.0, 1)
        with pytest.raises(ConfigError):
            energy_strata(spectrum, 10.0, 0.5, 4)


# -- weighted merge ------------------------------------------------------------


class TestWeightedMerge:
    def _result(self, **overrides):
        base = dict(
            particle_name="alpha",
            energy_mev=5.0,
            vdd_v=0.7,
            n_particles=1000,
            n_array_hits=100,
            n_fin_strikes=50,
            pof_total=0.01,
            pof_seu=0.009,
            pof_mbu=0.001,
            launch_area_cm2=1e-8,
            multiplicity_pmf=np.array([0.0, 0.009, 0.001]),
        )
        base.update(overrides)
        return ArrayPofResult(**base)

    def test_plain_merge_stays_on_legacy_path(self):
        merged = ArrayPofResult.merge([self._result(), self._result()])
        assert merged.pof_variance is None
        assert merged.hit_fraction_weighted is None
        assert merged.stratum is None
        assert merged.weight == 1.0

    def test_two_strata_exact_reweighting(self):
        core = self._result(
            stratum="core", weight=0.25, pof_total=0.04, n_array_hits=400
        )
        frame = self._result(
            stratum="frame", weight=0.75, pof_total=0.0,
            pof_seu=0.0, pof_mbu=0.0, n_array_hits=40,
            multiplicity_pmf=np.zeros(3),
        )
        merged = ArrayPofResult.merge([core, frame])
        assert merged.pof_total == pytest.approx(0.25 * 0.04)
        assert merged.n_particles == 2000
        # counts stay raw sums; the *fractions* are reweighted
        assert merged.n_array_hits == 440
        assert merged.hit_fraction_weighted == pytest.approx(
            0.25 * 0.4 + 0.75 * 0.04
        )
        expected_var = (
            0.25**2 * 0.04 * 0.96 / 1000 + 0.75**2 * 0.0 / 1000
        )
        assert merged.pof_variance == pytest.approx(expected_var)

    def test_heterogeneous_shards_per_stratum(self):
        # several shards per stratum pool by particle count first, in
        # shard order, exactly like the plain merge of that subset
        core_a = self._result(stratum="core", weight=0.5, pof_total=0.02)
        core_b = self._result(
            stratum="core", weight=0.5, pof_total=0.06, n_particles=3000
        )
        frame = self._result(
            stratum="frame", weight=0.5, pof_total=0.001
        )
        merged = ArrayPofResult.merge([core_a, core_b, frame])
        pooled_core = (0.02 * 1000 + 0.06 * 3000) / 4000
        assert merged.pof_total == pytest.approx(
            0.5 * pooled_core + 0.5 * 0.001
        )

    def test_mixed_uniform_and_stratified(self):
        # every shard of a stratified point names its stratum: a plain
        # shard among them is a caller error, in any position
        uniform = self._result(pof_total=0.012, n_particles=1000)
        core = self._result(stratum="core", weight=0.25, pof_total=0.04)
        frame = self._result(
            stratum="frame", weight=0.75, pof_total=0.002, n_particles=2000
        )
        for shards in ([uniform, core, frame], [core, frame, uniform]):
            with pytest.raises(ConfigError, match="uniform"):
                ArrayPofResult.merge(shards)

    def test_merged_result_cannot_be_remerged(self):
        core = self._result(stratum="core", weight=0.5)
        frame = self._result(stratum="frame", weight=0.5)
        merged = ArrayPofResult.merge([core, frame])
        with pytest.raises(ConfigError, match="re-merge"):
            ArrayPofResult.merge([merged, self._result()])

    def test_weights_must_sum_to_one(self):
        core = self._result(stratum="core", weight=0.5)
        frame = self._result(stratum="frame", weight=0.4)
        with pytest.raises(ConfigError, match="sum to 1"):
            ArrayPofResult.merge([core, frame])

    def test_within_stratum_weights_must_agree(self):
        a = self._result(stratum="core", weight=0.5)
        b = self._result(stratum="core", weight=0.6)
        with pytest.raises(ConfigError, match="disagree"):
            ArrayPofResult.merge([a, b])

    def test_uniform_shard_weight_must_be_one(self):
        odd = self._result(weight=0.5)
        with pytest.raises(ConfigError, match="weight 1.0"):
            ArrayPofResult.merge([odd, self._result(stratum="s", weight=1.0)])

    def test_weight_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigError, match=r"outside \(0, 1\]"):
            ArrayPofResult.merge(
                [self._result(stratum="s", weight=1.5)]
            )

    def test_given_hit_uses_weighted_fraction(self):
        core = self._result(
            stratum="core", weight=0.25, pof_total=0.04, n_array_hits=400
        )
        frame = self._result(
            stratum="frame", weight=0.75, pof_total=0.0,
            pof_seu=0.0, pof_mbu=0.0, n_array_hits=0,
            multiplicity_pmf=np.zeros(3),
        )
        merged = ArrayPofResult.merge([core, frame])
        assert merged.hit_fraction == merged.hit_fraction_weighted
        assert merged.pof_total_given_hit == pytest.approx(
            merged.pof_total / merged.hit_fraction_weighted
        )

    def test_unweighted_given_hit_formula_unchanged(self):
        result = self._result()
        assert result.pof_total_given_hit == (
            result.pof_total * result.n_particles / result.n_array_hits
        )

    def test_serialization_round_trip(self):
        core = self._result(stratum="core", weight=0.25)
        clone = ArrayPofResult.from_dict(core.to_dict())
        assert clone.stratum == "core"
        assert clone.weight == 0.25
        merged = ArrayPofResult.merge(
            [core, self._result(stratum="frame", weight=0.75)]
        )
        clone = ArrayPofResult.from_dict(merged.to_dict())
        assert clone.pof_variance == merged.pof_variance
        assert clone.hit_fraction_weighted == merged.hit_fraction_weighted

    def test_legacy_payload_defaults(self):
        payload = self._result().to_dict()
        for key in (
            "weight", "stratum", "hit_fraction_weighted", "pof_variance"
        ):
            payload.pop(key)
        clone = ArrayPofResult.from_dict(payload)
        assert clone.weight == 1.0
        assert clone.stratum is None
        assert clone.pof_variance is None


# -- the campaign controller ---------------------------------------------------


class TestController:
    def _bins(self):
        return [
            AdaptiveBin(ALPHA.name, 1.0, 0.7),
            AdaptiveBin(ALPHA.name, 8.0, 0.7),
        ]

    def test_runs_and_reports(self, layout, pof_table):
        simulator = make_simulator(layout, pof_table)
        bins = self._bins()
        controller = small_controller(simulator, bins)
        report = controller.run(bins, seed_for_fn(bins))
        assert len(report.results) == 2
        assert report.total_trials == sum(
            r.n_particles for r in report.results
        )
        assert report.rounds
        for result, bin_ in zip(report.results, bins):
            assert result.energy_mev == bin_.energy_mev
            assert result.n_particles >= DRAW_BLOCK_SIZE
            assert result.n_particles <= 4 * DRAW_BLOCK_SIZE

    def test_deterministic_across_runs(self, layout, pof_table):
        simulator = make_simulator(layout, pof_table)
        bins = self._bins()
        a = small_controller(simulator, bins).run(bins, seed_for_fn(bins))
        b = small_controller(simulator, bins).run(bins, seed_for_fn(bins))
        assert a.allocation_history == b.allocation_history
        assert a.total_trials == b.total_trials
        for ra, rb in zip(a.results, b.results):
            assert ra.pof_total == rb.pof_total
            assert ra.n_particles == rb.n_particles
            assert np.array_equal(ra.multiplicity_pmf, rb.multiplicity_pmf)

    def test_allocation_follows_standard_error(self, layout, pof_table):
        simulator = make_simulator(layout, pof_table)
        bins = self._bins()
        controller = small_controller(simulator, bins, target_se=2e-4)
        report = controller.run(bins, seed_for_fn(bins))
        pilot = report.rounds[0].standard_errors
        keys = [bin_.key for bin_ in bins]
        noisy = max(keys, key=lambda k: pilot[k])
        quiet = min(keys, key=lambda k: pilot[k])
        trials = {
            key: result.n_particles
            for key, result in zip(keys, report.results)
        }
        assert trials[noisy] >= trials[quiet]

    def test_converged_or_at_ceiling(self, layout, pof_table):
        simulator = make_simulator(layout, pof_table)
        bins = self._bins()
        controller = small_controller(simulator, bins, target_se=2e-4)
        report = controller.run(bins, seed_for_fn(bins))
        for bin_ in bins:
            assert (
                report.converged[bin_.key] or report.at_ceiling[bin_.key]
            )

    def test_unique_bins_required(self, layout, pof_table):
        simulator = make_simulator(layout, pof_table)
        bins = [self._bins()[0], self._bins()[0]]
        controller = small_controller(simulator, bins)
        with pytest.raises(ConfigError, match="duplicate"):
            controller.run(bins, seed_for_fn(bins))

    def test_emits_allocation_events(self, layout, pof_table):
        from repro.obs.inspect import format_event

        configure_events(path=None, ring=64)
        try:
            simulator = make_simulator(layout, pof_table)
            bins = self._bins()
            controller = small_controller(simulator, bins)
            controller.run(bins, seed_for_fn(bins))
            events = get_event_bus().ring.snapshot("allocation")
            assert events
            first = events[0]
            assert first["round"] == 0
            assert set(first["bins"]) == {bin_.key for bin_ in bins}
            rendered = format_event(first)
            assert "allocation" in rendered
        finally:
            disable_events()

    def test_counters_feed_manifest_section(self, layout, pof_table):
        from repro.obs.manifest import build_manifest

        enable_metrics()
        try:
            simulator = make_simulator(layout, pof_table)
            bins = self._bins()
            controller = small_controller(simulator, bins)
            report = controller.run(bins, seed_for_fn(bins))
            manifest = build_manifest(
                command="test",
                argv=[],
                config={},
                seed=None,
                started_at="now",
                duration_s=0.0,
                exit_code=0,
                version="test",
            )
            assert manifest.adaptive["bins"] == 2
            assert manifest.adaptive["rounds"] == len(report.rounds)
            assert manifest.adaptive["trials"] == report.total_trials
        finally:
            disable_metrics()

    def test_spectrum_campaign_matches_run_spectrum(
        self, layout, pof_table
    ):
        simulator = make_simulator(layout, pof_table)
        spectrum = AlphaEmissionSpectrum()
        n = 8 * DRAW_BLOCK_SIZE
        baseline = simulator.run_spectrum(
            ALPHA,
            spectrum,
            0.7,
            n,
            np.random.default_rng(np.random.SeedSequence([7, 42])),
            e_min_mev=0.5,
            e_max_mev=10.0,
        )
        bins = [
            AdaptiveBin(
                ALPHA.name, 2.0, 0.7, e_range=(0.5, 10.0), spectrum=spectrum
            )
        ]
        controller = small_controller(
            simulator,
            bins,
            target_se=1e-3,
            pilot_trials=2 * DRAW_BLOCK_SIZE,
            max_trials=n,
            round_blocks=4,
        )
        report = controller.run(bins, seed_for_fn(bins))
        result = report.results[0]
        # energy strata were sampled: the merge carries the variance
        assert result.pof_variance is not None
        se_a = result.standard_error
        se_u = baseline.standard_error
        width = 3.0 * math.hypot(
            se_a if math.isfinite(se_a) else 0.02,
            se_u if math.isfinite(se_u) else 0.02,
        )
        assert abs(result.pof_total - baseline.pof_total) <= width


# -- trial savings on a Fig. 9-style sweep ------------------------------------


class TestTrialSavings:
    """Adaptive allocation reaches the uniform budget's worst-bin SE
    with at least 5x fewer trials on a fixed-seed 12-bin alpha sweep.

    A normal-incidence beam over a launch window inflated far past the
    array puts all the POF variance in the core stratum, about 13% of
    the area: the regime position stratification exists for.  The
    uniform and adaptive campaigns of bin ``i`` both draw from
    ``SeedSequence([4242, i])``.
    """

    VDDS = (0.7, 0.9)
    UNIFORM_TRIALS = 32 * DRAW_BLOCK_SIZE  # per bin, and the adaptive ceiling

    @pytest.fixture(scope="class")
    def simulator(self):
        from repro.sram import (
            CharacterizationConfig,
            SramCellDesign,
            characterize_cell,
        )

        table = characterize_cell(
            SramCellDesign(),
            CharacterizationConfig(
                vdd_list=self.VDDS,
                n_charge_points=9,
                n_samples=8,
                max_pair_points=4,
                max_triple_points=3,
                seed=5,
            ),
        )
        config = ArrayMcConfig(
            deposition_mode="direct",
            margin_nm=1000.0,
            direction_laws={ALPHA.name: "beam:1.0"},
        )
        return ArraySerSimulator(
            SramArrayLayout(n_rows=4, n_cols=4), table, config=config
        )

    def test_five_fold_savings_at_equal_worst_bin_se(self, simulator):
        energies = np.logspace(math.log10(0.8), 1.0, 6)
        bins = [
            AdaptiveBin(ALPHA.name, float(energy), vdd)
            for vdd in self.VDDS
            for energy in energies
        ]
        uniform = [
            simulator.run(
                ALPHA,
                bin_.energy_mev,
                bin_.vdd_v,
                self.UNIFORM_TRIALS,
                np.random.default_rng(np.random.SeedSequence([4242, i])),
            )
            for i, bin_ in enumerate(bins)
        ]
        uniform_se = [result.standard_error for result in uniform]
        target_se = max(uniform_se)
        index = {bin_.key: i for i, bin_ in enumerate(bins)}
        controller = AdaptiveCampaignController(
            simulator,
            AdaptiveConfig(
                target_se=target_se,
                pilot_trials=DRAW_BLOCK_SIZE,
                max_trials=self.UNIFORM_TRIALS,
                round_blocks=16,
            ),
        )
        report = controller.run(
            bins, lambda bin_: np.random.SeedSequence([4242, index[bin_.key]])
        )
        adaptive_se = [result.standard_error for result in report.results]

        assert all(map(math.isfinite, uniform_se + adaptive_se))
        assert report.total_trials * 5 <= self.UNIFORM_TRIALS * len(bins)
        assert max(adaptive_se) <= target_se
        # the stratified estimator reweights exactly: any systematic gap
        # to the uniform POF is a bias, not noise
        for adaptive, plain, se_a, se_u in zip(
            report.results, uniform, adaptive_se, uniform_se
        ):
            gap = abs(adaptive.pof_total - plain.pof_total)
            assert gap <= 2.0 * math.hypot(se_a, se_u)


class TestKillAndResume:
    def _controller(
        self, simulator, journal_dir, retry=RetryPolicy(retries=0)
    ):
        factory = None
        if journal_dir is not None:
            def factory(round_index):
                return ShardJournal(
                    journal_dir / f"round{round_index:04d}.jsonl",
                    f"test-adaptive-r{round_index}",
                    array_shard_encode,
                    array_shard_decode,
                )
        # two full blocks fill a pool task, so the pilot round runs as
        # four tasks, two per bin
        return AdaptiveCampaignController(
            simulator,
            AdaptiveConfig(
                target_se=3e-4,
                pilot_trials=4 * DRAW_BLOCK_SIZE,
                max_trials=12 * DRAW_BLOCK_SIZE,
                round_blocks=4,
                max_rounds=8,
            ),
            n_jobs=2,
            retry=retry,
            journal_factory=factory,
        )

    def test_resume_replays_identical_campaign(
        self, layout, pof_table, tmp_path, monkeypatch
    ):
        simulator = make_simulator(layout, pof_table)
        bins = [
            AdaptiveBin(ALPHA.name, 1.0, 0.7),
            AdaptiveBin(ALPHA.name, 8.0, 0.7),
        ]
        clean = self._controller(simulator, None).run(
            bins, seed_for_fn(bins)
        )
        assert len(clean.rounds) > 1  # resume must replay real rounds

        # kill the pilot's last task: a worker takes it only after two
        # others finished, so the crashed round leaves a journal to
        # resume from (a first-task kill would leave nothing)
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"array_mc:3:{marker}")
        with pytest.raises(WorkerCrashError):
            self._controller(simulator, tmp_path).run(
                bins, seed_for_fn(bins)
            )
        assert marker.exists()
        assert list(tmp_path.glob("round*.jsonl"))
        monkeypatch.delenv(FAULT_ENV)

        resumed = self._controller(simulator, tmp_path).run(
            bins, seed_for_fn(bins)
        )
        assert resumed.allocation_history == clean.allocation_history
        assert resumed.total_trials == clean.total_trials
        for ra, rb in zip(resumed.results, clean.results):
            assert ra.pof_total == rb.pof_total
            assert ra.n_particles == rb.n_particles
            assert ra.n_array_hits == rb.n_array_hits
            assert np.array_equal(ra.multiplicity_pmf, rb.multiplicity_pmf)
        # a completed campaign clears its checkpoints
        assert not list(tmp_path.glob("round*.jsonl"))

    def test_lenient_retry_still_raises(
        self, layout, pof_table, tmp_path, monkeypatch
    ):
        """A lost block raises even under ``allow_partial``: rounds run
        strict, since a degraded block would skew every later
        allocation decision."""
        simulator = make_simulator(layout, pof_table)
        bins = [
            AdaptiveBin(ALPHA.name, 1.0, 0.7),
            AdaptiveBin(ALPHA.name, 8.0, 0.7),
        ]
        controller = self._controller(
            simulator, None, RetryPolicy(retries=0, allow_partial=True)
        )
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"array_mc:1:{marker}")
        with pytest.raises(WorkerCrashError):
            controller.run(bins, seed_for_fn(bins))
        assert marker.exists()


# -- flow integration ----------------------------------------------------------


class TestFlowIntegration:
    def test_adaptive_config_perturbs_cache_keys(self):
        from repro.core import FlowConfig
        from repro.io.lutio import config_hash

        base = FlowConfig()
        adaptive = dataclasses.replace(
            base, adaptive=AdaptiveConfig(target_se=1e-3)
        )
        assert config_hash(base) != config_hash(adaptive)
        assert config_hash(adaptive) != config_hash(
            dataclasses.replace(base, adaptive=AdaptiveConfig(target_se=2e-3))
        )
