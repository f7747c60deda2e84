"""Batch plans: the one way array Monte Carlo draw blocks run.

Covers the contracts of :mod:`repro.ser.fusion` and its flow wiring:

* bit-identity -- a plan's points equal separate ``simulator.run``
  calls, and ``SerFlow.fit`` / ``sweep`` / ``pof_vs_energy`` each equal
  per-point runs seeded with ``flow._campaign_seed(stage, ...)``; a
  LET-beam point equals its own one-point plan when fused with an
  alpha point, and ``HeavyIonCampaign.run_let`` for any worker count
  and task grouping;
* pinned literals -- a tiny flow's FITs and sweep cache key, captured
  before the per-campaign driver was removed, never drift;
* fault tolerance -- lost blocks follow the caller's retry policy (a
  lenient plan degrades per point, a flow scan raises), a killed
  ``fit`` resumes bit-identically from its plan journal, and a journal
  of another task layout never feeds a plan;
* the inlined numpy kernels and the vectorized cluster/POF-grouping
  helpers match their sequential/loop references bitwise;
* observability -- plan counters land in the manifest's ``mc``
  section, manifests written before the ``backend`` section was
  dropped still load and diff, and each array-MC bin of a flow is
  recorded once, with its result's standard error.
"""

import json
import math
import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro import FlowConfig, SerFlow
from repro.errors import ConfigError, SerializationError, WorkerCrashError
from repro.layout import SramArrayLayout
from repro.obs.convergence import get_convergence_tracker, reset_convergence
from repro.obs.inspect import diff_manifests
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.registry import disable_metrics, enable_metrics, get_registry
from repro.parallel import RetryPolicy, ShardJournal, get_lease, get_pack
from repro.parallel.engine import FAULT_ENV
from repro.physics import ALPHA, get_particle, sample_rays
from repro.ser import (
    AdaptiveConfig,
    ArrayMcConfig,
    ArrayPofResult,
    ArraySerSimulator,
    BatchPlan,
    CampaignPoint,
    HeavyIonCampaign,
    integrate_fit,
)
from repro.ser import clusters
from repro.ser.clusters import _event_cell_pofs, _pair_streams
from repro.ser.mc import (
    DRAW_BLOCK_SIZE,
    _Strikes,
    array_shard_decode,
    array_shard_encode,
)
from repro.sram import CharacterizationConfig, PofTable, SramCellDesign
from repro.sram.ivtab import I_SCALE_A, IVTables
from repro.sram.pof_lut import _group_codes
from repro.sram.strike import ALL_COMBOS

from .array_oracle import (
    accumulate_pairs_loop,
    event_cell_pofs_dense,
    group_codes_loop,
)

# -- shared fixtures (the cheap synthetic setup of test_faults) ----------------


@pytest.fixture(scope="module")
def pof_table():
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


def make_simulator(layout, pof_table, **overrides):
    config = ArrayMcConfig(deposition_mode="direct", **overrides)
    return ArraySerSimulator(layout, pof_table, config=config)


def let_point(let, n, seed):
    """The vertical-beam point ``HeavyIonCampaign.run_let`` builds."""
    return CampaignPoint.uniform(
        "heavy-ion",
        let,
        0.7,
        n,
        seed,
        let_kev_per_nm=let,
        direction_law="beam:1.0",
    )


def run_campaign(layout, pof_table, *, seed=42, n=6000, n_jobs=1):
    simulator = make_simulator(layout, pof_table)
    rng = np.random.default_rng(seed)
    return simulator.run(ALPHA, 5.0, 0.7, n, rng, n_jobs=n_jobs)


def run_as_one_task(simulator, point):
    """Every draw block of ``point`` in a single strike pass, merged."""
    units = [(point, size, seed) for size, seed in point.blocks]
    return ArrayPofResult.merge(simulator._run_task(units))


def assert_results_identical(a, b):
    assert a.pof_total == b.pof_total
    assert a.pof_seu == b.pof_seu
    assert a.pof_mbu == b.pof_mbu
    assert a.n_particles == b.n_particles
    assert a.n_array_hits == b.n_array_hits
    assert a.n_fin_strikes == b.n_fin_strikes
    assert np.array_equal(a.multiplicity_pmf, b.multiplicity_pmf)


def assert_fits_identical(a, b):
    assert a.fit_total == b.fit_total
    assert a.fit_seu == b.fit_seu
    assert a.fit_mbu == b.fit_mbu


@pytest.fixture()
def metrics():
    registry = enable_metrics(fresh=True)
    try:
        yield registry
    finally:
        disable_metrics()


@pytest.fixture()
def clean_engine_state():
    yield
    get_lease().shutdown_all()
    get_pack().release_all()


# -- campaign bit-identity -----------------------------------------------------


class TestCampaignIdentity:
    def test_identical_across_chunking_and_jobs(
        self, layout, pof_table, metrics, clean_engine_state
    ):
        """A campaign equals its blocks run as one task; 60k particles
        are enough work that two workers really fork."""
        n = 60000
        baseline = run_campaign(layout, pof_table, n=n)
        point = CampaignPoint.uniform(
            "alpha", 5.0, 0.7, n, np.random.default_rng(42)
        )
        one_task = run_as_one_task(make_simulator(layout, pof_table), point)
        fanned = run_campaign(layout, pof_table, n=n, n_jobs=2)
        assert_results_identical(baseline, one_task)
        assert_results_identical(baseline, fanned)
        assert get_registry().snapshot()["counters"]["parallel.maps"] == 1


# -- batch plans ---------------------------------------------------------------


class TestBatchPlan:
    def test_fused_points_match_individual_runs(self, layout, pof_table):
        """Two campaigns fused into one plan == two separate runs."""
        simulator = make_simulator(layout, pof_table)
        specs = [(5.0, 0.7, 9000, 101), (2.0, 0.9, 6000, 202)]
        individual = [
            simulator.run(
                ALPHA,
                energy,
                vdd,
                n,
                np.random.default_rng(np.random.SeedSequence(seed)),
            )
            for energy, vdd, n, seed in specs
        ]
        points = [
            CampaignPoint.uniform(
                "alpha", energy, vdd, n, np.random.SeedSequence(seed)
            )
            for energy, vdd, n, seed in specs
        ]
        fused = BatchPlan(simulator, points).execute()
        assert len(fused) == 2
        for merged, single in zip(fused, individual):
            assert_results_identical(merged, single)

    def test_let_point_fused_with_alpha_matches_own_plans(
        self, layout, pof_table
    ):
        """A LET point's branch never reaches another point's blocks.

        Both points have 9000 particles (blocks 4096 + 4096 + 808) and
        tasks fill to 8192 particles, so the middle task runs the alpha
        remainder block and two LET blocks in one pass.
        """
        simulator = make_simulator(layout, pof_table)
        points = [
            CampaignPoint.uniform(
                "alpha", 5.0, 0.7, 9000, np.random.SeedSequence(101)
            ),
            let_point(0.5, 9000, np.random.SeedSequence(202)),
        ]
        fused = BatchPlan(simulator, points).execute()
        for merged, point in zip(fused, points):
            (alone,) = BatchPlan(simulator, [point]).execute()
            assert_results_identical(merged, alone)
        assert fused[1].particle_name == "heavy-ion"
        assert fused[1].pof_total > 0.0

    def test_let_point_identical_across_jobs_and_chunks(
        self, layout, pof_table, metrics, clean_engine_state
    ):
        """``run_let`` equals its point's plan at any worker count and
        its blocks run as one task; 60k particles are enough work that
        two workers really fork."""
        campaign = HeavyIonCampaign(layout, pof_table)
        simulator = campaign.simulator
        n = 60000
        expected = campaign.run_let(0.5, 0.7, n, np.random.default_rng(5))
        results = [
            run_as_one_task(
                simulator, let_point(0.5, n, np.random.default_rng(5))
            )
        ]
        for n_jobs in (1, 2):
            point = let_point(0.5, n, np.random.default_rng(5))
            (result,) = BatchPlan(simulator, [point], n_jobs=n_jobs).execute()
            results.append(result)
        for result in results:
            assert result.pof_total == expected.pof_per_particle
        for result in results[1:]:
            assert_results_identical(result, results[0])
        assert get_registry().snapshot()["counters"]["parallel.maps"] == 1

    def test_fused_plan_metrics(self, layout, pof_table, metrics):
        simulator = make_simulator(layout, pof_table)
        points = [
            CampaignPoint.uniform(
                "alpha", 5.0, 0.7, 5000, np.random.SeedSequence(1)
            )
        ]
        BatchPlan(simulator, points).execute()
        counters = get_registry().snapshot()["counters"]
        assert counters["array_mc.plans"] == 1
        assert counters["array_mc.plan_blocks"] == 2  # 4096 + 904
        assert counters["array_mc.runs"] == 1
        assert not any(name.startswith("backend.") for name in counters)

    def test_execute_records_each_points_standard_error(
        self, layout, pof_table, monkeypatch
    ):
        """The plan records each point once, with ``merged.standard_error``."""
        from repro.ser import fusion

        recorded = []
        monkeypatch.setattr(
            fusion,
            "record_bin",
            lambda stage, **fields: recorded.append((stage, fields)),
        )
        simulator = make_simulator(layout, pof_table)
        points = [
            CampaignPoint.uniform(
                "alpha", energy, vdd, 5000, np.random.SeedSequence(seed)
            )
            for energy, vdd, seed in ((5.0, 0.7, 1), (2.0, 0.9, 2))
        ]
        results = BatchPlan(simulator, points).execute()
        assert [stage for stage, _ in recorded] == ["array-mc", "array-mc"]
        for (_, fields), result in zip(recorded, results):
            assert fields["trials"] == result.n_particles
            assert fields["energy_mev"] == result.energy_mev
            assert fields["vdd_v"] == result.vdd_v
            assert math.isfinite(result.standard_error)
            assert fields["standard_error"] == result.standard_error

    def test_campaign_runs_counted(self, layout, pof_table, metrics):
        """Every campaign counts once in array_mc.runs; no backend.* counter."""
        run_campaign(layout, pof_table, n=4096)
        run_campaign(layout, pof_table, n=4096, seed=43)
        counters = get_registry().snapshot()["counters"]
        assert counters["array_mc.runs"] == 2
        assert counters["array_mc.particles"] == 2 * 4096
        assert not any(name.startswith("backend.") for name in counters)


# -- flow scans run as plans ---------------------------------------------------

#: The tiny flow whose FITs were captured from the per-campaign
#: driver; the plan driver must reproduce them exactly.  Campaign seeds
#: do not depend on the cache key, so a key change leaves FITs alone.
TINY_SWEEP_FILE = "sweep-9ac4bc83149a58cf.json"
TINY_FITS = {
    0.7: (5.217408050499548e-05, 5.133992598015584e-05, 8.341545248396705e-07),
    0.9: (3.687700709525638e-05, 3.612665772441431e-05, 7.503493708420602e-07),
}
TINY_FIT_08 = (
    4.554241825475379e-05,
    4.521209023825288e-05,
    3.303280165009051e-07,
)
TINY_POF_VS_ENERGY = (0.007574708470403876, 0.019635401553742677)


@pytest.fixture(scope="module")
def flow_config():
    return FlowConfig(
        particles=("alpha",),
        vdd_list=(0.7, 0.9),
        yield_energy_points=3,
        yield_trials_per_energy=1500,
        characterization=CharacterizationConfig(
            vdd_list=(0.7, 0.9),
            n_charge_points=11,
            n_samples=25,
            max_pair_points=3,
            max_triple_points=3,
        ),
        array_rows=3,
        array_cols=3,
        n_energy_bins=2,
        mc_particles_per_bin=4000,
        seed=7,
    )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory, flow_config):
    """Artifact cache with the tiny flow's yield LUTs and POF table."""
    directory = tmp_path_factory.mktemp("plan-cache")
    SerFlow(flow_config, cache_dir=str(directory)).simulator()
    return directory


def _per_point(flow, stage, particle_name, vdd, energies, n):
    """The oracle: one ``simulator.run`` per point, flow-seeded."""
    simulator = flow.simulator()
    return [
        simulator.run(
            get_particle(particle_name),
            energy,
            vdd,
            n,
            np.random.default_rng(
                flow._campaign_seed(
                    stage, particle_name, f"{vdd:g}", f"{energy:.9g}"
                )
            ),
        )
        for energy in energies
    ]


def _fit_oracle(flow, particle_name, vdd):
    bins = flow._fit_bins(particle_name)
    energies = [float(e) for e in bins.representative_mev]
    results = _per_point(
        flow,
        "fit",
        particle_name,
        vdd,
        energies,
        flow.config.mc_particles_per_bin,
    )
    return integrate_fit(particle_name, vdd, bins, results)


class TestFlowPlans:
    def test_fit_matches_per_point_runs(self, flow_config, cache_dir):
        flow = SerFlow(flow_config, cache_dir=str(cache_dir))
        assert_fits_identical(
            flow.fit("alpha", 0.7), _fit_oracle(flow, "alpha", 0.7)
        )

    def test_pof_vs_energy_matches_per_point_runs(
        self, flow_config, cache_dir
    ):
        flow = SerFlow(flow_config, cache_dir=str(cache_dir))
        energies = [1.0, 4.0]
        got = flow.pof_vs_energy("alpha", 0.7, energies, n_particles=5000)
        expected = _per_point(flow, "pof-vs-energy", "alpha", 0.7, energies, 5000)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert_results_identical(a, b)

    def test_sweep_matches_per_point_runs(self, flow_config):
        flow = SerFlow(flow_config)  # no cache: the sweep always runs
        sweep = flow.sweep()
        for vdd in flow_config.vdd_list:
            assert_fits_identical(
                sweep.get("alpha", vdd), _fit_oracle(flow, "alpha", vdd)
            )

    def test_fit_bins_built_once_per_process(
        self, flow_config, cache_dir, monkeypatch
    ):
        """Every flow of the process reads the one set of bins of its
        binning, and nobody can write to it."""
        from repro.core import flow as flow_module

        built = []
        real = flow_module.spectrum_for

        def counting(particle_name):
            built.append(particle_name)
            return real(particle_name)

        flow_module._energy_bins.cache_clear()
        monkeypatch.setattr(flow_module, "spectrum_for", counting)
        flow = SerFlow(flow_config, cache_dir=str(cache_dir), resume=False)
        fits = [flow.fit("alpha", vdd) for vdd in (0.7, 0.9)]
        fresh = SerFlow(flow_config, cache_dir=str(cache_dir), resume=False)
        assert_fits_identical(fresh.fit("alpha", 0.9), fits[1])
        assert built == ["alpha"]
        bins = flow._fit_bins("alpha")
        assert fresh._fit_bins("alpha") is bins

        finer = SerFlow(
            replace(flow_config, n_energy_bins=flow_config.n_energy_bins + 1)
        )
        assert len(finer._fit_bins("alpha")) == len(bins) + 1
        assert built == ["alpha", "alpha"]

        for array in (
            bins.edges_mev,
            bins.representative_mev,
            bins.integral_flux_per_cm2_s,
        ):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_invalid_points_rejected(self, flow_config, cache_dir):
        flow = SerFlow(flow_config, cache_dir=str(cache_dir))
        with pytest.raises(ConfigError):
            flow.pof_vs_energy("alpha", 0.7, [0.0])
        with pytest.raises(ConfigError):
            flow.pof_vs_energy("alpha", 0.7, [1.0], n_particles=0)


class TestPinnedLiterals:
    def test_tiny_flow_fits_and_sweep_cache_key(
        self, flow_config, cache_dir
    ):
        flow = SerFlow(flow_config, cache_dir=str(cache_dir))
        sweep = flow.sweep()
        assert TINY_SWEEP_FILE in [
            path.name for path in cache_dir.glob("sweep-*.json")
        ]
        for vdd, (total, seu, mbu) in TINY_FITS.items():
            fit = sweep.get("alpha", vdd)
            assert (fit.fit_total, fit.fit_seu, fit.fit_mbu) == (
                total,
                seu,
                mbu,
            )
        fit = flow.fit("alpha", 0.8)
        assert (fit.fit_total, fit.fit_seu, fit.fit_mbu) == TINY_FIT_08
        pofs = flow.pof_vs_energy("alpha", 0.7, [1.0, 4.0], n_particles=5000)
        assert tuple(r.pof_total for r in pofs) == TINY_POF_VS_ENERGY


class TestFlowKillResume:
    def test_fit_resumes_from_plan_journal(
        self,
        flow_config,
        cache_dir,
        tmp_path,
        monkeypatch,
        metrics,
        clean_engine_state,
    ):
        """Kill a fit mid-plan, rerun it: resumed, bit-identical."""
        # 5 draw blocks per bin -> several pool tasks to kill one of
        config = replace(flow_config, mc_particles_per_bin=20000)
        clean = SerFlow(config, cache_dir=str(cache_dir)).fit("alpha", 0.7)

        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"array_mc:2:{marker}")
        killed = SerFlow(
            config,
            cache_dir=str(cache_dir),
            n_jobs=2,
            retry=RetryPolicy(retries=0, allow_partial=False),
        )
        with pytest.raises(WorkerCrashError):
            killed.fit("alpha", 0.7)
        assert marker.exists()
        journals = list(cache_dir.glob("journal-fit-alpha-*.jsonl"))
        assert len(journals) == 1 and journals[0].stat().st_size > 0

        monkeypatch.delenv(FAULT_ENV)
        resumed = SerFlow(config, cache_dir=str(cache_dir), n_jobs=2).fit(
            "alpha", 0.7
        )
        assert get_registry().counter("journal.resumed").value >= 1
        assert_fits_identical(resumed, clean)
        assert not journals[0].exists()  # cleared after completion


class TestLostBlocks:
    """Lost blocks follow the caller's retry policy, point by point."""

    def test_lenient_plan_flags_only_points_that_lost_blocks(
        self, layout, pof_table, tmp_path, monkeypatch, clean_engine_state
    ):
        # two full blocks per task: points own tasks 0-1, 2-3 and 4-7,
        # and the kill hits task 6.  With two workers at most one
        # earlier task is still in flight when the pool breaks, so every
        # point keeps a block and at least one of the first two stays
        # whole.
        simulator = make_simulator(layout, pof_table)
        specs = [
            (5.0, 0.7, 4 * DRAW_BLOCK_SIZE, 11),
            (2.0, 0.9, 4 * DRAW_BLOCK_SIZE, 12),
            (8.0, 0.7, 8 * DRAW_BLOCK_SIZE, 13),
        ]
        solo = [
            simulator.run(
                ALPHA,
                energy,
                vdd,
                n,
                np.random.default_rng(np.random.SeedSequence(seed)),
            )
            for energy, vdd, n, seed in specs
        ]
        points = [
            CampaignPoint.uniform(
                "alpha", energy, vdd, n, np.random.SeedSequence(seed)
            )
            for energy, vdd, n, seed in specs
        ]
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"array_mc:6:{marker}")
        results = BatchPlan(
            simulator,
            points,
            n_jobs=2,
            retry=RetryPolicy(retries=0, allow_partial=True),
        ).execute()
        assert marker.exists()
        assert results[2].degraded
        whole = 0
        for point, result, single in zip(points, results, solo):
            if result.n_particles == point.n_particles:
                assert not result.degraded
                assert_results_identical(result, single)
                whole += 1
            else:
                assert result.degraded
                assert 0 < result.n_particles < point.n_particles
        assert whole >= 1

    def test_flow_fit_raises_under_lenient_policy(
        self,
        flow_config,
        cache_dir,
        tmp_path,
        monkeypatch,
        clean_engine_state,
    ):
        """A FIT needs every bin whole: the flow's plan runs strict."""
        # 2 bins x 5 blocks (4 x 4096 + 3616) -> 5 tasks filled to 8192
        # particles; killing the last one, bin 2's remainder block,
        # leaves both bins surviving blocks, so only strictness raises
        config = replace(flow_config, mc_particles_per_bin=20000)
        flow = SerFlow(
            config,
            cache_dir=str(cache_dir),
            n_jobs=2,
            retry=RetryPolicy(retries=0, allow_partial=True),
            resume=False,
        )
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"array_mc:4:{marker}")
        with pytest.raises(WorkerCrashError):
            flow.fit("alpha", 0.7)
        assert marker.exists()


class TestJournalLayout:
    """A journal written under another task layout never feeds a plan."""

    def test_short_shard_raises(self, layout, pof_table, tmp_path):
        simulator = make_simulator(layout, pof_table)  # 2 blocks per task
        point = CampaignPoint.uniform(
            "alpha", 5.0, 0.7, 2 * DRAW_BLOCK_SIZE, np.random.SeedSequence(1)
        )
        (blocks,) = BatchPlan(simulator, [point]).run_blocks()
        journal = ShardJournal(
            tmp_path / "plan.jsonl",
            "plan-key",
            array_shard_encode,
            array_shard_decode,
        )
        journal.record(0, blocks[:1])
        with pytest.raises(SerializationError, match="shard 0"):
            BatchPlan(simulator, [point], journal=journal).run_blocks()

    def test_pre_upgrade_adaptive_round_journal_is_ignored(
        self, flow_config, cache_dir, tmp_path, metrics
    ):
        """Round journals of the per-stratum task layout are never loaded."""
        config = replace(
            flow_config,
            mc_particles_per_bin=4 * DRAW_BLOCK_SIZE,
            adaptive=AdaptiveConfig(
                target_se=1e-5,
                pilot_trials=2 * DRAW_BLOCK_SIZE,
                round_blocks=2,
                max_rounds=3,
            ),
        )
        clean = SerFlow(config, cache_dir=str(cache_dir), resume=False).fit(
            "alpha", 0.7
        )

        flow = SerFlow(
            config, cache_dir=str(shutil.copytree(cache_dir, tmp_path / "c"))
        )
        energies = [
            float(e) for e in flow._fit_bins("alpha").representative_mev
        ]
        (blocks,) = BatchPlan(
            flow.simulator(),
            [
                CampaignPoint.uniform(
                    "alpha",
                    energies[0],
                    0.7,
                    DRAW_BLOCK_SIZE,
                    np.random.SeedSequence(0),
                )
            ],
        ).run_blocks()
        # the round-0 key as written before rounds ran as plans; its
        # one-block shards would not fit the plan's two-block tasks
        stale = flow._journal_for(
            "fit-alpha-adaptive-r0000",
            array_shard_encode,
            array_shard_decode,
            flow.config,
            flow.design.tech,
            {
                "stage": "fit",
                "particle": "alpha",
                "vdd": "0.7",
                "energies": [f"{energy:.9g}" for energy in energies],
                "round": 0,
            },
        )
        for index in range(4):
            stale.record(index, blocks)

        resumed = flow.fit("alpha", 0.7)
        assert get_registry().counter("journal.resumed").value == 0
        assert_fits_identical(resumed, clean)
        assert stale.path.exists()

    def test_pre_upgrade_plan_journal_is_ignored(
        self, flow_config, cache_dir, tmp_path, metrics
    ):
        """A sweep journal of two-block tasks never feeds today's plan.

        The tiny sweep has four 4000-particle blocks: tasks used to
        hold two of them and now fill to 8192 particles (three, then
        one), so the old shards would not fit the new tasks.
        """
        clean = SerFlow(flow_config).sweep()  # no cache: runs the plan

        copied = shutil.copytree(cache_dir, tmp_path / "c")
        for path in copied.glob("sweep-*.json"):
            path.unlink()
        flow = SerFlow(flow_config, cache_dir=str(copied))
        n = flow_config.mc_particles_per_bin
        cases = [
            (
                "alpha",
                float(vdd),
                [float(e) for e in flow._fit_bins("alpha").representative_mev],
            )
            for vdd in flow_config.vdd_list
        ]
        points = [
            CampaignPoint.uniform(
                particle,
                energy,
                vdd,
                n,
                flow._campaign_seed(
                    "fit", particle, f"{vdd:g}", f"{energy:.9g}"
                ),
            )
            for particle, vdd, energies in cases
            for energy in energies
        ]
        blocks = [
            block
            for point_blocks in BatchPlan(flow.simulator(), points).run_blocks()
            for block in point_blocks
        ]
        # the sweep's journal key as written before the layout was named
        stale = flow._journal_for(
            "sweep",
            array_shard_encode,
            array_shard_decode,
            flow.config,
            flow.design.tech,
            {
                "stage": "fit",
                "cases": [
                    [particle, f"{vdd:g}", [f"{e:.9g}" for e in energies]]
                    for particle, vdd, energies in cases
                ],
                "n_particles": n,
            },
        )
        for index in range(0, len(blocks), 2):
            stale.record(index // 2, blocks[index : index + 2])

        resumed = flow.sweep()
        assert get_registry().counter("journal.resumed").value == 0
        for vdd in flow_config.vdd_list:
            assert_fits_identical(resumed.get("alpha", vdd), clean.get("alpha", vdd))
        assert stale.path.exists()


# -- inlined numpy kernels vs. their references --------------------------------


class _FixedPof:
    """POF-table stand-in answering one query with preset values."""

    def __init__(self, pof):
        self.pof = pof

    def query(self, vdd_v, charges):
        assert len(charges) == len(self.pof)
        return self.pof


class TestInlineKernels:
    def test_sparse_multiplicity_matches_sequential_dp(
        self, layout, pof_table
    ):
        """The rank-vectorized DP equals a per-segment python DP, bitwise,
        event by event."""
        max_k = 4
        simulator = make_simulator(layout, pof_table, max_multiplicity=max_k)
        rng = np.random.default_rng(22)
        for _ in range(25):
            sizes = rng.integers(1, 7, size=20)
            pof = rng.random(int(sizes.sum()))
            starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            got = simulator._sparse_multiplicity(pof, starts)
            ends = np.append(starts[1:], len(pof))
            pmfs = np.zeros((len(starts), max_k + 1), dtype=np.float64)
            for g, (lo, hi) in enumerate(zip(starts, ends)):
                pmf = np.zeros(max_k + 1)
                pmf[0] = 1.0
                for p in pof[lo:hi]:
                    shifted = np.zeros_like(pmf)
                    shifted[1:] = pmf[:-1]
                    shifted[-1] += pmf[-1]  # overflow bin absorbs k >= max_k
                    pmf = pmf * (1.0 - p) + shifted * p
                pmfs[g] = pmf
            assert np.array_equal(got, pmfs)

    def test_segment_combine_matches_inline_eqs(self, layout, pof_table):
        """``_touched`` + ``_combine`` fold eqs. 4-6 exactly as the
        historical per-block code, batch by batch."""
        simulator = make_simulator(layout, pof_table)
        one_minus_eps = 1.0 - 1e-12
        rng = np.random.default_rng(21)
        for _ in range(50):
            sizes = rng.integers(1, 7, size=40)
            # distinct cells per event, event-major and ascending: the
            # row order np.unique gives the touched (event, cell) keys
            cells = np.concatenate(
                [
                    np.sort(rng.choice(layout.n_cells, size=s, replace=False))
                    for s in sizes
                ]
            )
            events = np.repeat(np.arange(len(sizes)), sizes)
            pof = rng.random(len(cells))
            pof[rng.random(len(cells)) < 0.05] = 1.0  # exercise the clip
            starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
            # three batches of one pass own consecutive runs of events
            event_bounds = np.array([0, 13, 27, len(sizes)])
            row_bounds = starts[event_bounds[:-1]].tolist() + [len(cells)]

            order = rng.permutation(len(cells))  # strikes arrive unsorted
            batch_of = np.searchsorted(event_bounds, events, side="right") - 1
            order = order[np.argsort(batch_of[order], kind="stable")]
            strike_bounds = np.searchsorted(batch_of[order], [0, 1, 2, 3])
            strikes = _Strikes(
                hits=np.diff(event_bounds),
                strike_bounds=strike_bounds,
                event_bounds=event_bounds,
                event_of=events[order],
                cell_of=cells[order],
                strike_of=np.zeros(len(cells), dtype=np.int64),
                charges=rng.uniform(1e-16, 1e-14, size=len(cells)),
            )
            simulator.pof_table = _FixedPof(pof)
            event_of, cell_of, got_pof, got_rows = simulator._touched(
                strikes, [0.7, 0.7, 0.7]
            )
            assert np.array_equal(event_of, events)
            assert np.array_equal(cell_of, cells)
            assert got_rows.tolist() == row_bounds
            sums, _ = simulator._combine(event_of, got_pof, got_rows)
            for b in range(3):
                lo, hi = row_bounds[b], row_bounds[b + 1]
                seg = starts[event_bounds[b] : event_bounds[b + 1]] - lo
                p = pof[lo:hi]
                # the exact expressions the sparse kernel has always used
                ref_total = 1.0 - np.multiply.reduceat(1.0 - p, seg)
                clipped = np.minimum(p, one_minus_eps)
                survive = 1.0 - clipped
                ref_seu = np.multiply.reduceat(
                    survive, seg
                ) * np.add.reduceat(clipped / survive, seg)
                ref_mbu = np.maximum(ref_total - ref_seu, 0.0)
                assert sums[b, 0] == float(np.sum(ref_total))
                assert sums[b, 1] == float(np.sum(ref_seu))
                assert sums[b, 2] == float(np.sum(ref_mbu))

    def test_currents_stacked_matches_bilinear_blend(self):
        """The flat four-gather lookup equals a 3-D indexed blend."""
        tables = IVTables(SramCellDesign(), 0.8, points=33)
        rng = np.random.default_rng(23)
        m = 64
        u = rng.uniform(-0.5, 1.3, size=m)
        w3 = rng.uniform(-0.6, 1.4, size=(3, m))
        got = tables.currents_stacked(u, w3)

        n = tables.points
        tu = (u - tables.u_lo) * tables.u_inv_step
        iu = np.clip(tu.astype(np.int64), 0, n - 2)
        fu = tu - iu
        expected = np.empty((3, m))
        for slab in range(3):
            tw = (w3[slab] - tables.w_lo) * tables.w_inv_step
            jw = np.clip(tw.astype(np.int64), 0, n - 2)
            fw = tw - jw
            z = tables.z[slab]
            z0 = z[iu, jw] + (z[iu, jw + 1] - z[iu, jw]) * fw
            z1 = z[iu + 1, jw] + (z[iu + 1, jw + 1] - z[iu + 1, jw]) * fw
            expected[slab] = I_SCALE_A * np.sinh(z0 + (z1 - z0) * fu)
        assert np.array_equal(got, expected)


# -- vectorized satellites vs. their loop oracles (tests/array_oracle.py) ------


class TestClusterPairVectorization:
    def _random_batch(self, rng):
        n_events = int(rng.integers(1, 12))
        n_cells = 9  # 3x3
        pof = rng.random((n_events, n_cells))
        pof[rng.random((n_events, n_cells)) < 0.6] = 0.0
        return pof

    def test_pair_streams_match_loop_bitwise_and_in_order(self):
        n_cols = 3
        rng = np.random.default_rng(31)
        for _ in range(200):
            pof_cells = self._random_batch(rng)
            loop_acc = {}
            accumulate_pairs_loop(pof_cells, n_cols, loop_acc)
            stream = _pair_streams(pof_cells, n_cols)
            if stream is None:
                assert loop_acc == {}
                continue
            codes, values = stream
            unique_codes, first_pos, inverse = np.unique(
                codes, return_index=True, return_inverse=True
            )
            acc = np.zeros(len(unique_codes), dtype=np.float64)
            np.add.at(acc, inverse, values)
            vec_acc = {
                (
                    int(unique_codes[i] // n_cols),
                    int(unique_codes[i] % n_cols),
                ): float(acc[i])
                for i in np.argsort(first_pos, kind="stable")
            }
            # bit-identical values AND identical dict insertion order
            assert list(vec_acc) == list(loop_acc)
            for key in loop_acc:
                assert vec_acc[key] == loop_acc[key]

    def test_empty_and_single_cell_batches(self):
        assert _pair_streams(np.zeros((4, 9)), 3) is None
        single = np.zeros((2, 9))
        single[0, 4] = 0.5  # one failing cell: no pairs
        assert _pair_streams(single, 3) is None

    @pytest.mark.parametrize("particle", ["alpha", "proton"])
    def test_event_cell_pofs_match_oracle(self, pof_table, particle):
        """Scattering the simulator's touched POFs gives the oracle's
        matrix bit for bit, with the generator drawn identically."""
        simulator = make_simulator(
            SramArrayLayout(n_rows=16, n_cols=16), pof_table
        )
        x_range, y_range, z, _ = simulator.layout.launch_window(
            simulator.config.margin_nm
        )
        law = simulator.config.law_for(particle)
        particle = get_particle(particle)
        compared = 0
        for energy in (1.0, 2.0, 5.0):
            for seed in range(4):
                outputs = []
                for kernel in (_event_cell_pofs, event_cell_pofs_dense):
                    rng = np.random.default_rng(seed)
                    rays = sample_rays(4096, rng, x_range, y_range, z, law)
                    pofs = kernel(simulator, particle, energy, 0.7, rays, rng)
                    outputs.append((pofs, rng.bit_generator.state))
                (got, got_state), (want, want_state) = outputs
                assert got_state == want_state
                if got is None:
                    assert want is None or not want.any()
                    continue
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                compared += int(np.count_nonzero(want))
        assert compared > 0

    def test_collect_pair_offsets_matches_oracle(self, pof_table, monkeypatch):
        simulator = make_simulator(
            SramArrayLayout(n_rows=16, n_cols=16), pof_table
        )

        def collect():
            return clusters.collect_pair_offsets(
                simulator, ALPHA, 2.0, 0.7, 20000, np.random.default_rng(7)
            )

        shipped = collect()
        monkeypatch.setattr(
            clusters, "_event_cell_pofs", event_cell_pofs_dense
        )
        oracle = collect()
        assert shipped.total_pair_rate > 0
        assert list(shipped.expected_pairs) == list(oracle.expected_pairs)
        for offset, rate in oracle.expected_pairs.items():
            assert shipped.expected_pairs[offset] == rate


class TestPofGroupingVectorization:
    def test_group_codes_match_loop(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            codes = rng.integers(0, 8, size=int(rng.integers(0, 40)))
            got = _group_codes(codes)
            ref = group_codes_loop(codes)
            assert len(got) == len(ref)
            for (code_a, rows_a), (code_b, rows_b) in zip(got, ref):
                assert code_a == code_b
                assert np.array_equal(rows_a, rows_b)

    def test_empty(self):
        assert _group_codes(np.array([], dtype=np.int64)) == []


# -- observability -------------------------------------------------------------


def _manifest(**overrides):
    fields = dict(
        command="sweep",
        argv=["sweep"],
        config={},
        seed=7,
        started_at="2026-08-08T00:00:00+00:00",
        duration_s=1.0,
        exit_code=0,
        version="1.0.0",
    )
    fields.update(overrides)
    return build_manifest(**fields)


class TestPlanObservability:
    def test_manifest_plan_counters_in_mc_section(self, metrics):
        registry = get_registry()
        registry.counter("array_mc.runs").inc(4)
        registry.counter("array_mc.plans").inc()
        registry.counter("array_mc.plan_blocks").inc(12)
        manifest = _manifest()
        assert manifest.mc["array_runs"] == 4
        assert manifest.mc["array_plans"] == 1
        assert manifest.mc["array_plan_blocks"] == 12
        assert "backend" not in manifest.to_dict()
        assert "backend" not in manifest.environment
        clone = RunManifest.from_dict(manifest.to_dict())
        assert clone.mc == manifest.mc

    def test_old_manifest_with_backend_section_loads_and_diffs(
        self, tmp_path, metrics
    ):
        """Manifests written with a ``backend`` section stay readable."""
        new = _manifest()
        old = new.to_dict()
        old["backend"] = {"runs": {"numpy": 3}, "fused_plans": 1}
        old["environment"] = dict(old["environment"], backend="numpy")
        old_path = tmp_path / "old.json"
        old_path.write_text(json.dumps(old))
        new_path = new.write(tmp_path / "new.json")

        loaded = RunManifest.load(old_path)
        assert loaded.command == "sweep"
        diffs, meta = diff_manifests(old_path, new_path)
        assert ("environment.backend", "numpy", "<absent>") in diffs
        assert meta["a"]["command"] == meta["b"]["command"] == "sweep"


class TestOneRecordPerBin:
    """A flow records each array-MC bin once, where its estimate merges."""

    @pytest.mark.parametrize(
        "adaptive", [False, True], ids=["uniform", "adaptive"]
    )
    def test_sweep_records_each_array_bin_once(
        self, flow_config, adaptive, metrics, clean_engine_state
    ):
        config = replace(
            flow_config,
            array_rows=4,
            array_cols=4,
            # 64k particles: enough work that the array-MC plan forks
            mc_particles_per_bin=16384,
            adaptive=(
                AdaptiveConfig(
                    target_se=1e-4,
                    pilot_trials=DRAW_BLOCK_SIZE,
                    round_blocks=2,
                    max_rounds=2,
                )
                if adaptive
                else None
            ),
        )
        reset_convergence()
        try:
            SerFlow(config, n_jobs=2).sweep()
            summary = get_convergence_tracker().summary()
        finally:
            reset_convergence()
        snapshot = metrics.snapshot()
        counters = snapshot["counters"]
        stage = "adaptive-fit" if adaptive else "array-mc"
        per_bin = summary["per_bin"]
        assert {key.split(".")[0] for key in per_bin} == {
            stage,
            "yield-lut",
            "characterize",
        }

        # one bin per (Vdd, energy), each array trial counted once
        array = {
            key: b for key, b in per_bin.items() if key.startswith(f"{stage}.")
        }
        assert len(array) == len(config.vdd_list) * config.n_energy_bins
        assert {key.split(".e=")[0] for key in array} == {
            f"{stage}.alpha.vdd={vdd:g}" for vdd in config.vdd_list
        }
        array_trials = counters[
            "adaptive.trials" if adaptive else "array_mc.particles"
        ]
        assert sum(b["trials"] for b in array.values()) == array_trials
        if not adaptive:  # the plan ran on the pool, its bins in the parent
            assert "parallel.speedup.array_mc" in snapshot["gauges"]
        yield_trials = (
            config.yield_energy_points * config.yield_trials_per_energy
        )
        samples = config.characterization.n_samples * len(config.vdd_list)
        assert summary["total_trials"] == (
            array_trials + yield_trials + samples
        )
        assert summary["bins"] == (
            len(array) + config.yield_energy_points + len(config.vdd_list)
        )
