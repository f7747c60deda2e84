"""Batch plans: the one driver of uniform flow-level array campaigns.

Covers the contracts of :mod:`repro.ser.fusion` and its flow wiring:

* bit-identity -- a plan's points equal separate ``simulator.run``
  calls, and ``SerFlow.fit`` / ``sweep`` / ``pof_vs_energy`` each equal
  per-point runs seeded with ``flow._campaign_seed(stage, ...)``;
* pinned literals -- a tiny flow's FITs and sweep cache key, captured
  before the per-campaign driver was removed, never drift;
* fault tolerance -- a plan cannot degrade, and a killed ``fit``
  resumes bit-identically from its plan journal;
* the inlined numpy kernels and the vectorized cluster/POF-grouping
  helpers match their sequential/loop references bitwise;
* observability -- plan counters land in the manifest's ``mc``
  section, and manifests written before the ``backend`` section was
  dropped still load and diff.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro import FlowConfig, SerFlow
from repro.errors import ConfigError, WorkerCrashError
from repro.layout import SramArrayLayout
from repro.obs.inspect import diff_manifests
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.registry import disable_metrics, enable_metrics, get_registry
from repro.parallel import RetryPolicy, get_lease, get_pack
from repro.parallel.engine import FAULT_ENV
from repro.physics import ALPHA, get_particle
from repro.ser import (
    ArrayMcConfig,
    ArraySerSimulator,
    BatchPlan,
    CampaignPoint,
    integrate_fit,
)
from repro.ser.clusters import _accumulate_pairs_loop, _pair_streams
from repro.sram import CharacterizationConfig, PofTable, SramCellDesign
from repro.sram.ivtab import I_SCALE_A, IVTables
from repro.sram.pof_lut import _group_codes, _group_codes_loop
from repro.sram.strike import ALL_COMBOS

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


def run_campaign(layout, pof_table, *, seed=42, n=6000, **overrides):
    simulator = make_simulator(layout, pof_table, **overrides)
    rng = np.random.default_rng(seed)
    return simulator.run(ALPHA, 5.0, 0.7, n, rng)


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
    def test_identical_across_chunking_and_jobs(self, layout, pof_table):
        baseline = run_campaign(layout, pof_table, n=9000, chunk_size=4096)
        rechunked = run_campaign(layout, pof_table, n=9000, chunk_size=16384)
        fanned = run_campaign(
            layout, pof_table, n=9000, chunk_size=4096, n_jobs=2
        )
        assert_results_identical(baseline, rechunked)
        assert_results_identical(baseline, fanned)


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
            CampaignPoint(
                index=i,
                particle_name="alpha",
                energy_mev=energy,
                vdd_v=vdd,
                n_particles=n,
                seed=np.random.SeedSequence(seed),
            )
            for i, (energy, vdd, n, seed) in enumerate(specs)
        ]
        fused = BatchPlan(simulator, points).execute()
        assert len(fused) == 2
        for merged, single in zip(fused, individual):
            assert_results_identical(merged, single)

    def test_fused_plan_metrics(self, layout, pof_table, metrics):
        simulator = make_simulator(layout, pof_table)
        points = [
            CampaignPoint(0, "alpha", 5.0, 0.7, 5000, np.random.SeedSequence(1))
        ]
        BatchPlan(simulator, points).execute()
        counters = get_registry().snapshot()["counters"]
        assert counters["array_mc.plans"] == 1
        assert counters["array_mc.plan_blocks"] == 2  # 4096 + 904
        assert counters["array_mc.runs"] == 1
        assert not any(name.startswith("backend.") for name in counters)

    def test_campaign_runs_counted(self, layout, pof_table, metrics):
        """Every campaign counts once in array_mc.runs; no backend.* counter."""
        run_campaign(layout, pof_table, n=4096)
        run_campaign(layout, pof_table, n=4096, seed=43)
        counters = get_registry().snapshot()["counters"]
        assert counters["array_mc.runs"] == 2
        assert counters["array_mc.particles"] == 2 * 4096
        assert not any(name.startswith("backend.") for name in counters)

    def test_lost_task_raises(self, layout, pof_table, tmp_path, monkeypatch):
        """A plan cannot degrade: a lost block is fatal."""
        simulator = make_simulator(layout, pof_table)
        points = [
            CampaignPoint(0, "alpha", 5.0, 0.7, 9000, np.random.SeedSequence(1))
        ]
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"fused_campaigns:0:{marker}")
        with pytest.raises(WorkerCrashError):
            BatchPlan(
                simulator,
                points,
                n_jobs=2,
                retry=RetryPolicy(retries=0, allow_partial=True),
            ).execute()
        assert marker.exists()


# -- flow scans run as plans ---------------------------------------------------

#: The tiny flow whose FITs and sweep cache key were captured from the
#: per-campaign driver; the plan driver must reproduce them exactly.
TINY_SWEEP_FILE = "sweep-0f87edd7eaa1edf8.json"
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
        monkeypatch.setenv(FAULT_ENV, f"fused_campaigns:2:{marker}")
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


# -- inlined numpy kernels vs. their references --------------------------------


class _FixedPof:
    """POF-table stand-in answering every query with preset values."""

    def __init__(self, pof):
        self.pof = pof

    def query(self, vdd_v, charges):
        assert len(charges) == len(self.pof)
        return self.pof


class TestInlineKernels:
    def test_sparse_multiplicity_matches_sequential_dp(
        self, layout, pof_table
    ):
        """The rank-vectorized DP equals a per-segment python DP, bitwise."""
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
            assert np.array_equal(got, pmfs.sum(axis=0))

    def test_segment_combine_matches_inline_eqs(self, layout, pof_table):
        """``_process_batch`` folds eqs. 4-6 exactly as the historical code."""
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

            order = rng.permutation(len(cells))  # strikes arrive unsorted
            strikes = (
                events[order],
                cells[order],
                np.zeros(len(cells), dtype=np.int64),
                rng.uniform(1e-16, 1e-14, size=len(cells)),
            )
            gathered = (len(sizes), len(cells), len(sizes), strikes)
            simulator._gather_strikes = lambda *_, g=gathered: g
            simulator.pof_table = _FixedPof(pof)
            total, seu, mbu, *_ = simulator._process_batch(
                ALPHA, 5.0, 0.7, None, rng
            )
            # the exact expressions the sparse kernel has always used
            ref_total = 1.0 - np.multiply.reduceat(1.0 - pof, starts)
            clipped = np.minimum(pof, one_minus_eps)
            survive = 1.0 - clipped
            ref_seu = np.multiply.reduceat(survive, starts) * np.add.reduceat(
                clipped / survive, starts
            )
            ref_mbu = np.maximum(ref_total - ref_seu, 0.0)
            assert total == float(np.sum(ref_total))
            assert seu == float(np.sum(ref_seu))
            assert mbu == float(np.sum(ref_mbu))

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


# -- vectorized satellites vs. their preserved loop references -----------------


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
            _accumulate_pairs_loop(pof_cells, n_cols, loop_acc)
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


class TestPofGroupingVectorization:
    def test_group_codes_match_loop(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            codes = rng.integers(0, 8, size=int(rng.integers(0, 40)))
            got = _group_codes(codes)
            ref = _group_codes_loop(codes)
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
