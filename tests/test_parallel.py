"""Parallel execution engine: determinism, merging, sparse kernel."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.geometry import RayBatch
from repro.layout import SramArrayLayout
from repro.obs.registry import MetricsRegistry
from repro.parallel import get_lease, parallel_map, resolve_jobs, spawn_seeds
from repro.physics import ALPHA, AlphaEmissionSpectrum, sample_rays
from repro.sram import (
    CharacterizationConfig,
    PofTable,
    SramCellDesign,
    characterize_cell,
)
from repro.sram.strike import ALL_COMBOS
from repro.ser import (
    ArrayMcConfig,
    ArrayPofResult,
    ArraySerSimulator,
    CampaignPoint,
)
from repro.transport import ElectronYieldLUT

from .array_oracle import gather_strikes_dense, process_batch_dense


# -- cheap synthetic fixtures (no SPICE characterization needed) ---------------


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


def run_campaign(layout, pof_table, *, seed=42, n=6000, n_jobs=1):
    simulator = make_simulator(layout, pof_table)
    rng = np.random.default_rng(seed)
    return simulator.run(ALPHA, 5.0, 0.7, n, rng, n_jobs=n_jobs)


def assert_results_identical(a, b):
    assert a.pof_total == b.pof_total
    assert a.pof_seu == b.pof_seu
    assert a.pof_mbu == b.pof_mbu
    assert a.n_particles == b.n_particles
    assert a.n_array_hits == b.n_array_hits
    assert a.n_fin_strikes == b.n_fin_strikes
    assert np.array_equal(a.multiplicity_pmf, b.multiplicity_pmf)


# -- engine primitives ---------------------------------------------------------


class TestEngine:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        with pytest.raises(ConfigError):
            resolve_jobs(-1)

    def test_spawn_seeds_deterministic(self):
        seeds_a = spawn_seeds(np.random.default_rng(3), 4)
        seeds_b = spawn_seeds(np.random.default_rng(3), 4)
        for a, b in zip(seeds_a, seeds_b):
            assert np.array_equal(
                np.random.default_rng(a).integers(0, 1 << 30, 8),
                np.random.default_rng(b).integers(0, 1 << 30, 8),
            )

    def test_spawn_seeds_independent_streams(self):
        seeds = spawn_seeds(np.random.default_rng(3), 2)
        draws = [
            np.random.default_rng(s).integers(0, 1 << 30, 8) for s in seeds
        ]
        assert not np.array_equal(draws[0], draws[1])

    def test_parallel_map_preserves_order(self):
        results = parallel_map(_square_task, list(range(20)), n_jobs=4)
        assert results == [i * i for i in range(20)]

    def test_parallel_map_serial_matches_pool(self):
        tasks = list(range(7))
        assert parallel_map(_square_task, tasks, n_jobs=1) == parallel_map(
            _square_task, tasks, n_jobs=2
        )

    def test_payload_reaches_workers(self):
        results = parallel_map(
            _offset_task, [1, 2, 3], payload={"offset": 10}, n_jobs=2
        )
        assert results == [11, 12, 13]


def _square_task(payload, task):
    return task * task


def _offset_task(payload, task):
    return payload["offset"] + task


# -- campaign invariance (the determinism contract) ----------------------------


class TestCampaignInvariance:
    def test_n_jobs_invariance(self, layout, pof_table):
        """120k particles (~2 us each) clear the auto-inline threshold
        at four workers, so both pooled legs really fork."""
        from repro.obs.registry import disable_metrics, enable_metrics

        registry = enable_metrics(fresh=True)
        try:
            serial, two, four = (
                run_campaign(layout, pof_table, n=120_000, n_jobs=n_jobs)
                for n_jobs in (1, 2, 4)
            )
            assert registry.counter("parallel.maps").value == 2
        finally:
            disable_metrics()
            get_lease().shutdown_all()
        assert serial.pof_total > 0
        assert_results_identical(serial, two)
        assert_results_identical(serial, four)

    def test_spectrum_invariance(self, layout, pof_table):
        simulator = make_simulator(layout, pof_table)

        def run(n_jobs):
            return simulator.run_spectrum(
                ALPHA,
                AlphaEmissionSpectrum(),
                0.7,
                6000,
                np.random.default_rng(21),
                n_jobs=n_jobs,
            )

        assert_results_identical(run(1), run(2))


# -- sparse kernel vs the dense oracle (tests/array_oracle.py) -----------------


@pytest.fixture(scope="module")
def alpha_lut():
    return {
        "alpha": ElectronYieldLUT.build(
            ALPHA, np.logspace(-1, 1, 4), 2000, np.random.default_rng(3)
        )
    }


def shipped_gather(simulator, particle, energy, rays, rng):
    """The shipped front stage on one batch, as the oracle's tuple.

    ``(n_hits, n_strikes, n_events, strikes)`` with ``strikes`` the
    ``(event, cell, strike, charge)`` arrays, or ``None`` without one.
    """
    strikes = simulator._gather([(particle, energy, rays, rng)])
    n_strikes = int(strikes.strike_bounds[-1])
    arrays = (
        strikes.event_of,
        strikes.cell_of,
        strikes.strike_of,
        strikes.charges,
    )
    return (
        int(strikes.hits[0]),
        n_strikes,
        int(strikes.event_bounds[-1]),
        arrays if n_strikes else None,
    )


def shipped_batch(simulator, particle, energy, vdd, rays, rng):
    """The shipped stages on one batch, as the oracle's tuple:
    ``(total, seu, mbu, n_hits, n_strikes, pmf)``."""
    strikes = simulator._gather([(particle, energy, rays, rng)])
    event_of, _, pof, row_bounds = simulator._touched(strikes, [vdd])
    sums, pmfs = simulator._combine(event_of, pof, row_bounds)
    return (
        *(float(value) for value in sums[0]),
        int(strikes.hits[0]),
        int(strikes.strike_bounds[-1]),
        pmfs[0],
    )


def one_task(n, seed=17):
    """A pool task holding every draw block of one 5 MeV alpha point."""
    point = CampaignPoint.uniform(
        "alpha", 5.0, 0.7, n, np.random.SeedSequence(seed)
    )
    return [(point, size, block_seed) for size, block_seed in point.blocks]


def _strike_streams(simulator, energy, law, seed, n=5000):
    """Shipped and dense-oracle gathers of one ray batch, plus rng states."""
    x_range, y_range, z, _ = simulator.layout.launch_window(
        simulator.config.margin_nm
    )
    outputs = []
    for gather in (
        lambda *args: shipped_gather(simulator, *args),
        lambda *args: gather_strikes_dense(simulator, *args),
    ):
        rng = np.random.default_rng(seed)
        rays = sample_rays(n, rng, x_range, y_range, z, law)
        energies = energy(n, rng) if callable(energy) else energy
        result = gather(ALPHA, energies, rays, rng)
        outputs.append((result, rng.bit_generator.state))
    return outputs


class TestSparseKernel:
    @pytest.mark.parametrize("law", ["isotropic", "cosine", "beam:1.0"])
    @pytest.mark.parametrize("mode", ["lut", "direct"])
    @pytest.mark.parametrize(
        "energy",
        [
            5.0,
            # spectrum campaign: one energy per ray
            lambda n, rng: AlphaEmissionSpectrum().sample_energies(n, rng),
        ],
        ids=["mono", "spectrum"],
    )
    @pytest.mark.parametrize(
        "array",
        [
            dict(n_rows=4, n_cols=4),
            dict(
                n_rows=9,
                n_cols=9,
                data_pattern="checkerboard",
                nfins={"pd_l": 2, "pu_r": 2},
            ),
        ],
        ids=["4x4", "9x9-checkerboard-multifin"],
    )
    def test_gather_matches_dense_oracle(
        self, pof_table, alpha_lut, mode, energy, array, law
    ):
        """Identical strikes and generator state as the chord matrix."""
        simulator = ArraySerSimulator(
            SramArrayLayout(**array),
            pof_table,
            yield_luts=alpha_lut,
            config=ArrayMcConfig(deposition_mode=mode),
        )
        (sparse, sparse_state), (dense, dense_state) = _strike_streams(
            simulator, energy, law, seed=23
        )
        assert sparse[:3] == dense[:3]
        assert sparse[1] > 0
        for got, want in zip(sparse[3], dense[3]):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert sparse_state == dense_state

    def test_gather_without_strikes(self, layout, pof_table):
        """Rays that miss every fin: same counts, no strikes, no draws."""
        simulator = make_simulator(layout, pof_table)
        # vertical rays down the gap between the cells' outer fins
        origins = np.array([[150.0, y, 130.0] for y in (10.0, 150.0)])
        rays = RayBatch(origins, np.tile([0.0, 0.0, -1.0], (2, 1)))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        expected = (2, 0, 0, None)  # hits, strikes, events, strikes
        assert shipped_gather(simulator, ALPHA, 5.0, rays, rng) == expected
        assert gather_strikes_dense(simulator, ALPHA, 5.0, rays, rng) == (
            expected
        )
        assert rng.bit_generator.state == state

    def test_never_builds_chord_matrix(self, layout, pof_table, monkeypatch):
        """No ``(n, n_sensitive_fins)`` array is allocated per task."""
        simulator = make_simulator(layout, pof_table)
        task = one_task(5000)

        shapes = []
        for name in ("zeros", "full"):
            real = getattr(np, name)

            def recording(shape, *args, _real=real, **kwargs):
                shapes.append(np.shape(np.empty(shape, dtype=bool)))
                return _real(shape, *args, **kwargs)

            monkeypatch.setattr(np, name, recording)
        results = simulator._run_task(task)
        monkeypatch.undo()
        assert sum(result.n_fin_strikes for result in results) > 0
        n_fins = layout.sensitive_fin_count()
        assert shapes
        assert not any(
            len(shape) == 2 and shape[1] == n_fins for shape in shapes
        )

    def _kernel_pair(self, layout, pof_table, seed=17, n=5000):
        simulator = make_simulator(layout, pof_table)
        x_range, y_range, z, _ = layout.launch_window(
            simulator.config.margin_nm
        )
        outputs = []
        for kernel in (
            lambda *args: shipped_batch(simulator, *args),
            lambda *args: process_batch_dense(simulator, *args),
        ):
            rng = np.random.default_rng(seed)
            rays = sample_rays(n, rng, x_range, y_range, z, "isotropic")
            outputs.append(kernel(ALPHA, 5.0, 0.7, rays, rng))
        return outputs

    def test_sparse_matches_dense(self, layout, pof_table):
        sparse, dense = self._kernel_pair(layout, pof_table)
        assert sparse[3] == dense[3]  # hits
        assert sparse[4] == dense[4]  # strikes
        for i in range(3):  # POF sums
            assert sparse[i] == pytest.approx(dense[i], rel=1e-12)
        assert dense[0] > 0
        np.testing.assert_allclose(sparse[5], dense[5], rtol=1e-12)

    def test_sparse_never_builds_dense_tensor(
        self, layout, pof_table, monkeypatch
    ):
        simulator = make_simulator(layout, pof_table)
        task = one_task(5000)

        shapes = []
        real_zeros = np.zeros

        def recording_zeros(shape, *args, **kwargs):
            shapes.append(np.shape(np.empty(shape, dtype=bool)))
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", recording_zeros)
        results = simulator._run_task(task)
        assert sum(result.n_array_hits for result in results) > 0
        n_cells = layout.n_cells
        assert not any(
            len(shape) == 3 and shape[1] == n_cells for shape in shapes
        )


# -- shard-result merging ------------------------------------------------------


class TestResultMerge:
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

    def test_weighted_merge(self):
        merged = ArrayPofResult.merge(
            [self._result(), self._result(n_particles=3000, pof_total=0.02)]
        )
        assert merged.n_particles == 4000
        assert merged.n_array_hits == 200
        assert merged.pof_total == pytest.approx(
            (0.01 * 1000 + 0.02 * 3000) / 4000
        )

    def test_merge_rejects_empty(self):
        with pytest.raises(ConfigError):
            ArrayPofResult.merge([])

    def test_merge_rejects_mismatched_max_multiplicity(self):
        with pytest.raises(ConfigError, match="max_multiplicity"):
            ArrayPofResult.merge(
                [
                    self._result(),
                    self._result(multiplicity_pmf=np.zeros(9)),
                ]
            )

    def test_merge_rejects_mixed_campaign_points(self):
        with pytest.raises(ConfigError):
            ArrayPofResult.merge(
                [self._result(), self._result(particle_name="proton")]
            )
        with pytest.raises(ConfigError):
            ArrayPofResult.merge(
                [self._result(), self._result(energy_mev=6.0)]
            )
        with pytest.raises(ConfigError):
            ArrayPofResult.merge([self._result(), self._result(vdd_v=0.9)])

    def test_merge_of_copies_is_identity(self, layout, pof_table):
        result = run_campaign(layout, pof_table, n=4096)
        merged = ArrayPofResult.merge([result])
        assert_results_identical(result, merged)


# -- the other two parallelized levels -----------------------------------------


class TestLutBuildInvariance:
    def test_n_jobs_invariance(self, monkeypatch):
        import repro.transport.lut as lut_module

        # small shards so a tiny build still exercises multi-shard merging
        monkeypatch.setattr(lut_module, "TRIALS_PER_SHARD", 1000)
        energies = np.logspace(-1, 1, 3)

        def build(n_jobs):
            return ElectronYieldLUT.build(
                ALPHA, energies, 2500, np.random.default_rng(11), n_jobs=n_jobs
            )

        serial, pooled = build(1), build(2)
        assert np.array_equal(serial.hit_fraction, pooled.hit_fraction)
        assert np.array_equal(serial.mean_pairs, pooled.mean_pairs)
        assert np.array_equal(serial.quantiles, pooled.quantiles)
        assert serial.hit_fraction.max() > 0


class TestCharacterizeInvariance:
    def test_n_jobs_invariance(self):
        config = CharacterizationConfig(
            vdd_list=(0.7, 0.9),
            n_charge_points=9,
            n_samples=8,
            max_pair_points=4,
            max_triple_points=3,
            seed=5,
        )
        design = SramCellDesign()
        serial = characterize_cell(design, config, n_jobs=1)
        pooled = characterize_cell(design, config, n_jobs=2)
        for combo in ALL_COMBOS:
            assert np.array_equal(serial.pof[combo], pooled.pof[combo])


# -- worker metrics merging ----------------------------------------------------


class TestMetricsMerge:
    def test_merge_snapshot_folds_instruments(self):
        worker = MetricsRegistry()
        worker.counter("mc.trials").inc(500)
        worker.gauge("mc.rate").set(2.5)
        with worker.timer("mc.chunk").time():
            pass

        parent = MetricsRegistry()
        parent.counter("mc.trials").inc(100)
        parent.merge_snapshot(worker.snapshot())

        assert parent.counter("mc.trials").value == 600
        assert parent.gauge("mc.rate").value == 2.5
        assert parent.timer("mc.chunk").count == 1

    def test_parallel_map_merges_worker_metrics(self):
        from repro.obs.registry import disable_metrics, enable_metrics

        registry = enable_metrics(fresh=True)
        try:
            parallel_map(_counting_task, [1, 2, 3, 4], n_jobs=2)
            assert registry.counter("test.work_items").value == 4
            assert registry.counter("parallel.tasks").value == 4
            assert registry.gauge("parallel.workers").value == 2
        finally:
            disable_metrics()


def _counting_task(payload, task):
    from repro.obs import get_registry

    get_registry().counter("test.work_items").inc()
    return task


# -- auto-inline heuristic -----------------------------------------------------


class TestAutoInline:
    """parallel_map skips pool spin-up when an explicit cost hint says
    the whole map is cheaper than forking workers; results are
    identical either way (the determinism contract is orthogonal to
    where tasks run)."""

    def test_tiny_hint_runs_inline(self):
        from repro.obs.registry import disable_metrics, enable_metrics

        registry = enable_metrics(fresh=True)
        try:
            results = parallel_map(
                _square_task, list(range(6)), n_jobs=2, cost_hint_s=1e-6
            )
            assert results == [i * i for i in range(6)]
            assert registry.counter("parallel.auto_inline").value == 1
            assert registry.counter("parallel.serial_maps").value == 1
            assert registry.gauge("parallel.workers").value == 0.0
        finally:
            disable_metrics()

    def test_large_hint_stays_pooled(self):
        from repro.obs.registry import disable_metrics, enable_metrics

        registry = enable_metrics(fresh=True)
        try:
            parallel_map(
                _square_task, list(range(6)), n_jobs=2, cost_hint_s=10.0
            )
            assert registry.counter("parallel.auto_inline").value == 0
            assert registry.gauge("parallel.workers").value == 2
        finally:
            disable_metrics()

    def test_no_hint_stays_pooled(self):
        from repro.obs.registry import disable_metrics, enable_metrics

        registry = enable_metrics(fresh=True)
        try:
            parallel_map(_square_task, list(range(6)), n_jobs=2)
            assert registry.counter("parallel.auto_inline").value == 0
            assert registry.gauge("parallel.workers").value == 2
        finally:
            disable_metrics()

    def test_disabled_under_fault_injection(self, monkeypatch, tmp_path):
        """The kill-hook environment must force real workers, so fault
        drills exercise the pool they intend to (a non-matching spec
        injects nothing but still disables the shortcut)."""
        from repro.obs.registry import disable_metrics, enable_metrics
        from repro.parallel.engine import FAULT_ENV

        monkeypatch.setenv(
            FAULT_ENV, f"some-other-label:0:{tmp_path}/marker"
        )
        registry = enable_metrics(fresh=True)
        try:
            results = parallel_map(
                _square_task, list(range(6)), n_jobs=2, cost_hint_s=1e-6
            )
            assert results == [i * i for i in range(6)]
            assert registry.counter("parallel.auto_inline").value == 0
            assert registry.gauge("parallel.workers").value == 2
        finally:
            disable_metrics()

    def test_threshold_exported(self):
        from repro.parallel import AUTO_INLINE_THRESHOLD_S

        assert AUTO_INLINE_THRESHOLD_S > 0
