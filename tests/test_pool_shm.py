"""Warm pool leasing + shared-memory payload plane (repro.parallel).

Covers the PR's acceptance surface: bit-identity of multi-campaign
sweeps with warm pools vs per-call pools, shm fingerprint dedup across
campaigns, zero leaked segments after normal exit and after a
``REPRO_PARALLEL_KILL`` worker death, the plain-pickle fallback when
shm is disabled, warm-aware auto-inlining, and the vectorized
``ArrayPofResult.merge`` staying bit-identical to the historical
Python loops.
"""

import os
import subprocess
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.layout import SramArrayLayout
from repro.obs.registry import disable_metrics, enable_metrics
from repro.parallel import (
    RetryPolicy,
    get_lease,
    get_pack,
    pack_payload,
    parallel_map,
    set_shm_default,
    set_warm_pool_default,
    shm_enabled,
    warm_pool_enabled,
)
from repro.parallel import shm as shm_mod
from repro.parallel.engine import FAULT_ENV
from repro.parallel.shm import load_packed
from repro.physics import ALPHA
from repro.ser.mc import ArrayPofResult
from repro.sram import PofTable
from repro.sram.strike import ALL_COMBOS

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: Comfortably above MIN_SHM_BYTES (32 KiB) -- eligible for a segment.
BIG = np.arange(16384, dtype=np.float64)


@pytest.fixture(autouse=True)
def clean_engine_state():
    """Each test starts and ends with no warm pools / no segments."""
    get_lease().shutdown_all()
    get_pack().release_all()
    set_warm_pool_default(True)
    set_shm_default(True)
    yield
    get_lease().shutdown_all()
    get_pack().release_all()
    set_warm_pool_default(True)
    set_shm_default(True)


@pytest.fixture()
def metrics():
    registry = enable_metrics(fresh=True)
    try:
        yield registry
    finally:
        disable_metrics()


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
    from repro.ser import ArrayMcConfig, ArraySerSimulator

    config = ArrayMcConfig(deposition_mode="direct", **overrides)
    return ArraySerSimulator(layout, pof_table, config=config)


def assert_results_identical(a, b):
    assert a.pof_total == b.pof_total
    assert a.pof_seu == b.pof_seu
    assert a.pof_mbu == b.pof_mbu
    assert a.n_particles == b.n_particles
    assert a.n_array_hits == b.n_array_hits
    assert a.n_fin_strikes == b.n_fin_strikes
    assert np.array_equal(a.multiplicity_pmf, b.multiplicity_pmf)


# -- module-level worker functions (picklable by reference) --------------------


def _sum_task(payload, task):
    return float(np.sum(payload["big"])) + task


def _echo_task(payload, task):
    return task


def _two_campaign_sweep(layout, pof_table, *, warm, n=60_000):
    """Two (energy) campaigns against one simulator, pooled (jobs=2).

    ``n`` is large enough that the array-MC cost hint (~2 us/particle)
    clears the auto-inline threshold, so the maps really pool.
    """
    simulator = make_simulator(
        layout, pof_table, n_jobs=2, warm_pool=warm, shm=warm
    )
    out = []
    for i, energy in enumerate((5.0, 8.0)):
        rng = np.random.default_rng(1000 + i)
        out.append(simulator.run(ALPHA, energy, 0.7, n, rng))
    return out


# -- warm pool leasing ---------------------------------------------------------


class TestWarmPool:
    def test_two_campaign_sweep_bit_identical_warm_vs_fresh(
        self, layout, pof_table, metrics
    ):
        warm = _two_campaign_sweep(layout, pof_table, warm=True)
        snapshot = metrics.snapshot()["counters"]
        assert snapshot.get("parallel.pool.created", 0) == 1
        assert snapshot.get("parallel.pool.reused", 0) >= 1
        get_lease().shutdown_all()

        fresh = _two_campaign_sweep(layout, pof_table, warm=False)
        for a, b in zip(warm, fresh):
            assert_results_identical(a, b)

    def test_pool_reused_across_plain_maps(self, metrics):
        payload = {"big": BIG}
        r1 = parallel_map(
            _sum_task, [1, 2, 3, 4], payload=payload, n_jobs=2, label="wp"
        )
        r2 = parallel_map(
            _sum_task, [1, 2, 3, 4], payload=payload, n_jobs=2, label="wp"
        )
        assert r1 == r2
        counters = metrics.snapshot()["counters"]
        assert counters.get("parallel.pool.created", 0) == 1
        assert counters.get("parallel.pool.reused", 0) == 1
        assert len(get_lease()) == 1

    def test_kill_invalidates_lease_and_retry_recovers(
        self, metrics, monkeypatch, tmp_path
    ):
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"wpkill:2:{marker}")
        result = parallel_map(
            _sum_task,
            [0, 1, 2, 3],
            payload={"big": BIG},
            n_jobs=2,
            label="wpkill",
            retry=RetryPolicy(retries=2, backoff_s=0.01),
        )
        assert marker.exists()
        assert result == [float(np.sum(BIG)) + t for t in range(4)]
        counters = metrics.snapshot()["counters"]
        assert counters.get("parallel.pool.invalidated", 0) >= 1
        assert counters.get("parallel.retries", 0) >= 1

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_WARM_POOL", "1")
        assert not warm_pool_enabled()
        assert not warm_pool_enabled(True)
        result = parallel_map(
            _sum_task, [1, 2], payload={"big": BIG}, n_jobs=2, label="off"
        )
        assert result == [float(np.sum(BIG)) + t for t in (1, 2)]
        assert len(get_lease()) == 0

    def test_override_beats_default(self):
        set_warm_pool_default(False)
        assert not warm_pool_enabled()
        assert warm_pool_enabled(True)
        assert not warm_pool_enabled(False)


# -- shared-memory payload plane -----------------------------------------------


class TestSharedMemory:
    def test_packed_payload_roundtrip_and_cache(self, metrics):
        packed = pack_payload({"big": BIG, "scalar": 7})
        assert packed.shm_fingerprints  # the big array left the pickle
        assert packed.nbytes < BIG.nbytes  # reference, not a copy
        loaded = load_packed(packed)
        assert loaded["scalar"] == 7
        assert np.array_equal(loaded["big"], BIG)
        assert not loaded["big"].flags.writeable  # zero-copy view
        again = load_packed(packed)
        assert again is loaded  # payload cache hit by fingerprint
        get_pack().release(packed.shm_fingerprints)

    def test_fingerprint_dedup_on_second_campaign(self, metrics):
        packed1 = pack_payload({"big": BIG, "energy": 5.0})
        packed2 = pack_payload({"big": BIG, "energy": 8.0})
        assert packed1.fingerprint != packed2.fingerprint
        assert packed1.shm_fingerprints == packed2.shm_fingerprints
        counters = metrics.snapshot()["counters"]
        assert counters.get("parallel.shm.segments", 0) == 1
        assert counters.get("parallel.shm.hits", 0) == 1
        assert len(get_pack()) == 1  # one segment serves both campaigns

    def test_small_arrays_stay_inline(self):
        small = np.arange(16, dtype=np.float64)
        packed = pack_payload({"small": small})
        assert packed.shm_fingerprints == ()
        assert np.array_equal(load_packed(packed)["small"], small)

    def test_refcounted_release(self):
        packed1 = pack_payload({"big": BIG})
        packed2 = pack_payload({"big": BIG, "extra": 1})
        (name,) = get_pack().segment_names()
        get_pack().release(packed1.shm_fingerprints)
        # still retained by packed2
        shared_memory.SharedMemory(name=name).close()
        get_pack().release(packed2.shm_fingerprints)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        assert len(get_pack()) == 0

    def test_no_leaked_segments_after_campaigns(self, layout, pof_table):
        # force even the small synthetic fixture arrays into segments
        # (parent-side knob only; workers just attach what they get)
        old = shm_mod.MIN_SHM_BYTES
        shm_mod.MIN_SHM_BYTES = 0
        try:
            _two_campaign_sweep(layout, pof_table, warm=True, n=60_000)
            names = get_pack().segment_names()
            assert names  # the plane engaged
        finally:
            shm_mod.MIN_SHM_BYTES = old
        get_pack().release_all()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_no_leaked_segments_after_worker_kill(
        self, metrics, monkeypatch, tmp_path
    ):
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"shmkill:1:{marker}")
        result = parallel_map(
            _sum_task,
            [0, 1, 2, 3],
            payload={"big": BIG},
            n_jobs=2,
            label="shmkill",
            retry=RetryPolicy(retries=2, backoff_s=0.01),
        )
        assert marker.exists()
        assert result == [float(np.sum(BIG)) + t for t in range(4)]
        names = get_pack().segment_names()
        assert names  # the dead worker did not take the segments down
        get_pack().release_all()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_atexit_cleans_segments_on_normal_exit(self, tmp_path):
        """A process that never releases explicitly still leaks nothing."""
        script = tmp_path / "shm_exit.py"
        script.write_text(
            """
import json, sys
import numpy as np
from repro.parallel import parallel_map, get_pack

def work(payload, task):
    return float(payload["big"][task])

big = np.arange(16384, dtype=np.float64)
parallel_map(work, [0, 1, 2, 3], payload={"big": big}, n_jobs=2, label="x")
print(json.dumps(list(get_pack().segment_names())))
"""
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        names = __import__("json").loads(proc.stdout.strip().splitlines()[-1])
        assert names
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_disabled_shm_falls_back_bit_identically(
        self, layout, pof_table, monkeypatch
    ):
        with_shm = _two_campaign_sweep(layout, pof_table, warm=True)
        get_lease().shutdown_all()
        get_pack().release_all()

        monkeypatch.setenv("REPRO_NO_SHM", "1")
        assert not shm_enabled()
        assert not shm_enabled(True)
        without = _two_campaign_sweep(layout, pof_table, warm=True)
        assert len(get_pack()) == 0  # everything stayed inline
        for a, b in zip(with_shm, without):
            assert_results_identical(a, b)


# -- warm-aware auto-inline ----------------------------------------------------


class TestWarmAutoInline:
    HINT = 0.01  # est/worker = 0.02 s: below 0.05, above 0.005

    def test_inlines_without_a_leased_pool(self, metrics):
        parallel_map(
            _echo_task,
            [1, 2, 3, 4],
            n_jobs=2,
            label="ai",
            cost_hint_s=self.HINT,
        )
        counters = metrics.snapshot()["counters"]
        assert counters.get("parallel.auto_inline", 0) == 1
        assert counters.get("parallel.maps", 0) == 0

    def test_stays_pooled_when_pool_is_warm(self, metrics):
        # lease a (fork, 2) pool with an unhinted map...
        parallel_map(_echo_task, [1, 2, 3, 4], n_jobs=2, label="warmup")
        # ...then the hinted map reuses it instead of inlining
        parallel_map(
            _echo_task,
            [1, 2, 3, 4],
            n_jobs=2,
            label="ai",
            cost_hint_s=self.HINT,
        )
        counters = metrics.snapshot()["counters"]
        assert counters.get("parallel.auto_inline", 0) == 0
        assert counters.get("parallel.maps", 0) == 2
        assert counters.get("parallel.pool.reused", 0) == 1


# -- vectorized merge ----------------------------------------------------------


def _reference_merge(shards):
    """The historical per-attribute Python loops (pre-vectorization)."""
    n_total = sum(shard.n_particles for shard in shards)

    def weighted(attr):
        acc = 0.0
        for shard in shards:
            acc += getattr(shard, attr) * shard.n_particles
        return acc / n_total

    pmf = np.zeros_like(shards[0].multiplicity_pmf)
    for shard in shards:
        pmf += shard.multiplicity_pmf * shard.n_particles
    pmf /= n_total
    return weighted("pof_total"), weighted("pof_seu"), weighted("pof_mbu"), pmf


class TestVectorizedMerge:
    def test_bit_identical_to_reference_loops(self):
        rng = np.random.default_rng(7)
        shards = []
        for _ in range(17):
            pmf = rng.random(9)
            shards.append(
                ArrayPofResult(
                    particle_name="alpha",
                    energy_mev=5.0,
                    vdd_v=0.7,
                    n_particles=int(rng.integers(100, 5000)),
                    n_array_hits=int(rng.integers(0, 100)),
                    n_fin_strikes=int(rng.integers(0, 50)),
                    pof_total=float(rng.random()),
                    pof_seu=float(rng.random()),
                    pof_mbu=float(rng.random()),
                    launch_area_cm2=1e-8,
                    multiplicity_pmf=pmf,
                )
            )
        merged = ArrayPofResult.merge(shards)
        total, seu, mbu, pmf = _reference_merge(shards)
        assert merged.pof_total == total
        assert merged.pof_seu == seu
        assert merged.pof_mbu == mbu
        assert np.array_equal(merged.multiplicity_pmf, pmf)

    def test_single_shard(self):
        shard = ArrayPofResult(
            particle_name="alpha",
            energy_mev=5.0,
            vdd_v=0.7,
            n_particles=1000,
            n_array_hits=10,
            n_fin_strikes=5,
            pof_total=0.25,
            pof_seu=0.2,
            pof_mbu=0.05,
            launch_area_cm2=1e-8,
            multiplicity_pmf=np.array([0.0, 0.2, 0.05]),
        )
        merged = ArrayPofResult.merge([shard])
        assert merged.pof_total == shard.pof_total
        assert merged.pof_seu == shard.pof_seu
        assert merged.pof_mbu == shard.pof_mbu
        assert np.array_equal(merged.multiplicity_pmf, shard.multiplicity_pmf)


# -- selection precedence ------------------------------------------------------

# One row per execution-plane switch: the env var must beat the
# explicit override, which must beat the module set_*_default.
PRECEDENCE = {
    "warm_pool": dict(
        query=warm_pool_enabled,
        set_default=set_warm_pool_default,
        env="REPRO_NO_WARM_POOL",
    ),
    "shm": dict(
        query=shm_enabled,
        set_default=set_shm_default,
        env="REPRO_NO_SHM",
    ),
}


class TestPrecedence:
    @pytest.mark.parametrize("switch", sorted(PRECEDENCE))
    def test_env_beats_override_beats_default(self, switch, monkeypatch):
        knob = PRECEDENCE[switch]
        monkeypatch.delenv(knob["env"], raising=False)
        # layer 3: the module default applies when nothing else is set
        knob["set_default"](False)
        assert knob["query"]() is False
        # layer 2: an explicit override beats the default
        assert knob["query"](True) is True
        # layer 1: the kill-switch environment beats both
        monkeypatch.setenv(knob["env"], "1")
        assert knob["query"](True) is False
        assert knob["query"]() is False
