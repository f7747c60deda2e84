"""Warm pool leasing + shared-memory payload plane (repro.parallel).

Covers bit-identity of multi-campaign sweeps on leased pools vs
inline, one pool per worker count whatever the maps' task counts,
retry rounds in a newly forked pool after a ``REPRO_PARALLEL_KILL``
worker death, shm fingerprint dedup across campaigns, zero leaked
segments after normal exit and after a worker death, the plain-pickle
fallback under ``REPRO_NO_SHM``, warm-aware auto-inlining, and the
vectorized ``ArrayPofResult.merge`` staying bit-identical to the
historical Python loops.
"""

import os
import subprocess
import sys
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.errors import TaskError
from repro.layout import SramArrayLayout
from repro.obs.registry import disable_metrics, enable_metrics
from repro.parallel import (
    RetryPolicy,
    get_lease,
    get_pack,
    pack_payload,
    parallel_map,
)
from repro.parallel import shm as shm_mod
from repro.parallel.engine import FAULT_ENV
from repro.parallel.shm import load_packed, release_packed
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
    yield
    get_lease().shutdown_all()
    get_pack().release_all()


@pytest.fixture()
def metrics():
    registry = enable_metrics(fresh=True)
    try:
        yield registry
    finally:
        disable_metrics()


@pytest.fixture()
def shared_names(monkeypatch):
    """Names of the segments the parent's pack shares during a test.

    A pooled map releases the pack it made when it ends, so a test
    that wants to look at its segments afterwards must note them here.
    """
    names = []
    real_share = shm_mod.SharedArrayPack.share

    def share(self, array):
        ref = real_share(self, array)
        if ref is not None and ref.name not in names:
            names.append(ref.name)
        return ref

    monkeypatch.setattr(shm_mod.SharedArrayPack, "share", share)
    return names


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


def make_simulator(layout, pof_table):
    from repro.ser import ArrayMcConfig, ArraySerSimulator

    config = ArrayMcConfig(deposition_mode="direct")
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


def _failing_sum_task(payload, task):
    if task == 2:
        raise ValueError("task 2 is configured to fail")
    return _sum_task(payload, task)


def _echo_task(payload, task):
    return task


def _two_campaign_sweep(layout, pof_table, *, n_jobs=2):
    """Two (energy) campaigns against one simulator (pooled by default).

    60 000 particles are enough for the array-MC cost hint
    (~2 us/particle) to clear the auto-inline threshold, so with
    ``n_jobs > 1`` the maps really pool.
    """
    simulator = make_simulator(layout, pof_table)
    out = []
    for i, energy in enumerate((5.0, 8.0)):
        rng = np.random.default_rng(1000 + i)
        out.append(
            simulator.run(ALPHA, energy, 0.7, 60_000, rng, n_jobs=n_jobs)
        )
    return out


# -- warm pool leasing ---------------------------------------------------------


class TestWarmPool:
    def test_two_campaign_sweep_bit_identical_warm_vs_fresh(
        self, layout, pof_table, metrics
    ):
        """Campaigns on one leased pool match the inline path."""
        warm = _two_campaign_sweep(layout, pof_table)
        snapshot = metrics.snapshot()["counters"]
        assert snapshot.get("parallel.pool.created", 0) == 1
        assert snapshot.get("parallel.pool.reused", 0) >= 1
        get_lease().shutdown_all()

        inline = _two_campaign_sweep(layout, pof_table, n_jobs=1)
        for a, b in zip(warm, inline):
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

    def test_one_pool_whatever_the_task_count(self, metrics):
        """Maps narrower than ``n_jobs`` reuse the full-width pool."""
        for n_tasks in (4, 3, 2, 4):
            tasks = list(range(n_tasks))
            assert (
                parallel_map(_echo_task, tasks, n_jobs=4, label="width")
                == tasks
            )
        counters = metrics.snapshot()["counters"]
        assert len(get_lease()) == 1
        assert counters.get("parallel.pool.created", 0) == 1
        assert counters.get("parallel.pool.reused", 0) == 3

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
        # the retry round ran in a newly forked pool of the same width
        assert counters.get("parallel.pool.created", 0) == 2
        assert len(get_lease()) == 1


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

    def test_no_leaked_segments_after_campaigns(
        self, layout, pof_table, shared_names
    ):
        # force even the small synthetic fixture arrays into segments
        # (parent-side knob only; workers just attach what they get)
        old = shm_mod.MIN_SHM_BYTES
        shm_mod.MIN_SHM_BYTES = 0
        try:
            _two_campaign_sweep(layout, pof_table)
            names = list(shared_names)
            assert names  # the plane engaged
        finally:
            shm_mod.MIN_SHM_BYTES = old
        get_pack().release_all()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_no_leaked_segments_after_worker_kill(
        self, metrics, monkeypatch, tmp_path, shared_names
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
        # the retried shard read the payload: the dead worker did not
        # take the segments down
        assert result == [float(np.sum(BIG)) + t for t in range(4)]
        names = list(shared_names)
        assert names
        get_pack().release_all()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_pooled_map_releases_its_own_pack(self, monkeypatch, tmp_path):
        """A map releases the pack it made from a plain-dict payload --
        whether it succeeds, retries, degrades or raises -- and leaves
        a caller's pack alone, even when both share a segment."""
        expected = [float(np.sum(BIG)) + t for t in range(4)]
        other = BIG + 1.0

        def pooled(payload, fn=_sum_task, retry=None):
            return parallel_map(
                fn,
                [0, 1, 2, 3],
                payload=payload,
                n_jobs=2,
                label="own",
                retry=retry,
            )

        caller = pack_payload({"big": BIG})
        caller_names = get_pack().segment_names()
        before = len(caller_names)
        assert before == 1
        assert pooled(caller) == expected
        assert len(get_pack()) == before  # the caller's stays
        assert pooled({"big": other})[0] == float(np.sum(other))
        assert len(get_pack()) == before
        # the same array twice, and the caller's own segment: the map
        # drops its retains, the caller keeps the segment
        assert pooled({"big": BIG, "again": BIG}) == expected
        assert get_pack().segment_names() == caller_names
        with pytest.raises(TaskError):
            pooled({"big": other}, fn=_failing_sum_task)
        assert len(get_pack()) == before

        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"own:1:{marker}")
        retried = pooled(
            {"big": other}, retry=RetryPolicy(retries=1, backoff_s=0.01)
        )
        assert marker.exists()
        assert retried[1] == float(np.sum(other)) + 1
        assert len(get_pack()) == before

        marker = tmp_path / "killed-again"
        monkeypatch.setenv(FAULT_ENV, f"own:1:{marker}")
        degraded = pooled(
            {"big": other},
            retry=RetryPolicy(retries=0, allow_partial=True),
        )
        assert marker.exists()
        assert None in degraded
        assert len(get_pack()) == before
        release_packed(caller)
        assert len(get_pack()) == 0

    def test_atexit_cleans_segments_on_normal_exit(self, tmp_path):
        """A process that never releases explicitly still leaks nothing."""
        script = tmp_path / "shm_exit.py"
        script.write_text(
            """
import json, sys
import numpy as np
from repro.parallel import get_pack, pack_payload, parallel_map

def work(payload, task):
    return float(payload["big"][task])

# a caller's pack is the caller's to release; this one never is
packed = pack_payload({"big": np.arange(16384, dtype=np.float64)})
parallel_map(work, [0, 1, 2, 3], payload=packed, n_jobs=2, label="x")
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

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm") or not os.path.isdir("/proc"),
        reason="needs /dev/shm and /proc",
    )
    def test_worker_kill_keeps_segments_in_a_fresh_process(self, tmp_path):
        """A pool forked before anything touched shared memory must
        still share the parent's resource tracker.

        In a fresh interpreter no tracker runs until the first segment
        is created, so the pool of the first (small-payload) map used
        to fork without one and every worker that attached a segment
        later started its own; killing such a worker made its tracker
        unlink the parent's live segment.  (In-process tests cannot
        see this: an earlier test has long started the tracker.)
        """
        script = tmp_path / "shm_kill.py"
        script.write_text(
            """
import json, os, signal, time
import numpy as np
from repro.parallel import RetryPolicy, get_pack, pack_payload, parallel_map

def work(payload, task):
    return os.getpid(), float(payload["big"][task]) if payload else 0.0

def state(pid):
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return None

def live(pid):
    fields = state(pid)
    return fields is not None and fields[0] != "Z"

def children(pid):
    return [
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and (state(entry) or [0, 0])[1] == str(pid)
    ]

# 1. a small payload: the pool forks before any segment exists
parallel_map(work, [0, 1, 2, 3], payload={}, n_jobs=2, label="small")
# 2. a shared-memory payload, packed and kept by the caller (a map
# releases the packs it makes itself): the workers attach its segment
payload = pack_payload({"big": np.arange(16384, dtype=np.float64)})
pids = [pid for pid, _ in parallel_map(
    work, [0, 1, 2, 3], payload=payload, n_jobs=2, label="big"
)]
names = get_pack().segment_names()
# 3. SIGKILL a worker that attached it; wait for whatever it started
victim = pids[0]
helpers = children(victim)
os.kill(victim, signal.SIGKILL)
deadline = time.monotonic() + 30
while any(map(live, [victim] + helpers)) and time.monotonic() < deadline:
    time.sleep(0.05)
# 4. the segment is still there
survived = [os.path.exists(os.path.join("/dev/shm", n)) for n in names]
# 5. the next map with the same payload runs on a new pool
result = [value for _, value in parallel_map(
    work, [0, 1, 2, 3], payload=payload, n_jobs=2, label="big",
    retry=RetryPolicy(),
)]
print(json.dumps({"names": names, "survived": survived, "result": result}))
"""
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env.pop(shm_mod.ENV_DISABLE, None)
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        outcome = __import__("json").loads(proc.stdout.strip().splitlines()[-1])
        assert outcome["names"] and all(outcome["survived"]), outcome
        assert outcome["result"] == [0.0, 1.0, 2.0, 3.0]
        # 6. no tracker cleaned up after the dead worker or at exit
        assert "resource_tracker" not in proc.stderr, proc.stderr[-3000:]

    def test_worker_evictions_unmap_released_segments_in_a_fresh_process(
        self, tmp_path
    ):
        """A warm worker unmaps the segments of the payloads it evicts.

        The parent unlinks each payload's segment after its map, but the
        memory stays allocated while any worker still maps it: a worker
        that kept every attachment for life held every released
        payload, so a long-lived daemon's workers grew with each new
        model.  Each worker reports its live attachments and the
        ``/dev/shm`` mappings of its address space.
        """
        script = tmp_path / "shm_evict.py"
        script.write_text(
            """
import json, os, sys, time
import numpy as np
from repro.parallel import pack_payload, parallel_map
from repro.parallel import shm

def work(payload, task):
    time.sleep(0.02)  # keeps both workers in every map
    return float(payload["big"][task])

def report(payload, task):
    time.sleep(0.05)
    with open("/proc/self/maps") as maps:
        mapped = sum("/dev/shm/psm_" in line for line in maps)
    return os.getpid(), len(shm._ATTACHMENTS), mapped

for index in range(int(sys.argv[1])):
    packed = pack_payload({"big": np.full(8192, float(index))})
    assert len(packed.shm_fingerprints) == 1
    parallel_map(work, list(range(8)), payload=packed, n_jobs=2, label="big")
    shm.release_packed(packed)
reports = parallel_map(report, list(range(8)), payload={}, n_jobs=2, label="r")
print(json.dumps(reports))
"""
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env.pop(shm_mod.ENV_DISABLE, None)
        payloads = shm_mod.PAYLOAD_CACHE_MAX + 4
        proc = subprocess.run(
            [sys.executable, str(script), str(payloads)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        reports = __import__("json").loads(proc.stdout.strip().splitlines()[-1])
        assert reports
        for _, attached, mapped in reports:
            assert attached <= shm_mod.PAYLOAD_CACHE_MAX, reports
            # no mapping without an attachment: the pool's fork copied
            # the first payload's segment from the parent's own
            # mapping, and the worker unmapped that copy when it
            # started (the report map's own payload takes a cache
            # slot, so the workers hold PAYLOAD_CACHE_MAX - 1)
            assert mapped <= shm_mod.PAYLOAD_CACHE_MAX, reports
            assert mapped <= attached, reports

    def test_disabled_shm_falls_back_bit_identically(
        self, layout, pof_table, monkeypatch, shared_names
    ):
        # force even the small synthetic fixture arrays into segments,
        # so the first run really uses the plane the switch turns off
        monkeypatch.setattr(shm_mod, "MIN_SHM_BYTES", 0)
        with_shm = _two_campaign_sweep(layout, pof_table)
        assert shared_names  # the plane engaged
        get_lease().shutdown_all()
        get_pack().release_all()
        shared_names.clear()

        monkeypatch.setenv("REPRO_NO_SHM", "1")
        without = _two_campaign_sweep(layout, pof_table)
        assert not shared_names  # everything stayed inline
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
