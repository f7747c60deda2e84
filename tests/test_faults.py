"""Fault tolerance: retry, shard journals, kill-and-resume, degradation.

The worker-death tests use the engine's test-only fault hook
(``REPRO_PARALLEL_KILL="label:index:marker"``): the worker assigned
that shard creates the marker file and dies via ``os._exit``, and the
existing marker disarms the hook afterwards -- one abrupt kill, then
normal execution, which is exactly the crash-then-retry / crash-then-
resume scenario the engine must survive.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.errors import ConfigError, TaskError, WorkerCrashError
from repro.layout import SramArrayLayout
from repro.obs.registry import disable_metrics, enable_metrics, get_registry
from repro.parallel import RetryPolicy, ShardJournal, parallel_map
from repro.parallel.engine import FAULT_ENV
from repro.parallel.journal import _entry_digest
from repro.physics import ALPHA
from repro.sram import (
    CharacterizationConfig,
    PofTable,
    SramCellDesign,
    characterize_cell,
)
from repro.sram.characterize import (
    characterize_shard_decode,
    characterize_shard_encode,
)
from repro.sram.strike import ALL_COMBOS
from repro.ser import ArrayMcConfig, ArraySerSimulator
from repro.ser.mc import (
    DRAW_BLOCK_SIZE,
    array_shard_decode,
    array_shard_encode,
)
from repro.transport import ElectronYieldLUT
from repro.transport.lut import lut_shard_decode, lut_shard_encode

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: A campaign of three pool tasks: two of two full draw blocks, then
#: the 808-particle remainder.  The kill tests kill task 2, which a
#: worker takes only after finishing task 0 or 1, so the pool breaks
#: with at least one task done.
KILL_CAMPAIGN = 4 * DRAW_BLOCK_SIZE + 808


# -- shared fixtures (mirroring test_parallel's cheap synthetic setup) ---------


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
    config = ArrayMcConfig(deposition_mode="direct")
    return ArraySerSimulator(layout, pof_table, config=config)


def run_campaign(
    layout,
    pof_table,
    *,
    seed=42,
    n=KILL_CAMPAIGN,
    n_jobs=1,
    retry=None,
    journal=None,
):
    simulator = make_simulator(layout, pof_table)
    rng = np.random.default_rng(seed)
    return simulator.run(
        ALPHA, 5.0, 0.7, n, rng, n_jobs=n_jobs, retry=retry, journal=journal
    )


def assert_results_identical(a, b):
    assert a.pof_total == b.pof_total
    assert a.pof_seu == b.pof_seu
    assert a.pof_mbu == b.pof_mbu
    assert a.n_particles == b.n_particles
    assert a.n_array_hits == b.n_array_hits
    assert a.n_fin_strikes == b.n_fin_strikes
    assert np.array_equal(a.multiplicity_pmf, b.multiplicity_pmf)


def assert_luts_identical(a, b):
    assert np.array_equal(a.energies_mev, b.energies_mev)
    assert np.array_equal(a.hit_fraction, b.hit_fraction)
    assert np.array_equal(a.mean_pairs, b.mean_pairs)
    assert np.array_equal(a.quantiles, b.quantiles)
    assert a.trials_per_energy == b.trials_per_energy


@pytest.fixture()
def metrics():
    registry = enable_metrics(fresh=True)
    try:
        yield registry
    finally:
        disable_metrics()


# -- module-level task functions (picklable by reference) ----------------------


def _square_task(payload, task):
    return task * task


def _offset_task(payload, task):
    return payload + task


def _failing_task(payload, task):
    if task == payload:
        raise ValueError(f"task {task} is configured to fail")
    return task


def _slow_task(payload, task):
    if task == payload:
        time.sleep(30.0)
    return task


# -- RetryPolicy ---------------------------------------------------------------


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.retries == 2
        assert policy.allow_partial is True
        assert policy.task_timeout_s is None

    def test_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(task_timeout_s=0.0)

    def test_backoff_progression_and_cap(self):
        policy = RetryPolicy(
            backoff_s=1.0, backoff_multiplier=2.0, backoff_max_s=3.0
        )
        assert policy.backoff_for(1) == 1.0
        assert policy.backoff_for(2) == 2.0
        assert policy.backoff_for(3) == 3.0  # capped, not 4.0
        assert policy.backoff_for(10) == 3.0

    def test_strict(self):
        policy = RetryPolicy(retries=5, allow_partial=True)
        strict = policy.strict()
        assert strict.allow_partial is False
        assert strict.retries == 5
        # already-strict policies come back unchanged (same object)
        assert strict.strict() is strict


# -- ShardJournal --------------------------------------------------------------


class TestShardJournal:
    def test_round_trip(self, tmp_path):
        journal = ShardJournal(tmp_path / "j.jsonl", "key-1")
        journal.record(0, {"x": 1.5})
        journal.record(3, [1, 2, 3])
        replayed = ShardJournal(tmp_path / "j.jsonl", "key-1").load()
        assert replayed == {0: {"x": 1.5}, 3: [1, 2, 3]}

    def test_encode_decode_hooks(self, tmp_path):
        journal = ShardJournal(
            tmp_path / "j.jsonl",
            "key-1",
            encode=lambda arr: arr.tolist(),
            decode=lambda payload: np.asarray(payload, dtype=np.float64),
        )
        values = np.array([0.1, 0.2, np.pi])
        journal.record(0, values)
        replayed = journal.load()
        assert np.array_equal(replayed[0], values)  # bit-identical

    def test_missing_file_is_empty(self, tmp_path):
        assert ShardJournal(tmp_path / "absent.jsonl", "k").load() == {}

    def test_key_mismatch_discarded(self, tmp_path):
        ShardJournal(tmp_path / "j.jsonl", "old-config").record(0, 42)
        assert ShardJournal(tmp_path / "j.jsonl", "new-config").load() == {}

    def test_corrupt_lines_discarded_and_counted(self, tmp_path, metrics):
        path = tmp_path / "j.jsonl"
        journal = ShardJournal(path, "k")
        journal.record(0, "good")
        journal.record(1, "also good")
        with open(path, "a") as handle:
            handle.write("this is not json\n")
            handle.write(json.dumps({"key": "k", "shard": 9}) + "\n")
            # valid shape but tampered payload: digest must catch it
            entry = {
                "v": 1,
                "key": "k",
                "shard": 2,
                "result": "tampered",
                "sha": "0" * 16,
            }
            handle.write(json.dumps(entry) + "\n")
            handle.write('{"torn": ')  # crash mid-append
        replayed = journal.load()
        assert replayed == {0: "good", 1: "also good"}
        assert get_registry().counter("journal.invalid").value == 4

    def test_line_written_before_one_pass_encoding_loads(self, tmp_path):
        """A line whose ``result`` keys are in insertion order, as lines
        were written before the payload was encoded once, still loads."""
        path = tmp_path / "j.jsonl"
        path.write_text(
            '{"v":1,"key":"plan-key","shard":5,'
            '"result":{"z":[0.1,2],"a":{"y":null,"b":1.5}},'
            '"sha":"e8766db60dbb3b1e"}\n'
        )
        replayed = ShardJournal(path, "plan-key").load()
        assert replayed == {5: {"z": [0.1, 2], "a": {"y": None, "b": 1.5}}}
        assert list(replayed[5]) == ["z", "a"]

    def test_line_embeds_the_text_its_digest_covers(self, tmp_path):
        path = tmp_path / "j.jsonl"
        payload = {"z": [0.1, 2], "a": {"y": None, "b": 1.5}}
        ShardJournal(path, "plan-key").record(5, payload)
        (line,) = path.read_text().splitlines()
        entry = json.loads(line)
        assert entry["sha"] == _entry_digest("plan-key", 5, payload)
        assert entry["sha"] == "e8766db60dbb3b1e"
        # the earlier layout, with the result's keys sorted
        assert line == json.dumps(
            {
                "v": 1,
                "key": "plan-key",
                "shard": 5,
                "result": {"a": {"b": 1.5, "y": None}, "z": [0.1, 2]},
                "sha": entry["sha"],
            },
            separators=(",", ":"),
        )
        assert ShardJournal(path, "plan-key").load() == {5: payload}

    def test_clear(self, tmp_path):
        journal = ShardJournal(tmp_path / "j.jsonl", "k")
        journal.record(0, 1)
        journal.clear()
        assert not (tmp_path / "j.jsonl").exists()
        journal.clear()  # idempotent


# -- parallel_map + journal (inline path) --------------------------------------


class TestJournalResume:
    def test_journaled_shards_are_skipped(self, tmp_path, metrics):
        journal = ShardJournal(tmp_path / "j.jsonl", "k")
        # pre-record shard 1 with a sentinel value the task fn would
        # never produce: proof the journal result was used verbatim
        journal.record(1, -999)
        results = parallel_map(
            _square_task, [2, 3, 4], journal=journal, label="resume_test"
        )
        assert results == [4, -999, 16]
        assert get_registry().counter("journal.resumed").value == 1

    def test_all_results_journaled(self, tmp_path):
        journal = ShardJournal(tmp_path / "j.jsonl", "k")
        parallel_map(_square_task, [2, 3], journal=journal)
        assert journal.load() == {0: 4, 1: 9}

    def test_exception_interrupt_keeps_partial_credit(self, tmp_path):
        """Inline interruption after >= 1 shard resumes bit-identically."""
        journal = ShardJournal(tmp_path / "j.jsonl", "k")
        with pytest.raises(ValueError):
            parallel_map(_failing_task, [0, 1, 2, 3], payload=2, journal=journal)
        assert set(journal.load()) == {0, 1}  # shards before the crash
        resumed = parallel_map(
            _failing_task, [0, 1, 2, 3], payload=None, journal=journal
        )
        clean = parallel_map(_failing_task, [0, 1, 2, 3], payload=None)
        assert resumed == clean

    def test_full_journal_short_circuits(self, tmp_path):
        journal = ShardJournal(tmp_path / "j.jsonl", "k")
        parallel_map(_square_task, [2, 3], journal=journal)
        # second run executes nothing: a failing fn would raise if run
        results = parallel_map(
            _failing_task, [2, 3], payload=2, journal=journal
        )
        assert results == [4, 9]


# -- pooled-path failure taxonomy ----------------------------------------------


class TestPooledFailures:
    def test_deterministic_exception_wrapped(self):
        with pytest.raises(TaskError) as excinfo:
            parallel_map(
                _failing_task,
                [0, 1, 2, 3],
                payload=2,
                n_jobs=2,
                label="fatal_test",
            )
        assert excinfo.value.shard == 2
        assert excinfo.value.label == "fatal_test"
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_worker_kill_retried_and_recovered(self, tmp_path, monkeypatch, metrics):
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"kill_retry:1:{marker}")
        results = parallel_map(
            _square_task,
            [2, 3, 4, 5],
            n_jobs=2,
            label="kill_retry",
            retry=RetryPolicy(retries=2, backoff_s=0.01),
        )
        assert marker.exists()  # the kill really happened
        assert results == [4, 9, 16, 25]
        assert get_registry().counter("parallel.retries").value >= 1

    def test_worker_kill_past_budget_strict_raises(self, tmp_path, monkeypatch):
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"kill_strict:0:{marker}")
        with pytest.raises(WorkerCrashError):
            parallel_map(
                _square_task,
                [2, 3, 4, 5],
                n_jobs=2,
                label="kill_strict",
                retry=RetryPolicy(retries=0, allow_partial=False),
            )
        assert marker.exists()

    def test_worker_kill_past_budget_degrades(self, tmp_path, monkeypatch, metrics):
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"kill_degrade:0:{marker}")
        tasks = [2, 3, 4, 5]
        results = parallel_map(
            _square_task,
            tasks,
            n_jobs=2,
            label="kill_degrade",
            retry=RetryPolicy(retries=0, allow_partial=True),
        )
        # the killed shard is lost; a broken pool may sweep other
        # in-flight shards with it, so only shard 0 is pinned down
        assert results[0] is None
        for task, result in zip(tasks, results):
            assert result is None or result == task * task
        lost = sum(1 for r in results if r is None)
        assert get_registry().counter("parallel.degraded").value == lost
        assert get_registry().counter("parallel.degraded_maps").value == 1

    def test_watchdog_timeout_degrades_stuck_shard(self, metrics):
        t0 = time.perf_counter()
        results = parallel_map(
            _slow_task,
            [0, 1, 2, 3],
            payload=1,  # shard 1 sleeps 30 s
            n_jobs=2,
            label="watchdog_test",
            retry=RetryPolicy(
                retries=0, allow_partial=True, task_timeout_s=1.0
            ),
        )
        assert time.perf_counter() - t0 < 20.0  # did not wait the 30 s out
        assert results[1] is None
        assert [r for r in results if r is not None] == [0, 2, 3]


# -- kill-and-resume on real campaigns -----------------------------------------


class TestCampaignKillResume:
    def test_array_campaign_resumes_bit_identical(
        self, layout, pof_table, tmp_path, monkeypatch, metrics
    ):
        """n_jobs>1: kill mid-campaign, resume, compare to clean run."""
        clean = run_campaign(layout, pof_table)

        journal = ShardJournal(
            tmp_path / "campaign.jsonl",
            "campaign-key",
            encode=array_shard_encode,
            decode=array_shard_decode,
        )
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"array_mc:2:{marker}")
        with pytest.raises(WorkerCrashError):
            run_campaign(
                layout,
                pof_table,
                n_jobs=2,
                retry=RetryPolicy(retries=0, allow_partial=False),
                journal=journal,
            )
        assert marker.exists()
        assert len(journal.load()) >= 1  # partial credit on disk

        resumed = run_campaign(layout, pof_table, n_jobs=2, journal=journal)
        assert get_registry().counter("journal.resumed").value >= 1
        assert_results_identical(resumed, clean)
        assert not resumed.degraded
        # the finished campaign cleared its checkpoint
        assert journal.load() == {}

    def test_array_campaign_resumes_serial(
        self, layout, pof_table, tmp_path, monkeypatch
    ):
        """The same journal resumes under n_jobs=1, still bit-identical."""
        clean = run_campaign(layout, pof_table)
        journal = ShardJournal(
            tmp_path / "campaign.jsonl",
            "campaign-key",
            encode=array_shard_encode,
            decode=array_shard_decode,
        )
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"array_mc:2:{marker}")
        with pytest.raises(WorkerCrashError):
            run_campaign(
                layout,
                pof_table,
                n_jobs=2,
                retry=RetryPolicy(retries=0, allow_partial=False),
                journal=journal,
            )
        assert len(journal.load()) >= 1
        resumed = run_campaign(layout, pof_table, n_jobs=1, journal=journal)
        assert_results_identical(resumed, clean)

    def test_corrupt_journal_entries_do_not_poison_resume(
        self, layout, pof_table, tmp_path, monkeypatch, metrics
    ):
        """Garbage in the checkpoint degrades to a smaller head start."""
        clean = run_campaign(layout, pof_table)
        journal = ShardJournal(
            tmp_path / "campaign.jsonl",
            "campaign-key",
            encode=array_shard_encode,
            decode=array_shard_decode,
        )
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"array_mc:2:{marker}")
        with pytest.raises(WorkerCrashError):
            run_campaign(
                layout,
                pof_table,
                n_jobs=2,
                retry=RetryPolicy(retries=0, allow_partial=False),
                journal=journal,
            )
        assert len(journal.load()) >= 1
        # corrupt the checkpoint tail: garbage + a torn crash write
        with open(tmp_path / "campaign.jsonl", "a") as handle:
            handle.write("garbage line\n")
            handle.write('{"torn": ')
        resumed = run_campaign(layout, pof_table, journal=journal)
        assert get_registry().counter("journal.invalid").value >= 2
        assert_results_identical(resumed, clean)

    def test_lut_build_interrupted_serial_resumes_bit_identical(self, tmp_path):
        """n_jobs=1: a real os._exit kill (subprocess), then resume."""
        energies = np.logspace(-1, 2, 4)
        clean = ElectronYieldLUT.build(
            ALPHA, energies, 400, np.random.default_rng(5)
        )

        journal_path = tmp_path / "lut.jsonl"
        marker = tmp_path / "killed"
        script = (
            "import numpy as np\n"
            "from repro.parallel import ShardJournal\n"
            "from repro.physics import ALPHA\n"
            "from repro.transport import ElectronYieldLUT\n"
            "from repro.transport.lut import lut_shard_decode, "
            "lut_shard_encode\n"
            f"journal = ShardJournal({str(journal_path)!r}, 'lut-key',\n"
            "    encode=lut_shard_encode, decode=lut_shard_decode)\n"
            "energies = np.logspace(-1, 2, 4)\n"
            "ElectronYieldLUT.build(ALPHA, energies, 400,\n"
            "    np.random.default_rng(5), journal=journal)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env[FAULT_ENV] = f"yield_lut:2:{marker}"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True
        )
        assert proc.returncode == 17, proc.stderr.decode()  # really killed
        assert marker.exists()

        journal = ShardJournal(
            journal_path,
            "lut-key",
            encode=lut_shard_encode,
            decode=lut_shard_decode,
        )
        replayed = journal.load()
        assert len(replayed) >= 1  # shards 0-1 completed before the kill

        resumed = ElectronYieldLUT.build(
            ALPHA, energies, 400, np.random.default_rng(5), journal=journal
        )
        assert_luts_identical(resumed, clean)
        assert not resumed.degraded
        assert not journal_path.exists()  # cleared after completion


# -- cell characterization journal --------------------------------------------

#: A tiny characterization: one journal shard (all seven grids) per Vdd.
CHAR_CONFIG = dict(
    n_charge_points=7,
    n_samples=6,
    max_pair_points=3,
    max_triple_points=3,
    seed=11,
)


def assert_tables_identical(a, b):
    assert set(a.pof) == set(b.pof)
    for combo in a.pof:
        assert np.array_equal(a.pof[combo], b.pof[combo])


class TestCharacterizeResume:
    def test_shard_codec_round_trip_and_rejects_other_layouts(self):
        rng = np.random.default_rng(0)
        grids = [rng.random((7,) * len(combo)) for combo in ALL_COMBOS]
        decoded = characterize_shard_decode(
            json.loads(json.dumps(characterize_shard_encode(grids)))
        )
        assert all(np.array_equal(a, b) for a, b in zip(decoded, grids))
        for bad in (
            grids[0].tolist(),  # one single-strike grid of 7 points
            grids[3].tolist(),  # one 7 x 7 pair grid
            [g.tolist() for g in grids[:6]],
            [g.tolist() for g in grids[1:] + grids[:1]],  # ranks shuffled
            [g.tolist() for g in grids[:6]] + [rng.random((6, 6, 6)).tolist()],
        ):
            with pytest.raises(ValueError):
                characterize_shard_decode(bad)

    def test_pre_upgrade_journal_discarded_not_misread(
        self, tmp_path, metrics
    ):
        """A journal of the old one-grid-per-(combo, vdd) layout under the
        same key is discarded line by line and the table rebuilt."""
        config = CharacterizationConfig(vdd_list=(0.7, 0.9), **CHAR_CONFIG)
        clean = characterize_cell(SramCellDesign(), config)
        path = tmp_path / "pof.jsonl"
        old = ShardJournal(path, "pof-key")
        for c, combo in enumerate(ALL_COMBOS):
            for v in range(2):
                old.record(c * 2 + v, clean.pof[combo][v].tolist())
        journal = ShardJournal(
            path,
            "pof-key",
            encode=characterize_shard_encode,
            decode=characterize_shard_decode,
        )
        rebuilt = characterize_cell(SramCellDesign(), config, journal=journal)
        assert get_registry().counter("journal.invalid").value == 14
        assert get_registry().counter("journal.resumed").value == 0
        assert_tables_identical(rebuilt, clean)
        assert not path.exists()

    def test_characterize_interrupted_serial_resumes_bit_identical(
        self, tmp_path
    ):
        """n_jobs=1: a real os._exit kill at the third Vdd, then resume."""
        config = CharacterizationConfig(vdd_list=(0.7, 0.8, 0.9), **CHAR_CONFIG)
        clean = characterize_cell(SramCellDesign(), config)

        journal_path = tmp_path / "pof.jsonl"
        marker = tmp_path / "killed"
        script = (
            "from repro.parallel import ShardJournal\n"
            "from repro.sram import CharacterizationConfig, SramCellDesign\n"
            "from repro.sram.characterize import characterize_cell, "
            "characterize_shard_decode, characterize_shard_encode\n"
            f"journal = ShardJournal({str(journal_path)!r}, 'pof-key',\n"
            "    encode=characterize_shard_encode,\n"
            "    decode=characterize_shard_decode)\n"
            "config = CharacterizationConfig(vdd_list=(0.7, 0.8, 0.9),\n"
            f"    **{CHAR_CONFIG!r})\n"
            "characterize_cell(SramCellDesign(), config, journal=journal)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env[FAULT_ENV] = f"characterize:2:{marker}"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True
        )
        assert proc.returncode == 17, proc.stderr.decode()  # really killed
        assert marker.exists()

        journal = ShardJournal(
            journal_path,
            "pof-key",
            encode=characterize_shard_encode,
            decode=characterize_shard_decode,
        )
        assert sorted(journal.load()) == [0, 1]  # Vdds finished before the kill

        resumed = characterize_cell(SramCellDesign(), config, journal=journal)
        assert_tables_identical(resumed, clean)
        assert not journal_path.exists()  # cleared after completion


# -- graceful degradation of real campaigns ------------------------------------


class TestDegradedCampaigns:
    def test_degraded_campaign_flagged_and_partial(
        self, layout, pof_table, tmp_path, monkeypatch
    ):
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"array_mc:2:{marker}")
        degraded = run_campaign(
            layout,
            pof_table,
            n_jobs=2,
            retry=RetryPolicy(retries=0, allow_partial=True),
        )
        assert degraded.degraded
        assert degraded.n_particles < KILL_CAMPAIGN  # lost blocks
        # the degraded flag survives the journal encoding round-trip
        clone = array_shard_decode(array_shard_encode([degraded]))[0]
        assert clone.degraded

    def test_degraded_standard_error_is_nan(
        self, layout, pof_table, tmp_path, monkeypatch
    ):
        import math

        clean = run_campaign(layout, pof_table)
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"array_mc:2:{marker}")
        degraded = run_campaign(
            layout,
            pof_table,
            n_jobs=2,
            retry=RetryPolicy(retries=0, allow_partial=True),
        )
        # a lost draw block means the binomial bound over the surviving
        # particles would *understate* the campaign's uncertainty -- the
        # SE of a degraded result is unknown, not merely wider
        assert math.isnan(degraded.standard_error)
        assert math.isfinite(clean.standard_error)

    def test_degraded_lut_not_cached(self, tmp_path, monkeypatch, metrics):
        from repro.io import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        marker = tmp_path / "killed"
        # TRIALS_PER_SHARD is 100k, so every energy is one shard; kill
        # shard 0 with no retries and allow_partial -> degraded table
        monkeypatch.setenv(FAULT_ENV, f"yield_lut:0:{marker}")
        energies = np.logspace(-1, 2, 3)

        def build():
            return ElectronYieldLUT.build(
                ALPHA,
                energies,
                400,
                np.random.default_rng(5),
                n_jobs=2,
                retry=RetryPolicy(retries=0, allow_partial=True),
            )

        lut = cache.get_or_build("yield-alpha", build, {"seed": 5})
        assert lut.degraded
        assert get_registry().counter("lut_cache.degraded_skips").value == 1
        # nothing cached: a rerun misses and rebuilds
        assert not cache.path_for("yield-alpha", {"seed": 5}).exists()

    def test_degraded_yield_lut_degrades_its_fits(
        self, tmp_path, monkeypatch, metrics
    ):
        """A sweep folded through a degraded yield LUT is degraded: it
        is neither cached nor memoized, so the next query reruns."""
        from repro.service import (
            CampaignEngine,
            ExecutionOptions,
            QuerySpec,
            build_flow,
        )

        spec = QuerySpec(
            particles=("alpha",),
            vdd_list=(0.7,),
            mc_particles=1000,
            samples=16,
            yield_trials=1000,
            yield_points=5,
            seed=3,
        )

        def options(cache_dir):
            return ExecutionOptions(
                cache_dir=str(cache_dir),
                n_jobs=2,
                retry=RetryPolicy(retries=0, allow_partial=True),
            )

        # the last of 5 energy points dies: the LUT keeps its first rows
        marker = tmp_path / "killed-flow"
        monkeypatch.setenv(FAULT_ENV, f"yield_lut:4:{marker}")
        flow_cache = tmp_path / "flow-cache"
        flow = build_flow(spec, options(flow_cache))
        sweep = flow.sweep()
        assert marker.exists()
        assert flow.yield_luts()["alpha"].degraded
        fit = sweep.get("alpha", 0.7)
        assert fit.degraded
        assert sweep.degraded
        assert not list(flow_cache.glob("sweep-*.json"))

        marker = tmp_path / "killed-engine"
        monkeypatch.setenv(FAULT_ENV, f"yield_lut:4:{marker}")
        engine_cache = tmp_path / "engine-cache"
        engine = CampaignEngine(options=options(engine_cache))
        try:
            first = engine.submit(spec).result(timeout=120.0)
            assert marker.exists()
            assert first["degraded"]
            assert [case["degraded"] for case in first["cases"]] == [True]
            assert not list(engine_cache.glob("sweep-*.json"))
            # the kill is spent: the repeat runs a clean campaign
            second = engine.submit(spec).result(timeout=120.0)
            stats = engine.stats()
        finally:
            engine.shutdown(wait=True, timeout_s=10.0)
        assert stats["campaigns"] == 2
        assert stats["memo_hits"] == 0
        assert not second["degraded"]
        assert len(list(engine_cache.glob("sweep-*.json"))) == 1
