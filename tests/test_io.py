"""Artifact persistence and the build cache."""

import json

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.io import ArtifactCache, config_hash, load_artifact, save_artifact
from repro.physics import ALPHA
from repro.transport import ElectronYieldLUT, TransportEngine


@pytest.fixture(scope="module")
def lut():
    rng = np.random.default_rng(0)
    return ElectronYieldLUT.build(
        ALPHA, np.array([1.0, 10.0]), 2000, rng
    )


class TestSaveLoad:
    def test_round_trip(self, lut, tmp_path):
        path = tmp_path / "lut.json"
        save_artifact(lut, path)
        clone = load_artifact(path)
        assert isinstance(clone, ElectronYieldLUT)
        assert np.allclose(clone.mean_pairs, lut.mean_pairs)

    def test_pof_table_round_trip(self, tmp_path):
        from repro.sram import PofTable

        table = PofTable(
            vdd_list=np.array([0.7, 0.9]),
            charge_axis_c=np.array([1e-17, 1e-16, 1e-15]),
            pof={(0,): np.array([[0.0, 0.5, 1.0], [0.0, 0.2, 1.0]])},
            process_variation=True,
            n_samples=10,
        )
        path = tmp_path / "pof.json"
        save_artifact(table, path)
        clone = load_artifact(path)
        assert isinstance(clone, PofTable)
        assert clone.query(0.7, np.array([[1e-16, 0, 0]]))[0] == pytest.approx(0.5)

    def test_bytes_match_json_dump(self, lut, tmp_path):
        """The one-``write`` encoding is byte-identical to ``json.dump``
        for a POF table, a yield LUT and a sweep, and each loads back
        equal."""
        import io

        from repro.physics.spectra import EnergyBins
        from repro.ser import ArrayPofResult, SerSweep, integrate_fit
        from repro.sram import ALL_COMBOS, PofTable

        rng = np.random.default_rng(5)
        table = PofTable(
            vdd_list=np.array([0.7, 0.9]),
            charge_axis_c=np.logspace(-17, -15, 5),
            pof={c: rng.random((2,) + (5,) * len(c)) for c in ALL_COMBOS},
            process_variation=True,
            n_samples=40,
        )
        sweep = SerSweep()
        bins = EnergyBins(
            np.array([1.0, 10.0, 100.0]),
            np.array([3.0, 30.0]),
            np.array([1e-6, 2e-7]),
        )
        for particle in ("alpha", "proton"):
            for vdd in (0.7, 0.9):
                results = []
                for energy in bins.representative_mev:
                    seu, mbu = rng.random(2) * 0.1
                    results.append(
                        ArrayPofResult(
                            particle, energy, vdd, 1000, 500, 50,
                            seu + mbu, seu, mbu, 1e-7,
                        )
                    )
                sweep.add(integrate_fit(particle, vdd, bins, results))
        for name, artifact in (
            ("pof.json", table),
            ("lut.json", lut),
            ("sweep.json", sweep),
        ):
            path = tmp_path / name
            save_artifact(artifact, path)
            streamed = io.StringIO()
            json.dump(artifact.to_dict(), streamed)
            assert path.read_bytes() == streamed.getvalue().encode("utf-8")
            assert load_artifact(path).to_dict() == artifact.to_dict()

    def test_unserializable_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            save_artifact(object(), tmp_path / "x.json")

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"kind": "martian"}))
        with pytest.raises(SerializationError):
            load_artifact(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            load_artifact(tmp_path / "absent.json")


class TestAtomicWrites:
    def test_no_temp_litter_after_save(self, lut, tmp_path):
        save_artifact(lut, tmp_path / "lut.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lut.json"]

    def test_failed_write_leaves_no_trace(self, tmp_path):
        class Broken:
            """to_dict succeeds; JSON encoding fails mid-write."""

            def to_dict(self):
                return {"kind": "electron_yield_lut", "bad": object()}

        path = tmp_path / "broken.json"
        with pytest.raises(TypeError):
            save_artifact(Broken(), path)
        # neither the target nor any temp file may exist
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_preserves_existing_artifact(self, lut, tmp_path):
        path = tmp_path / "lut.json"
        save_artifact(lut, path)
        good = path.read_text()

        class Broken:
            def to_dict(self):
                return {"kind": "electron_yield_lut", "bad": object()}

        with pytest.raises(TypeError):
            save_artifact(Broken(), path)
        assert path.read_text() == good
        assert [p.name for p in tmp_path.iterdir()] == ["lut.json"]


class TestConfigHash:
    def test_deterministic(self):
        assert config_hash({"a": 1}) == config_hash({"a": 1})

    def test_sensitive_to_values(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_dataclass_support(self):
        from repro.sram import CharacterizationConfig

        c1 = CharacterizationConfig(n_samples=10)
        c2 = CharacterizationConfig(n_samples=20)
        assert config_hash(c1) != config_hash(c2)
        assert config_hash(c1) == config_hash(CharacterizationConfig(n_samples=10))

    def test_numpy_values_handled(self):
        h = config_hash({"x": np.float64(1.5), "y": np.array([1, 2])})
        assert isinstance(h, str) and len(h) == 16


class TestArtifactCache:
    def test_build_once(self, lut, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        calls = []

        def builder():
            calls.append(1)
            return lut

        first = cache.get_or_build("yield", builder, {"v": 1})
        second = cache.get_or_build("yield", builder, {"v": 1})
        assert len(calls) == 1
        assert np.allclose(first.mean_pairs, second.mean_pairs)

    def test_config_change_rebuilds(self, lut, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        calls = []

        def builder():
            calls.append(1)
            return lut

        cache.get_or_build("yield", builder, {"v": 1})
        cache.get_or_build("yield", builder, {"v": 2})
        assert len(calls) == 2

    def test_corrupt_cache_recovers(self, lut, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        path = cache.path_for("yield", {"v": 1})
        path.write_text("{ not json")
        result = cache.get_or_build("yield", lambda: lut, {"v": 1})
        assert isinstance(result, ElectronYieldLUT)


def _copy_of(lut):
    """A new LUT object equal to ``lut`` that nothing else holds."""
    return ElectronYieldLUT.from_dict(lut.to_dict())


def _never():
    raise AssertionError("the builder must not run")


class TestCacheTraffic:
    """What one lookup costs: one hash, and no decode of a live artifact."""

    def test_one_config_hash_per_lookup(self, lut, tmp_path, monkeypatch):
        from repro.io import lutio

        hashed = []
        real = lutio.config_hash
        monkeypatch.setattr(
            lutio, "config_hash", lambda *o: hashed.append(o) or real(*o)
        )
        cache = ArtifactCache(tmp_path / "cache")
        cache.get_or_build("yield", lambda: _copy_of(lut), {"v": 1})
        assert len(hashed) == 1  # a miss: artifact and lock path
        cache.get_or_build("yield", _never, {"v": 1})
        assert len(hashed) == 2  # a hit from disk
        held = cache.get_or_build("yield", _never, {"v": 1})
        assert cache.get_or_build("yield", _never, {"v": 1}) is held
        assert len(hashed) == 4  # a hit of a live artifact

    def test_live_artifact_decoded_once(self, lut, tmp_path, monkeypatch):
        import gc

        from repro.io import lutio

        loads = []
        real = lutio.load_artifact
        monkeypatch.setattr(
            lutio, "load_artifact", lambda path: loads.append(path) or real(path)
        )
        cache = ArtifactCache(tmp_path / "cache")
        built = cache.get_or_build("yield", lambda: _copy_of(lut), {"v": 1})
        again = ArtifactCache(tmp_path / "cache")
        assert again.get_or_build("yield", _never, {"v": 1}) is built
        assert loads == []

        del built
        gc.collect()
        loaded = cache.get_or_build("yield", _never, {"v": 1})
        assert len(loads) == 1  # gone: decoded from disk again
        assert np.array_equal(loaded.quantiles, lut.quantiles)
        cache.path_for("yield", {"v": 1}).unlink()
        assert cache.get_or_build("yield", _never, {"v": 1}) is loaded
        assert len(loads) == 1  # held: the disk is not read

        other = ArtifactCache(tmp_path / "other")
        rebuilt = other.get_or_build("yield", lambda: _copy_of(lut), {"v": 1})
        assert rebuilt is not loaded  # another directory holds its own
        assert other.path_for("yield", {"v": 1}).exists()


class TestBuildSingleFlight:
    """Concurrent misses on one key must run the builder exactly once."""

    def test_concurrent_get_or_build_coalesces(self, lut, tmp_path):
        import threading
        import time as _time

        cache = ArtifactCache(tmp_path / "cache", lock_poll_s=0.01)
        calls = []
        gate = threading.Event()

        def slow_builder():
            calls.append(1)
            assert gate.wait(timeout=10.0)
            return lut

        results = [None] * 4

        def worker(i):
            results[i] = cache.get_or_build("yield", slow_builder, {"v": 1})

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        # let every loser reach the wait loop before the winner finishes
        deadline = _time.monotonic() + 5.0
        while not calls and _time.monotonic() < deadline:
            _time.sleep(0.01)
        _time.sleep(0.05)
        gate.set()
        for thread in threads:
            thread.join(10.0)

        assert len(calls) == 1  # single-flight: one build, three waiters
        for result in results:
            assert isinstance(result, ElectronYieldLUT)
            assert np.allclose(result.mean_pairs, lut.mean_pairs)
        # the lock is gone once the flight lands
        assert not cache.lock_path_for("yield", {"v": 1}).exists()

    def test_stale_lock_taken_over(self, lut, tmp_path):
        import os
        import time as _time

        cache = ArtifactCache(
            tmp_path / "cache", lock_poll_s=0.01, lock_stale_s=0.2
        )
        lock_path = cache.lock_path_for("yield", {"v": 1})
        # a crashed builder left its lock behind, long untouched
        lock_path.write_text("99999 0\n")
        old = _time.time() - 60.0
        os.utime(lock_path, (old, old))

        calls = []

        def builder():
            calls.append(1)
            return lut

        result = cache.get_or_build("yield", builder, {"v": 1})
        assert len(calls) == 1  # took the lock over and built
        assert isinstance(result, ElectronYieldLUT)
        assert not lock_path.exists()

    def test_fresh_foreign_lock_is_waited_on(self, lut, tmp_path):
        """A *live* holder's lock is honored: the waiter picks up the
        artifact the holder publishes instead of rebuilding."""
        import threading
        import time as _time

        cache = ArtifactCache(
            tmp_path / "cache", lock_poll_s=0.01, lock_stale_s=600.0
        )
        lock_path = cache.lock_path_for("yield", {"v": 1})
        lock_path.write_text(f"1 {_time.time()}\n")  # someone is building

        def publisher():
            _time.sleep(0.1)
            save_artifact(lut, cache.path_for("yield", {"v": 1}))
            lock_path.unlink()

        thread = threading.Thread(target=publisher)
        thread.start()
        calls = []
        result = cache.get_or_build(
            "yield", lambda: calls.append(1) or lut, {"v": 1}
        )
        thread.join(5.0)
        assert calls == []  # never built: the waiter re-checked the cache
        assert isinstance(result, ElectronYieldLUT)

    def test_degraded_artifacts_release_the_lock_uncached(self, tmp_path):
        class Degraded:
            degraded = True

            def to_dict(self):
                return {"kind": "electron_yield_lut"}

        cache = ArtifactCache(tmp_path / "cache")
        result = cache.get_or_build("yield", Degraded, {"v": 1})
        assert result.degraded
        assert not cache.path_for("yield", {"v": 1}).exists()
        assert not cache.lock_path_for("yield", {"v": 1}).exists()
