"""The perf subsystem: persistent result cache and parallel runners."""

import concurrent.futures
import os
import pickle
import time

import numpy as np
import pytest

from repro import obs
from repro.harness.experiments import bench_config, run_suite
from repro.harness.runner import run_workload
from repro.perf import parallel
from repro.perf import (
    TraceCache,
    cache_from_env,
    fallback_reason,
    is_parallel_fallback,
    resolve_cache,
    resolve_jobs,
    task_timeout,
)
from repro.perf.trace_cache import (
    SCHEMA_VERSION,
    UnhashableKeyPart,
    digest,
)
from repro.workloads import factory


# ----------------------------------------------------------------------
# Canonical key hashing
# ----------------------------------------------------------------------
class TestDigest:
    def test_deterministic(self):
        assert digest("a", 1, (2.0, None)) == digest("a", 1, (2.0, None))

    def test_dict_order_independent(self):
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_container_types_distinct(self):
        assert digest([1]) != digest((1,))
        assert digest(1) != digest("1") != digest(True)

    def test_numpy_values(self):
        assert digest(np.int64(5)) == digest(np.int64(5))
        assert digest(np.int64(5)) != digest(np.int32(5))
        arr = np.arange(8, dtype=np.float32)
        assert digest(arr) == digest(arr.copy())
        assert digest(arr) != digest(arr[::-1].copy())

    def test_dataclasses_hash_by_fields(self):
        assert digest(bench_config(2)) == digest(bench_config(2))
        assert digest(bench_config(2)) != digest(bench_config(4))

    def test_unhashable_rejected(self):
        with pytest.raises(UnhashableKeyPart):
            digest(object())


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------
class TestTraceCache:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        assert cache.get("result", "ab" * 32) is None
        assert cache.put("result", "ab" * 32, {"x": 1})
        assert cache.get("result", "ab" * 32) == {"x": 1}
        assert cache.session_hits == 1 and cache.session_misses == 1

    def test_layout_is_versioned(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        cache.put("trace", "cd" * 32, [1, 2, 3])
        path = (tmp_path / f"v{SCHEMA_VERSION}" / "trace" / "cd"
                / ("cd" * 32 + ".pkl"))
        assert path.is_file()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        cache.put("result", "ef" * 32, "payload")
        path = cache._path("result", "ef" * 32)
        path.write_bytes(b"not a pickle")
        assert cache.get("result", "ef" * 32) is None

    def test_eviction_drops_oldest_under_cap(self, tmp_path):
        cache = TraceCache(root=tmp_path, max_bytes=4096)
        blob = os.urandom(1500)
        keys = [f"{i:02x}" * 32 for i in range(4)]
        for i, key in enumerate(keys):
            cache.put("result", key, blob + bytes([i]))
            os.utime(cache._path("result", key), (1000 + i, 1000 + i))
        cache._evict()
        alive = [k for k in keys if cache._path("result", k).exists()]
        # Oldest entries evicted first; the newest always survives.
        assert keys[-1] in alive
        assert keys[0] not in alive

    def test_clear_and_stats(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        cache.put("result", "aa" * 32, 1)
        cache.put("trace", "bb" * 32, 2)
        info = cache.stats()
        assert info["entries"] == 2
        assert set(info["namespaces"]) == {"result", "trace"}
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_clear_spares_unrelated_files(self, tmp_path):
        # R2D2_CACHE_DIR may point at a shared directory (~/.cache, a
        # project root): clear() must only remove v* schema dirs, never
        # the user's other files.
        decoy = tmp_path / "thesis-draft.txt"
        decoy.write_text("months of work")
        decoy_dir = tmp_path / "venv"
        decoy_dir.mkdir()
        (decoy_dir / "pyvenv.cfg").write_text("home = /usr")
        (tmp_path / "v2beta").mkdir()  # not a pure v<N> name: spared
        cache = TraceCache(root=tmp_path)
        cache.put("result", "aa" * 32, 1)
        assert cache.clear() == 1
        assert decoy.read_text() == "months of work"
        assert (decoy_dir / "pyvenv.cfg").is_file()
        assert (tmp_path / "v2beta").is_dir()
        assert not cache.version_dir.exists()

    def test_eviction_grace_protects_concurrent_writers(self, tmp_path):
        # Two workers share one cache dir.  Worker A's entries are old;
        # workers B/C just wrote theirs.  B's put() overflows the cap —
        # eviction must reclaim A's old entry, not B/C's fresh ones
        # (before the grace window, only the single globally-newest
        # entry was safe).
        cache = TraceCache(root=tmp_path, max_bytes=2000, evict_grace_s=60)
        blob = os.urandom(900)
        old_key, fresh1, fresh2 = ("aa" * 32, "bb" * 32, "cc" * 32)
        cache.put("result", old_key, blob)
        past = time.time() - 3600
        os.utime(cache._path("result", old_key), (past, past))
        cache.put("result", fresh1, blob)
        cache.put("result", fresh2, blob)  # cap exceeded -> evict
        assert not cache._path("result", old_key).exists()
        assert cache._path("result", fresh1).exists()
        assert cache._path("result", fresh2).exists()

    def test_eviction_grace_zero_restores_lru(self, tmp_path):
        cache = TraceCache(root=tmp_path, max_bytes=2000, evict_grace_s=0)
        blob = os.urandom(900)
        keys = ["aa" * 32, "bb" * 32, "cc" * 32]
        for i, key in enumerate(keys):
            cache.put("result", key, blob)
            os.utime(cache._path("result", key), (1000 + i, 1000 + i))
        cache._evict()
        assert not cache._path("result", keys[0]).exists()
        assert cache._path("result", keys[-1]).exists()

    def test_contains_counts_no_hit_or_miss(self, tmp_path):
        obs.reset()
        cache = TraceCache(root=tmp_path)
        key = "aa" * 32
        assert not cache.contains("result", key)
        cache.put("result", key, {"x": 1})
        assert cache.contains("result", key)
        assert not cache.contains("trace", key)
        assert (cache.session_hits, cache.session_misses) == (0, 0)
        assert obs.counter_total("cache.hit") == 0
        assert obs.counter_total("cache.miss") == 0


# ----------------------------------------------------------------------
# Resolution knobs
# ----------------------------------------------------------------------
class TestKnobs:
    def test_resolve_jobs(self, monkeypatch):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) == 1
        monkeypatch.setenv("R2D2_JOBS", "3")
        assert resolve_jobs(None) == 3
        monkeypatch.setenv("R2D2_JOBS", "junk")
        parallel._warned_jobs.discard("junk")
        with pytest.warns(RuntimeWarning, match="R2D2_JOBS"):
            assert resolve_jobs(None) == 1

    def test_task_timeout(self, monkeypatch):
        assert task_timeout() is None
        monkeypatch.setenv("R2D2_TASK_TIMEOUT", "2.5")
        assert task_timeout() == 2.5
        monkeypatch.setenv("R2D2_TASK_TIMEOUT", "-1")
        assert task_timeout() is None

    def test_invalid_task_timeout_warns_once(self, monkeypatch):
        monkeypatch.setenv("R2D2_TASK_TIMEOUT", "forever")
        parallel._warned_timeouts.discard("forever")
        before = obs.counter_total("parallel.invalid_timeout")
        with pytest.warns(RuntimeWarning, match="R2D2_TASK_TIMEOUT"):
            assert task_timeout() is None
        assert obs.counter_total("parallel.invalid_timeout") == before + 1
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            assert task_timeout() is None  # second call stays quiet
        assert obs.counter_total("parallel.invalid_timeout") == before + 1

    def test_nonpositive_task_timeout_stays_silent(self, monkeypatch):
        # "-1"/"0" are the documented no-limit spelling, not a mistake.
        import warnings as _warnings

        for value in ("-1", "0"):
            monkeypatch.setenv("R2D2_TASK_TIMEOUT", value)
            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                assert task_timeout() is None


class TestTimeoutClassification:
    def test_futures_timeout_error_demotes(self):
        # On Python 3.9/3.10 concurrent.futures.TimeoutError is NOT a
        # subclass of builtin TimeoutError; both flavours must demote.
        assert is_parallel_fallback(concurrent.futures.TimeoutError())
        assert is_parallel_fallback(TimeoutError())

    def test_futures_timeout_error_reason(self):
        assert (
            fallback_reason(concurrent.futures.TimeoutError())
            == "task-timeout"
        )
        assert fallback_reason(TimeoutError()) == "task-timeout"

    def test_cache_off_by_default(self):
        # tests/conftest.py clears R2D2_CACHE: library default is off.
        assert cache_from_env() is None
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_cache_env_enables(self, monkeypatch, tmp_path):
        monkeypatch.setenv("R2D2_CACHE", "1")
        monkeypatch.setenv("R2D2_CACHE_DIR", str(tmp_path))
        cache = resolve_cache(None)
        assert isinstance(cache, TraceCache)
        assert cache.root == tmp_path

    def test_explicit_instance_passthrough(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        assert resolve_cache(cache) is cache
        assert isinstance(resolve_cache(True), TraceCache)

    def test_cache_is_picklable_for_pool_workers(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.root == cache.root


# ----------------------------------------------------------------------
# Harness integration
# ----------------------------------------------------------------------
ARCHES = ("baseline", "darsie+scalar", "r2d2")


class TestRunWorkloadCache:
    def test_hit_returns_equal_result(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        cfg = bench_config(2)
        first = run_workload(factory("BP", "tiny"), config=cfg,
                             arch_names=ARCHES, cache=cache)
        second = run_workload(factory("BP", "tiny"), config=cfg,
                              arch_names=ARCHES, cache=cache)
        assert cache.session_hits >= 1
        assert list(second.stats) == list(first.stats)
        for arch in ARCHES:
            assert second.stats[arch].cycles == first.stats[arch].cycles
            assert (second.stats[arch].warp_instructions
                    == first.stats[arch].warp_instructions)
        assert second.outputs_identical == first.outputs_identical

    def test_config_change_misses(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        run_workload(factory("BP", "tiny"), config=bench_config(2),
                     arch_names=ARCHES, cache=cache)
        hits_before = cache.session_hits
        run_workload(factory("BP", "tiny"), config=bench_config(4),
                     arch_names=ARCHES, cache=cache)
        assert cache.session_hits == hits_before

    def test_verify_false_reuses_functional_trace(self, tmp_path):
        cache = TraceCache(root=tmp_path)
        cfg = bench_config(2)
        run_workload(factory("NN", "tiny"), config=cfg,
                     arch_names=("baseline",), verify=False, cache=cache)
        # Drop the memoized result so the second call must rebuild it —
        # from the cached functional trace.
        for path in (tmp_path / f"v{SCHEMA_VERSION}" / "result").glob(
            "??/*.pkl"
        ):
            path.unlink()
        before = cache.session_hits
        res = run_workload(factory("NN", "tiny"), config=cfg,
                           arch_names=("baseline",), verify=False,
                           cache=cache)
        assert cache.session_hits > before  # the trace entry hit
        assert res.stats["baseline"].cycles > 0

    def test_verified_run_writes_no_functional_trace(self, tmp_path):
        # A verified run always executes (it needs the device's output
        # state), so a trace entry would never be read.
        cache = TraceCache(root=tmp_path)
        run_workload(factory("NN", "tiny"), config=bench_config(2),
                     arch_names=("baseline",), verify=True, cache=cache)
        version = tmp_path / f"v{SCHEMA_VERSION}"
        assert list((version / "result").glob("??/*.pkl"))
        assert not list((version / "trace").glob("??/*.pkl"))


class TestParallelRunners:
    def test_run_workload_jobs_matches_serial(self):
        cfg = bench_config(2)
        serial = run_workload(factory("BP", "tiny"), config=cfg,
                              arch_names=ARCHES)
        parallel = run_workload(factory("BP", "tiny"), config=cfg,
                                arch_names=ARCHES, jobs=2)
        assert list(parallel.stats) == list(serial.stats)
        for arch in ARCHES:
            assert parallel.stats[arch] == serial.stats[arch]

    def test_run_suite_jobs_matches_serial(self):
        cfg = bench_config(2)
        apps = ["BP", "NN", "GEM"]
        serial = run_suite(apps, "tiny", cfg, arch_names=ARCHES,
                           verify=False)
        parallel = run_suite(apps, "tiny", cfg, arch_names=ARCHES,
                             verify=False, jobs=2)
        assert list(parallel.results) == apps  # deterministic order
        for abbr in apps:
            for arch in ARCHES:
                assert (parallel[abbr].stats[arch]
                        == serial[abbr].stats[arch]), (abbr, arch)

    def test_run_suite_timeout_falls_back_serially(self, monkeypatch):
        # An absurdly small per-task timeout forces every parallel cell
        # to be abandoned; the serial fallback must still fill them in.
        monkeypatch.setenv("R2D2_TASK_TIMEOUT", "0.000001")
        cfg = bench_config(2)
        suite = run_suite(["BP", "NN"], "tiny", cfg,
                          arch_names=("baseline",), verify=False, jobs=2)
        assert list(suite.results) == ["BP", "NN"]
        assert all(
            suite[a].stats["baseline"].cycles > 0 for a in ("BP", "NN")
        )
