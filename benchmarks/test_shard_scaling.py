"""Parallel suite benchmarks: pool speedup and the warm-rerun fast path.

Two ``compare.py``-gated on/off pairs (suffixes ``_shard_on`` /
``_shard_off``, artifact ``BENCH_shard.json``):

* ``minisuite`` — the same cold mini-suite fanned out to 4 worker
  processes vs run serially.  Wall-clock parallel speedup needs real
  cores, so the pair skips itself on single-core machines (the gate in
  ``compare.py`` only fires on complete pairs).
* ``warmrerun`` — a rerun against a warm result cache (every workload
  served from the cache in the parent, no pool started) vs a cold
  serial recompute.  This ratio is meaningful on any machine, including
  single-core ones.

Run with ``--benchmark-json=BENCH_shard_run.json`` and feed the result
to ``benchmarks/compare.py`` (see docs/PERFORMANCE.md).
"""

import os

import pytest

from repro import obs
from repro.harness import bench_config, run_suite
from repro.perf import TraceCache

#: Same spirit as conftest.BENCH_APPS but tiny-scaled and smaller: the
#: pair is timed cold several times, so the serial side must stay a few
#: seconds per round.
SHARD_APPS = ("2DC", "BP", "BFS", "GEM", "HIS", "NN", "PTH", "SRAD1")
SCALE = "tiny"
JOBS = 4

_MULTICORE = (os.cpu_count() or 1) >= 2


def _suite(jobs, cache):
    return run_suite(
        list(SHARD_APPS), SCALE, bench_config(2),
        verify=False, jobs=jobs, cache=cache,
    )


# ---------------------------------------------------------------------------
# Pair 1: cold mini-suite, parallel vs serial.
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not _MULTICORE,
                    reason="parallel speedup needs more than one core")
def test_minisuite_shard_on(benchmark):
    def run():
        obs.reset()
        return _suite(JOBS, False)

    suite = benchmark.pedantic(run, rounds=3)
    # every workload ran in the pool: nothing demoted to serial
    assert list(suite.results) == list(SHARD_APPS)
    assert obs.counter_total("parallel.demotions") == 0


@pytest.mark.skipif(not _MULTICORE,
                    reason="parallel speedup needs more than one core")
def test_minisuite_shard_off(benchmark):
    def run():
        obs.reset()
        return _suite(1, False)

    suite = benchmark.pedantic(run, rounds=3)
    assert list(suite.results) == list(SHARD_APPS)


# ---------------------------------------------------------------------------
# Pair 2: warm rerun vs cold serial recompute.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    cache = TraceCache(root=tmp_path_factory.mktemp("shard-bench-cache"))
    obs.reset()
    cold = _suite(JOBS, cache)
    assert obs.counter_value("cache.hit", ns="result") == 0
    return cache, cold


def test_warmrerun_shard_on(benchmark, warm_cache):
    cache, cold = warm_cache

    def run():
        obs.reset()
        return _suite(JOBS, cache)

    suite = benchmark.pedantic(run, rounds=3)
    # acceptance: every workload is a result-cache hit, none recomputed
    assert obs.counter_value("cache.hit", ns="result") == len(SHARD_APPS)
    assert obs.counter_total("cache.miss") == 0
    for abbr in SHARD_APPS:
        assert suite[abbr].stats == cold[abbr].stats, abbr


def test_warmrerun_shard_off(benchmark):
    def run():
        obs.reset()
        return _suite(1, False)

    suite = benchmark.pedantic(run, rounds=3)
    assert list(suite.results) == list(SHARD_APPS)
