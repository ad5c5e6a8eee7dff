"""Parallel ("sharded") suite runs: the ``fan_out`` pool helper and
``run_suite(jobs > 1)``.

The helper tests run synthetic module-level cell functions in a real
process pool; workers coordinate through marker files, since they share
no memory with the test.  The integration tests at the bottom run real
(tiny) workloads and pin the guarantees of a parallel suite run:
bit-identity and equal counter totals against a serial run, warm reruns
served wholly from the cache without a pool, and no pool opened inside
a pool worker.
"""

import concurrent.futures
import os
import threading
import time

import pytest

from repro import obs
from repro.harness import experiments
from repro.harness.experiments import bench_config, run_suite
from repro.perf import TraceCache, parallel
from repro.perf.parallel import PoolSetupError, fan_out
from repro.perf.trace_cache import workload_result_key
from repro.sim.gpu import Device
from repro.workloads import factory

ARCHES = ("baseline", "darsie+scalar", "r2d2")


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def _demotions(reason):
    return obs.counter_value(
        "parallel.demotions", site="test", reason=reason
    )


# ----------------------------------------------------------------------
# Cell functions (module-level so pool workers can unpickle them)
# ----------------------------------------------------------------------
def _echo(label):
    obs.inc("test.cells", cell=label)
    return f"ran-{label}"


def _sleep_echo(label, seconds):
    time.sleep(seconds)
    return f"ran-{label}"


def _wait_for(path, seconds):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return True
        time.sleep(0.01)
    return False


def _liveness_cell(label, root, n_fast):
    """The ``slow`` cell returns only once every fast cell has written
    its marker, which needs a second worker to have run them all."""
    if label == "slow":
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if len(os.listdir(root)) == n_fast:
                return "ok"
            time.sleep(0.01)
        return "starved"
    time.sleep(0.02)
    open(os.path.join(root, label), "w").close()
    return f"fast-{label}"


def _crash_cell(label, marker):
    if label == "ok":
        open(marker, "w").close()
        return "ok"
    if label == "crash":
        _wait_for(marker, 30.0)
        time.sleep(1.0)  # let the parent collect "ok" first
        os._exit(1)
    time.sleep(10.0)  # "late": still running when the pool breaks
    return "late"


def _bug_cell(label):
    raise ValueError("genuine bug")


def _gauge_cell(index):
    if index == 0:
        time.sleep(0.2)  # the first cell finishes last...
    obs.gauge_set("g", index)
    return index


# ----------------------------------------------------------------------
# The fan_out helper
# ----------------------------------------------------------------------
class TestSchedulerLogic:
    def test_all_cells_complete_in_canonical_merge(self):
        cells = {f"W{i}": (f"W{i}",) for i in range(6)}
        out = fan_out("test", _echo, cells, 3)
        assert list(out) == list(cells)
        assert out == {label: f"ran-{label}" for label in cells}
        # every worker's counters came back exactly once
        assert obs.counter_total("test.cells") == 6
        assert obs.counter_value("test.cells", cell="W5") == 1
        assert obs.counter_total("parallel.demotions") == 0

    def test_work_stealing_keeps_workers_live(self, tmp_path):
        """A slow first cell must not stall the others: it blocks until
        every fast cell has finished, which only happens if the second
        worker takes them from the pool's shared queue."""
        root = str(tmp_path)
        labels = ["slow"] + [f"fast{i}" for i in range(5)]
        cells = {label: (label, root, 5) for label in labels}
        out = fan_out("test", _liveness_cell, cells, 2)
        assert out["slow"] == "ok"
        assert sorted(os.listdir(root)) == labels[1:]
        assert len(out) == 6

    def test_timeout_demotes_cell_to_serial(self, monkeypatch):
        monkeypatch.setenv("R2D2_TASK_TIMEOUT", "1.0")
        cells = {"hang": ("hang", 4.0)}
        cells.update({f"W{i}": (f"W{i}", 0.0) for i in range(3)})
        out = fan_out("test", _sleep_echo, cells, 2)
        # only the overdue cell is left for the caller's serial pass
        assert set(out) == {"W0", "W1", "W2"}
        assert _demotions("task-timeout") == 1
        assert obs.counter_total("parallel.demotions") == 1

    def test_slow_but_finite_cell_not_timed_out(self, monkeypatch):
        monkeypatch.setenv("R2D2_TASK_TIMEOUT", "30")
        cells = {f"W{i}": (f"W{i}", 0.05) for i in range(3)}
        out = fan_out("test", _sleep_echo, cells, 2)
        assert len(out) == 3
        assert obs.counter_total("parallel.demotions") == 0

    def test_broken_pool_drains_to_serial(self, tmp_path):
        marker = str(tmp_path / "ok-done")
        cells = {label: (label, marker) for label in ("ok", "crash", "late")}
        out = fan_out("test", _crash_cell, cells, 2)
        # the cell delivered before the crash survives; the dead
        # worker's cell and the one killed with the pool are demoted
        assert out == {"ok": "ok"}
        assert _demotions("broken-pool") == 2

    def test_unpicklable_cell_demotes_alone(self):
        cells = {"a": ("a",), "b": (threading.Lock(),), "c": ("c",)}
        out = fan_out("test", _echo, cells, 2)
        assert out == {"a": "ran-a", "c": "ran-c"}
        assert _demotions("unpicklable") == 1
        assert obs.counter_total("parallel.demotions") == 1

    def test_pool_setup_failure_runs_serially(self, monkeypatch):
        def no_pool(n):
            raise PoolSetupError("no processes for you")

        monkeypatch.setattr(parallel, "make_pool", no_pool)
        cells = {f"W{i}": (f"W{i}",) for i in range(3)}
        assert fan_out("test", _echo, cells, 2) == {}
        assert _demotions("pool-setup") == 3

    def test_worker_bug_propagates(self):
        cells = {f"W{i}": (f"W{i}",) for i in range(3)}
        with pytest.raises(ValueError, match="genuine bug"):
            fan_out("test", _bug_cell, cells, 2)

    def test_jobs_one_uses_serial_path(self, monkeypatch):
        monkeypatch.setattr(
            parallel, "make_pool",
            lambda n: pytest.fail("no pool for a serial run"),
        )
        cells = {f"W{i}": (f"W{i}",) for i in range(3)}
        assert fan_out("test", _echo, cells, 1) == {}
        # a single cell gains nothing from a pool either
        assert fan_out("test", _echo, {"W0": ("W0",)}, 4) == {}
        assert obs.counter_total("parallel.demotions") == 0

    def test_blob_merge_is_canonical_order(self):
        # Gauges are last-write-wins, so worker snapshots must merge in
        # canonical cell order no matter which finishes first.
        cells = {f"W{i}": (i,) for i in range(4)}
        fan_out("test", _gauge_cell, cells, 4)
        assert obs.METRICS.gauges()["g"] == 3


# ----------------------------------------------------------------------
# Integration: real workloads
# ----------------------------------------------------------------------
class _PoolSpy(concurrent.futures.ProcessPoolExecutor):
    """Records every pool construction: in the test process into
    ``parent``, in any other process as a marker file."""

    pid = None
    root = None
    parent = []

    def __init__(self, *args, **kwargs):
        if os.getpid() == _PoolSpy.pid:
            _PoolSpy.parent.append(kwargs.get("max_workers"))
        else:
            open(os.path.join(_PoolSpy.root, str(os.getpid())), "w").close()
        super().__init__(*args, **kwargs)


class TestSerialShardedEquivalence:
    def test_serial_vs_sharded_bit_identical(self, monkeypatch):
        config = bench_config(2)
        apps = ["BP", "NN", "GEM", "BFS"]
        serial = run_suite(apps, "tiny", config, arch_names=ARCHES,
                           verify=False)
        serial_obs = obs.snapshot_and_reset()
        delivered = []

        def spy(*args):
            out = fan_out(*args)
            delivered.extend(out)
            return out

        monkeypatch.setattr(experiments, "fan_out", spy)
        sharded = run_suite(apps, "tiny", config, arch_names=ARCHES,
                            verify=False, jobs=3)
        sharded_obs = obs.snapshot_and_reset()

        assert delivered == apps  # every workload ran in the pool
        assert list(sharded.results) == apps
        for abbr in apps:
            s, p = serial[abbr], sharded[abbr]
            assert list(p.stats) == list(s.stats)
            for arch in ARCHES:
                assert p.stats[arch] == s.stats[arch], (abbr, arch)
            assert p.verified == s.verified
            assert p.outputs_identical == s.outputs_identical
            assert p.engine_decisions == s.engine_decisions
        # The fan-out emits no counters of its own, so totals match a
        # serial run exactly (the obs-suite test relies on this too).
        assert sharded_obs["counters"] == serial_obs["counters"]

    def test_workers_open_no_pool(self, monkeypatch, tmp_path):
        """With ``R2D2_JOBS`` exported (as ``--jobs`` does), a suite
        worker's ``run_workload`` must not fan its architectures out to
        a second, nested pool."""
        monkeypatch.setenv("R2D2_JOBS", "2")
        monkeypatch.setattr(_PoolSpy, "pid", os.getpid())
        monkeypatch.setattr(_PoolSpy, "root", str(tmp_path))
        monkeypatch.setattr(_PoolSpy, "parent", [])
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", _PoolSpy
        )
        suite = run_suite(["BP", "NN"], "tiny", bench_config(2),
                          arch_names=ARCHES, verify=False, jobs=2)
        assert list(suite.results) == ["BP", "NN"]
        assert os.listdir(tmp_path) == [], "a pool worker opened a pool"
        assert _PoolSpy.parent == [2]


class TestIncrementalRerun:
    def _run(self, cache, apps, config, jobs=2):
        return run_suite(apps, "tiny", config, arch_names=ARCHES,
                         verify=False, jobs=jobs, cache=cache)

    def test_warm_rerun_skips_every_cell(self, tmp_path, monkeypatch):
        config = bench_config(2)
        apps = ["BP", "NN", "GEM"]
        cache = TraceCache(root=tmp_path / "cache")
        cold = self._run(cache, apps, config)
        obs.reset()
        monkeypatch.setattr(
            parallel, "make_pool",
            lambda n: pytest.fail("a warm rerun must start no pool"),
        )
        warm = self._run(cache, apps, config)
        # acceptance: one result-cache hit per workload and no miss,
        # the same counters a warm serial run produces
        assert obs.counter_value("cache.hit", ns="result") == len(apps)
        assert obs.counter_total("cache.miss") == 0
        warm_counters = obs.snapshot_and_reset()["counters"]
        serial_warm = self._run(cache, apps, config, jobs=1)
        assert obs.snapshot_and_reset()["counters"] == warm_counters
        for abbr in apps:
            for arch in ARCHES:
                assert warm[abbr].stats[arch] == cold[abbr].stats[arch]
                assert (warm[abbr].stats[arch]
                        == serial_warm[abbr].stats[arch])

    def test_one_changed_cell_reruns_alone(self, tmp_path):
        config = bench_config(2)
        apps = ["BP", "NN", "GEM"]
        cache = TraceCache(root=tmp_path / "cache")
        cold = self._run(cache, apps, config)
        # Drop exactly one workload's result, as a kernel edit would
        # (the edit changes the key, so the old entry is never found).
        workload = factory("NN", "tiny")()
        launches = workload.prepare(Device(config))
        key = workload_result_key(
            workload, launches, config, ARCHES, {}, False
        )
        cache._path("result", key).unlink()
        obs.reset()
        rerun = self._run(cache, apps, config)
        assert obs.counter_value("cache.hit", ns="result") == 2
        assert obs.counter_value("cache.miss", ns="result") == 1
        assert obs.counter_value("cache.put", ns="result") == 1
        for abbr in apps:
            for arch in ARCHES:
                assert rerun[abbr].stats[arch] == cold[abbr].stats[arch]
