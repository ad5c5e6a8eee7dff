"""The ``R2D2_VERIFY`` switch: unset or ``0`` runs the production
engines, ``1`` makes every functional launch and every timing replay
also run its oracle, and anything else is an error naming the
variable."""

import numpy as np
import pytest

from repro import obs
from repro.harness.experiments import run_suite
from repro.harness.runner import run_workload
from repro.isa import DType, KernelBuilder, Param
from repro.isa.kernel import Dim3, LaunchConfig
from repro.perf import TraceCache
from repro.sim import Device, FunctionalExecutor, TimingSimulator, tiny
from repro.sim.config import verify_enabled
from repro.workloads import factory


def _vadd_executor():
    b = KernelBuilder(
        "vadd",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    v = b.ld_global(b.addr(a_p, i, 4), DType.S32)
    b.st_global(b.addr(c_p, i, 4), b.add(v, 7), DType.S32)
    dev = Device(tiny())
    a = dev.upload(np.arange(1024, dtype=np.int32))
    c = dev.alloc(4 * 1024)
    launch = LaunchConfig(grid=Dim3(8), block=Dim3(128), args=(a, c))
    return FunctionalExecutor(b.build(), launch, dev.memory)


@pytest.mark.parametrize("value,enabled", [(None, False), ("", False),
                                           ("0", False), ("1", True)])
def test_accepted_values(monkeypatch, value, enabled):
    if value is None:
        monkeypatch.delenv("R2D2_VERIFY", raising=False)
    else:
        monkeypatch.setenv("R2D2_VERIFY", value)
    assert verify_enabled() is enabled


@pytest.mark.parametrize("value", ["yes", "verify", "true", " 1", "2"])
def test_other_values_raise(monkeypatch, value):
    monkeypatch.setenv("R2D2_VERIFY", value)
    with pytest.raises(ValueError, match="R2D2_VERIFY"):
        verify_enabled()


def test_yes_raises_in_both_layers(monkeypatch):
    executor = _vadd_executor()
    trace = executor.run_fast()
    monkeypatch.setenv("R2D2_VERIFY", "yes")
    with pytest.raises(ValueError, match="R2D2_VERIFY"):
        executor.run()
    with pytest.raises(ValueError, match="R2D2_VERIFY"):
        TimingSimulator(tiny(), trace).run()


def test_functional_run_follows_the_switch(monkeypatch):
    monkeypatch.delenv("R2D2_VERIFY", raising=False)
    report = _vadd_executor().run().vector
    assert report.engaged and not report.verified
    monkeypatch.setenv("R2D2_VERIFY", "1")
    assert _vadd_executor().run().vector.verified
    # run_fast ignores the switch; run_reference never vectorizes
    assert not _vadd_executor().run_fast().vector.verified
    assert _vadd_executor().run_reference().vector is None


def test_run_workload_verifies_both_layers(monkeypatch):
    """One R2D2_VERIFY=1 run of RED0 (baseline + R2D2) checks every
    baseline launch against the serial interpreter and every timing
    replay against the reference loop; the transformed launches run on
    the serial interpreter alone."""
    monkeypatch.setenv("R2D2_VERIFY", "1")
    obs.reset()
    result = run_workload(
        factory("RED0", "tiny"), config=tiny(),
        arch_names=("baseline", "r2d2"), jobs=1, cache=False,
    )
    assert result.outputs_identical
    assert obs.counter_total("vector.verified") > 0
    kernels = {d["kernel"] for d in result.engine_decisions}
    assert any(k.endswith(".r2d2") for k in kernels)
    for kernel in kernels:
        transformed = kernel.endswith(".r2d2")
        assert obs.counter_value("vector.verified", kernel=kernel) == (
            0 if transformed else 1
        )
        assert obs.counter_value(
            "vector.ineligible", kernel=kernel, reason="transformed-kernel"
        ) == (1 if transformed else 0)
        assert obs.counter_value(
            "timing.engine", kernel=kernel, engine="verify"
        ) > 0


def test_verify_runs_never_read_the_cache(monkeypatch, tmp_path):
    """A warm cache must not answer an R2D2_VERIFY=1 run, neither in
    ``run_workload`` nor in ``run_suite``'s parent-side lookup: a
    served result would verify nothing."""
    cache = TraceCache(root=tmp_path / "cache")
    monkeypatch.delenv("R2D2_VERIFY", raising=False)
    plain = run_workload(
        factory("BP", "tiny"), config=tiny(), jobs=1, cache=cache,
    )
    monkeypatch.setenv("R2D2_VERIFY", "1")
    runs = (
        lambda: run_workload(
            factory("BP", "tiny"), config=tiny(), jobs=1, cache=cache,
        ),
        lambda: run_suite(
            ["BP"], scale="tiny", config=tiny(), jobs=2, cache=cache,
        )["BP"],
    )
    for run in runs:
        obs.reset()
        result = run()
        assert obs.counter_total("cache.hit") == 0
        assert obs.counter_total("vector.verified") > 0
        assert result.stats == plain.stats
