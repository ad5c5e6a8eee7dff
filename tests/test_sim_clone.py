"""SM cloning in the event-driven timing engine is exact.

``TimingSimulator.run()`` simulates the first SM of a repeated signature
and clones later SMs of that signature when their replayed loads and
atomics resolve exactly as the representative's did; a replayed store
may resolve differently, and the clone then commits its own DRAM count,
L1 statistics and ``l2``/``dram`` energy.  Every field of the result —
integers, cache statistics, and the energy floats with their dict key
order — must equal :meth:`TimingSimulator.run_reference` started from
the same L2 state, whether or not a clone commits or is rolled back;
so must every ledger a replay costs, against the reference of its own
plan.  See docs/PERFORMANCE.md §4.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.harness.runner import run_workload
from repro.isa import CmpOp, DType, KernelBuilder, Param
from repro.sim import Device, TimingSimulator, tiny
from repro.sim.timing import timing_differences
from repro.workloads import factory

# Mixed coverage on purpose: barrier-heavy (LUD, BP), divergent /
# data-dependent (BFS, MUM), and regular near-100%-duplicate streams
# (NN, GEM).
WORKLOADS = ("LUD", "BP", "BFS", "MUM", "NN", "GEM")

#: The production entry point, kept before any test patches it.
_RUN = TimingSimulator.run


def _check(sim):
    """Run ``sim`` in production, then the reference loop of its plan
    and of each ledger's plan alone, each from the same L2 snapshot;
    return the production result and the differences (energy key order
    included).  The L2 is left as production left it."""
    snap = sim.l2.snapshot()
    res = _RUN(sim)
    after = sim.l2.snapshot()
    diffs = []
    if len(res.ledgers) != len(sim.ledgers):
        diffs.append(f"{len(res.ledgers)} ledgers for {len(sim.ledgers)}")
    for policy, got in zip((sim.policy,) + sim.ledgers, [res] + res.ledgers):
        sim.l2.restore(snap)
        ref = TimingSimulator(
            sim.config, sim.trace, policy=policy, l2=sim.l2,
            regs_per_thread=sim.regs_per_thread,
        ).run_reference()
        diffs += timing_differences(replace(got, ledgers=[]), ref)
    sim.l2.restore(after)
    return res, diffs


def _vadd_trace(n=4096, block=256, config=None):
    b = KernelBuilder(
        "vadd",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True),
                Param("n", DType.S32)],
    )
    a_p, c_p, n_p = b.param(0), b.param(1), b.param(2)
    i = b.global_tid_x()
    ok = b.setp(CmpOp.LT, i, n_p)
    with b.if_then(ok):
        v = b.ld_global(b.addr(a_p, i, 4), DType.F32)
        b.st_global(b.addr(c_p, i, 4), b.mul(v, 2.0, DType.F32),
                    DType.F32)
    dev = Device(config or tiny())
    da = dev.upload(np.ones(n, dtype=np.float32))
    dc = dev.alloc(4 * n)
    return dev.launch(b.build(), n // block, block, (da, dc, n))


def _traces_for(abbr, config):
    workload = factory(abbr, "tiny")()
    device = Device(config)
    launches = workload.prepare(device)
    return [
        device.launch(spec.kernel, spec.grid, spec.block, spec.args)
        for spec in launches
    ]


@pytest.mark.parametrize("abbr", WORKLOADS)
def test_run_workload_exact(abbr, monkeypatch):
    """Every timing replay of every architecture on real workloads, and
    every ledger it costs, equals the reference from the same L2
    state."""
    arches = ("baseline", "dac", "darsie", "darsie+scalar", "r2d2")
    checks = []

    def checked(sim):
        res, diffs = _check(sim)
        checks.append((sim.kernel.name, diffs, len(sim.ledgers)))
        return res

    monkeypatch.setattr(TimingSimulator, "run", checked)
    # The patched run() must execute here, uncached, in this process.
    result = run_workload(
        factory(abbr, "tiny"), arch_names=arches, verify=False, jobs=1,
        cache=False,
    )
    assert set(result.stats) == set(arches)
    assert checks
    assert any(c[2] for c in checks)
    assert [c for c in checks if c[1]] == []


@pytest.mark.parametrize("abbr", ("LUD", "BFS", "NN"))
def test_timing_simulator_exact(abbr):
    """Direct TimingSimulator comparison, per launch, tiny config."""
    config = tiny()
    for trace in _traces_for(abbr, config):
        _, diffs = _check(TimingSimulator(config, trace))
        assert diffs == []


def test_many_identical_warps_exact_and_cloned():
    """A vadd-style stream (>90% duplicate warps) clones SMs and still
    agrees with the reference bit for bit."""
    obs.reset()
    _, diffs = _check(TimingSimulator(tiny(), _vadd_trace()))
    assert diffs == []
    assert obs.counter_value("dedup.sms.cloned", kernel="vadd") > 0


def test_round_robin_clones_exactly():
    """The event-driven loop replicates round-robin issue, so cloning
    applies under it too."""
    config = tiny().with_scheduler("rr")
    obs.reset()
    _, diffs = _check(TimingSimulator(config, _vadd_trace(config=config)))
    assert diffs == []
    assert obs.counter_value("dedup.sms.cloned", kernel="vadd") > 0
    for trace in _traces_for("NN", config):
        _, diffs = _check(TimingSimulator(config, trace))
        assert diffs == []


def test_clone_rollback_exact():
    """Every block loads ``a[%tid.x]``: the representative SM misses in
    L2 where the next SM hits, so that clone is rejected, the L2 rolled
    back and the SM simulated in full — and the result stays exact."""
    b = KernelBuilder(
        "bcast",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    v = b.ld_global(b.addr(a_p, b.tid_x(), 4), DType.F32)
    b.st_global(b.addr(c_p, b.global_tid_x(), 4), v, DType.F32)
    blocks, threads = 16, 256
    dev = Device(tiny())
    da = dev.upload(np.ones(threads, dtype=np.float32))
    dc = dev.alloc(4 * blocks * threads)
    trace = dev.launch(b.build(), blocks, threads, (da, dc))

    obs.reset()
    _, diffs = _check(TimingSimulator(tiny(), trace))
    assert diffs == []
    assert obs.counter_value("dedup.clone_rejects", kernel="bcast") >= 1
    assert obs.counter_value("dedup.sms.cloned", kernel="bcast") > 0


def _block_store_trace(threads, store_first):
    """16 blocks on ``tiny()``'s 4 SMs; every thread stores
    ``out[%ctaid.x]``, so all blocks store into one line.  The load is
    ``a[global tid]`` (distinct lines per SM) before the store, or
    ``a[%tid.x]`` (one line every block shares) after it."""
    b = KernelBuilder(
        "blockstore",
        params=[Param("a", is_pointer=True), Param("out", is_pointer=True)],
    )
    a_p, out_p = b.param(0), b.param(1)
    out_addr = b.addr(out_p, b.ctaid_x(), 4)
    if store_first:
        b.st_global(out_addr, b.tid_x(), DType.S32)
        b.ld_global(b.addr(a_p, b.tid_x(), 4), DType.S32)
    else:
        v = b.ld_global(b.addr(a_p, b.global_tid_x(), 4), DType.S32)
        b.st_global(out_addr, v, DType.S32)
    blocks = 16
    dev = Device(tiny())
    da = dev.upload(np.ones(blocks * threads, dtype=np.int32))
    dout = dev.alloc(4 * blocks)
    return dev.launch(b.build(), blocks, threads, (da, dout))


def test_store_outcome_mismatch_still_clones():
    """SM1's first store hits the L2 line SM0's store allocated.  A store
    writes no register, so the clone commits with its own L1, DRAM and
    energy figures instead of being rejected."""
    trace = _block_store_trace(128, store_first=False)
    obs.reset()
    _, diffs = _check(TimingSimulator(tiny(), trace))
    assert diffs == []
    assert obs.counter_value("dedup.clone_rejects", kernel="blockstore") == 0
    assert obs.counter_value("dedup.sms.cloned", kernel="blockstore") == 3


def test_load_mismatch_after_store_mismatch_rejects():
    """A tolerated store mismatch does not commit the rest of the replay:
    the shared ``a[%tid.x]`` load after it hits L2 where the
    representative missed, so the clone is still rejected, exactly."""
    trace = _block_store_trace(32, store_first=True)
    obs.reset()
    _, diffs = _check(TimingSimulator(tiny(), trace))
    assert diffs == []
    assert obs.counter_value("dedup.clone_rejects", kernel="blockstore") >= 1
