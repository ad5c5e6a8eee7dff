"""Energy from the issue log, and ledgers that share one timing replay.

The event-driven engine (``sim/timing_fast.py``) logs each issue's row
id and folds energy from that log once per replay (``_fold``): each
component's increments in log order, summed left to right exactly as
the reference loop's ``EnergyBreakdown.add`` does, components in
first-use order.  From the same log it costs *ledger* policies whose
plans issue the replay's ``SCALAR_INLINE`` rows as SIMD ALU ops, which
is how one replay serves DARSIE+Scalar and DARSIE.  See
docs/PERFORMANCE.md §4.
"""

import math

import numpy as np
import pytest

from repro.harness.runner import DARSIE_PAIR, run_workload
from repro.isa import DType, KernelBuilder, Param
from repro.sim import Device, IssueMode, IssuePolicy, TimingSimulator, tiny
from repro.sim import timing_fast
from repro.sim.timing_fast import _fold, _IssueLog
from repro.workloads import factory

from .test_sim_clone import WORKLOADS


def _reference_sums(energy, log, e):
    """The reference loop's additions, one ``EnergyBreakdown.add`` at a
    time, over the rows ``log`` names."""
    out = {}
    per_access = {"l2": iter(log.l2), "dram": iter(log.dram)}
    rate = {"l2": e.l2_access_pj, "dram": e.dram_access_pj}
    for r in log.rows:
        shape, vals = energy[r]
        vals = iter(vals)
        for key, n in shape:
            if key in per_access:
                incs = [rate[key] * next(per_access[key])]
            else:
                incs = [next(vals) for _ in range(n)]
            for pj in incs:
                out[key] = out.get(key, 0.0) + pj
    return out


def test_fold_adds_left_to_right(monkeypatch):
    """A huge first increment swallows every later 1.0 when the sum runs
    left to right; a pairwise (``np.sum``) or exact (``math.fsum``) sum
    keeps them.  The fold must give the sequential floats, carry them
    across slices, and order components by first use."""
    monkeypatch.setattr(timing_fast, "_FOLD_SLICE", 64)
    e = tiny().energy
    energy = [
        ((("scalar", 1), ("fetch", 1), ("rf", 1)), (0.1, 1e16, 0.3)),
        ((("fetch", 1), ("rf", 2), ("alu", 1)), (1.0, 0.1, 0.2, 0.7)),
        ((("fetch", 1), ("rf", 1), ("l1", 1), ("l2", 0), ("dram", 0)),
         (1.0, 0.1, 120.0)),
    ]
    gmem = [False, False, True]
    log = _IssueLog()
    log.rows = [0] + [1, 1, 2] * 300
    rng = np.random.default_rng(7)
    log.l2 = rng.integers(0, 4, 300).tolist()
    log.dram = rng.integers(0, 3, 300).tolist()

    (got,) = _fold([energy], gmem, log, e)
    want = _reference_sums(energy, log, e)
    assert got == want
    assert list(got) == list(want) == [
        "scalar", "fetch", "rf", "alu", "l1", "l2", "dram",
    ]
    fetch = [1e16] + [1.0] * 900
    assert want["fetch"] == 1e16
    assert float(np.sum(fetch)) != want["fetch"]
    assert math.fsum(fetch) != want["fetch"]


@pytest.mark.parametrize("abbr", WORKLOADS)
def test_pair_equals_separate_runs(abbr, monkeypatch):
    """One replay per launch with two ledgers gives DARSIE and
    DARSIE+Scalar the very stats two separate runs give, energy key
    order included."""
    run = factory(abbr, "tiny")
    replays = []
    fast = TimingSimulator.run_fast
    monkeypatch.setattr(TimingSimulator, "run_fast",
                        lambda sim: replays.append(sim) or fast(sim))
    paired = run_workload(run, arch_names=DARSIE_PAIR, verify=False,
                          jobs=1, cache=False)
    assert len(replays) == paired.stats["darsie"].launches
    for name in DARSIE_PAIR:
        alone = run_workload(run, arch_names=(name,), verify=False,
                             jobs=1, cache=False).stats[name]
        assert paired.stats[name] == alone
        assert list(paired.stats[name].energy.values) == list(
            alone.energy.values
        )


def _load_trace():
    b = KernelBuilder("ld", params=[Param("a", is_pointer=True),
                                    Param("c", is_pointer=True)])
    a_p, c_p = b.param(0), b.param(1)
    v = b.ld_global(b.addr(a_p, b.global_tid_x(), 4), DType.F32)
    b.st_global(b.addr(c_p, b.global_tid_x(), 4), b.add(v, 1.0, DType.F32),
                DType.F32)
    dev = Device(tiny())
    da = dev.upload(np.ones(256, dtype=np.float32))
    dc = dev.alloc(4 * 256)
    return dev.launch(b.build(), 4, 64, (da, dc))


class _Modes(IssuePolicy):
    def __init__(self, modes):
        self.modes = modes

    def plan(self, trace):
        return self.modes, np.zeros(len(self.modes), dtype=np.int32)


def test_ledger_must_differ_only_by_inline_alu_rows():
    trace = _load_trace()
    config = tiny()
    instrs = trace.kernel.instructions
    gload = np.array([i.is_global_memory and i.is_load for i in instrs])
    is_add = np.array([i.opcode.value == "add" for i in instrs])
    simd = np.zeros(len(trace.cols), dtype=np.int8)

    def replay(modes, ledger):
        return TimingSimulator(
            config, trace, policy=_Modes(modes), ledgers=(_Modes(ledger),),
        ).run_fast()

    inline = simd.copy()
    inline[is_add[trace.cols.pc]] = IssueMode.SCALAR_INLINE
    assert replay(inline, simd).ledgers[0].issued_scalar == 0

    skip = simd.copy()
    skip[0] = IssueMode.SKIP
    with pytest.raises(ValueError, match="more than SCALAR_INLINE"):
        replay(simd, skip)
    with pytest.raises(ValueError, match="more than SCALAR_INLINE"):
        replay(simd, inline)
    inline_load = simd.copy()
    inline_load[gload[trace.cols.pc]] = IssueMode.SCALAR_INLINE
    with pytest.raises(ValueError, match="not an ALU op"):
        replay(inline_load, simd)
