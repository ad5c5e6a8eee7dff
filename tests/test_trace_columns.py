"""Columnar trace analyses against their per-record references.

DARSIE's skip sets (store fence included), DAC's lift flags, the
WP/TB/LN tallies and R2D2's uniform-record count run as array code over
``KernelTrace.cols``; ``tests/trace_oracles.py`` keeps the record-by-
record loops they replaced.  Random column traces stress the corners
(hash collisions within and across blocks, unhashed rows, a hash of 0,
overlapping load/store/atomic lines, predicated and float ops), and
real traces check the same on executed kernels."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DACArch, DARSIEArch, IdealLN, IdealTB, IdealWP
from repro.arch.dac import lifted_rows
from repro.arch.darsie import _DARSIEPolicy, skipped_rows
from repro.arch.r2d2 import uniform_rows
from repro.isa import AtomOp, CmpOp, DType, KernelBuilder, Param
from repro.isa.kernel import Dim3, LaunchConfig
from repro.sim import (
    BlockTrace,
    Device,
    IssueMode,
    KernelTrace,
    TimingResult,
    TimingSimulator,
    WarpTrace,
    tiny,
)
from repro.workloads import factory

from . import trace_oracles as oracle


def _mixed_kernel():
    """Every instruction class the analyses branch on: integer and
    float ALU ops, a predicated op, global load/store/atomic, shared
    store/load, a barrier and a branch."""
    b = KernelBuilder(
        "mixed", params=[Param("buf", is_pointer=True)],
        shared_mem_bytes=512,
    )
    buf = b.param(0)
    i = b.global_tid_x()
    a = b.addr(buf, i, 4)
    v = b.ld_global(a, DType.S32)
    w = b.add(v, i)
    x = b.mad(i, 4, w)
    b.mul(b.cvt(v, DType.F32), 2.0, DType.F32)
    b.st_global(a, w, DType.S32)
    b.atom_global(AtomOp.ADD, a, 1)
    s = b.cvt(b.shl(b.tid_x(), 2), DType.S64)
    b.st_shared(s, x, DType.S32)
    b.bar()
    y = b.ld_shared(s, DType.S32)
    p = b.setp(CmpOp.LT, i, 5)
    z = b.add(i, 1)
    with b.if_then(p):
        b.st_global(a, y, DType.S32)
    kernel = b.build()
    pc = next(
        k for k, ins in enumerate(kernel.instructions) if ins.dst == z
    )
    kernel.instructions[pc] = dataclasses.replace(
        kernel.instructions[pc], pred=p
    )
    return kernel


KERNEL = _mixed_kernel()
N_PC = len(KERNEL.instructions)
#: global loads, stores and atomics: drawn half the time, so the load
#: memo and its store fence see overlapping lines often
MEM_PCS = [
    k for k, ins in enumerate(KERNEL.instructions) if ins.is_global_memory
]

_row = st.tuples(
    st.one_of(st.sampled_from(MEM_PCS), st.integers(0, N_PC - 1)),  # pc
    st.integers(1, 32),                             # active
    st.booleans(),                                  # uniform
    st.booleans(),                                  # affine
    st.one_of(                                      # src_hash
        st.none(), *[st.sampled_from([0, 1, (1 << 64) - 1])] * 3
    ),
    st.booleans(),                                  # shared
    st.integers(1, 4),                              # bank_conflict
    st.one_of(                                      # lines
        st.none(),
        *[st.lists(
            st.sampled_from([0, 128, 256]), max_size=2, unique=True
        ).map(tuple)] * 3,
    ),
)


def _trace(n_blocks, wpb, warp_rows):
    trace = KernelTrace(
        KERNEL, LaunchConfig(Dim3(n_blocks), Dim3(32 * wpb), (0,))
    )
    for b in range(n_blocks):
        trace.blocks.append(BlockTrace(
            b, (b, 0, 0), [WarpTrace(b, w) for w in range(wpb)]
        ))
    oracle.set_rows(trace, warp_rows)
    return trace


@st.composite
def column_traces(draw):
    n_blocks = draw(st.integers(1, 3))
    wpb = draw(st.integers(1, 3))
    return _trace(n_blocks, wpb, [
        draw(st.lists(_row, max_size=12)) for _ in range(n_blocks * wpb)
    ])


def _counts(arch, trace):
    """Instruction counts of one launch with the timing replay stubbed
    out (random traces need not be schedulable)."""
    stats = arch.make_stats()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TimingSimulator, "run", lambda self: TimingResult())
        arch.process_trace(trace, tiny(), stats)
    return stats.warp_instructions, stats.thread_instructions


def _check_against_oracles(trace):
    skip = skipped_rows(trace)
    assert np.array_equal(skip, oracle.darsie_skip_rows(trace))
    assert np.array_equal(lifted_rows(trace), oracle.dac_lift_rows(trace))
    for with_scalar in (False, True):
        assert _counts(DARSIEArch(with_scalar), trace) == (
            oracle.darsie_counts(trace, with_scalar)
        )
        modes, _ = _DARSIEPolicy(trace, with_scalar).plan(trace)
        assert np.array_equal(modes == IssueMode.SKIP, skip)
    lift = oracle.dac_lift_rows(trace)
    kept = [
        r.active for row, (_b, _w, r) in enumerate(oracle.records(trace))
        if not lift[row]
    ]
    assert _counts(DACArch(), trace) == (len(kept), sum(kept))
    assert _counts(IdealWP(), trace) == oracle.wp_counts(trace)
    assert _counts(IdealTB(), trace) == oracle.tb_counts(trace)
    ln = IdealLN()
    kinds = ln._analysis(trace).kind_by_pc
    assert _counts(ln, trace) == oracle.ln_counts(trace, kinds)


@settings(max_examples=300, deadline=None)
@given(column_traces())
def test_random_columns_match_record_oracles(trace):
    _check_against_oracles(trace)


@settings(max_examples=50, deadline=None)
@given(column_traces(), st.sets(st.integers(0, N_PC - 1)))
def test_r2d2_uniform_rows_match_record_oracle(trace, uniform_pcs):
    mask = uniform_rows(trace, uniform_pcs)
    assert (
        int(mask.sum()),
        int(trace.cols.active[mask].sum()),
    ) == oracle.r2d2_uniform_counts(trace, uniform_pcs)


def test_hash_collision_across_blocks_is_not_a_repeat():
    # Same hash in two blocks: TB and DARSIE memoize per block only.
    row = (1, 32, False, False, 5, False, 1, None)
    trace = _trace(2, 1, [[row, row], [row]])
    assert skipped_rows(trace).tolist() == [False, True, False]
    assert _counts(IdealTB(), trace) == (2, 64)
    _check_against_oracles(trace)


@pytest.mark.parametrize("writer", ["store", "atomic"])
def test_store_fence_stops_load_reuse(writer):
    load, store, atomic = (
        next(k for k, ins in enumerate(KERNEL.instructions) if pick(ins))
        for pick in (
            lambda i: i.is_load and i.is_global_memory,
            lambda i: i.is_store and i.is_global_memory,
            lambda i: i.opcode.value.startswith("atom"),
        )
    )
    pc = store if writer == "store" else atomic
    ld = (load, 32, False, False, 9, False, 1, (0, 128))
    # a write to a line of the memoized load, in another warp, between
    # two equal loads: the second must execute
    trace = _trace(1, 3, [
        [ld], [(pc, 32, False, False, None, False, 1, (128,))], [ld]
    ])
    assert skipped_rows(trace).tolist() == [False, False, False]
    clean = _trace(1, 3, [
        [ld], [(pc, 32, False, False, None, False, 1, (256,))], [ld]
    ])
    assert skipped_rows(clean).tolist() == [False, False, True]
    _check_against_oracles(trace)
    _check_against_oracles(clean)


@pytest.mark.parametrize("abbr", ["BP", "LUD", "HIS"])
def test_workload_traces_match_record_oracles(abbr):
    dev = Device(tiny())
    for spec in factory(abbr, "tiny")().prepare(dev):
        trace = dev.launch(spec.kernel, spec.grid, spec.block, spec.args)
        _check_against_oracles(trace)
