"""The trace row functions against their per-record references.

Both functional engines derive every row's ``uniform``/``affine``
flags, source hash, coalesced lines and bank conflicts with the row
functions of :mod:`repro.sim.trace`, a PC group at a time;
``tests/trace_oracles.py`` keeps the per-record code the serial
interpreter once ran.  Random groups stress the corners: 0-32 active
lanes (affine's three-lane rule), int64/float64/bool lane vectors,
python scalars and per-row scalar columns (negative values, u64 values
of 2**63 or more), addresses with repeated words and lines, and
shared-memory bank patterns with a one-word broadcast.  A serial launch
longer than the row cap must classify like an uncapped one, like the
megawarp, and like the per-record references on its raw rows.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import AtomOp, CmpOp, DType, KernelBuilder, Param
from repro.isa.instruction import Instruction
from repro.isa.kernel import Dim3, LaunchConfig
from repro.isa.opcodes import Opcode
from repro.isa.operands import SpecialReg
from repro.sim import Device, FunctionalExecutor, tiny
from repro.sim import executor as executor_module
from repro.sim.trace import (
    RECORD_FIELDS,
    affine_cols,
    bank_conflict_rows,
    classify_rows,
    coalesce_rows,
    hash_source_rows,
    step_columns,
    trace_differences,
    uniform_cols,
)

from . import trace_oracles as oracle

LANES = np.arange(32)
_U64_HIGH = st.integers(2**63, 2**64 - 1)
_I64 = st.integers(-(2**63), 2**63 - 1)


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def masks(draw, n_rows):
    """``(n_rows, 32)`` lane masks: empty, full, up to four lanes (the
    three-lane rule) or any, and sometimes one mask for every row."""
    def one():
        kind = draw(st.sampled_from(["none", "full", "few", "any"]))
        if kind == "none":
            return 0
        if kind == "full":
            return 2**32 - 1
        if kind == "few":
            lanes = draw(st.sets(st.integers(0, 31), max_size=4))
            return sum(1 << i for i in lanes)
        return draw(st.integers(0, 2**32 - 1))

    bits = [one()] * n_rows if draw(st.booleans()) else [
        one() for _ in range(n_rows)
    ]
    return (np.array(bits, dtype=np.uint64)[:, None]
            >> LANES.astype(np.uint64) & np.uint64(1)).astype(bool)


@st.composite
def lane_vectors(draw, dtype):
    """One 32-lane vector: constant, affine in the lane, or arbitrary."""
    kind = draw(st.sampled_from(["const", "affine", "any"]))
    if dtype == np.bool_:
        if kind == "any":
            return np.array(draw(st.lists(
                st.booleans(), min_size=32, max_size=32)))
        return np.full(32, draw(st.booleans()))
    if dtype == np.float64:
        value = st.floats(allow_nan=True, allow_infinity=True)
        small = st.floats(-8, 8, allow_nan=False)
    else:
        value = st.one_of(st.integers(-4, 4), _I64)
        small = st.integers(-4, 4)
    if kind == "const":
        return np.full(32, draw(value), dtype=dtype)
    if kind == "affine":
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.asarray(draw(value), dtype=dtype)
                    + np.asarray(draw(small), dtype=dtype) * LANES)
    return np.array(draw(st.lists(
        st.one_of(small, value), min_size=32, max_size=32)), dtype=dtype)


_DTYPES = st.sampled_from([np.int64, np.float64, np.bool_])


@st.composite
def sources(draw, n_rows):
    """One source of a PC group, in any form the row functions take."""
    form = draw(st.sampled_from(["scalar", "vector", "column", "matrix"]))
    if form == "scalar":
        return draw(st.one_of(
            st.integers(-5, 5), _I64, _U64_HIGH, st.booleans(),
            st.floats(allow_nan=True, allow_infinity=True),
        ))
    if form == "column":
        kind = draw(st.sampled_from(["i8", "u8", "f8"]))
        value = {
            "i8": _I64, "u8": st.one_of(_U64_HIGH, st.integers(0, 9)),
            "f8": st.floats(allow_nan=True, allow_infinity=True),
        }[kind]
        return np.array(draw(st.lists(
            value, min_size=n_rows, max_size=n_rows)), dtype=kind)[:, None]
    dtype = draw(_DTYPES)
    if form == "vector":
        return draw(lane_vectors(dtype))
    return np.stack([draw(lane_vectors(dtype)) for _ in range(n_rows)])


@st.composite
def address_rows(draw, n_rows):
    """``(n_rows, 32)`` byte addresses: a few words (repeated words and
    lines), a lane stride (bank patterns), one word broadcast to every
    lane, or anything."""
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["words", "stride", "broadcast", "any"]))
        base = draw(st.integers(-1024, 1 << 20))
        if kind == "words":
            words = draw(st.lists(st.integers(0, 80), min_size=1,
                                  max_size=6))
            picks = draw(st.lists(st.integers(0, len(words) - 1),
                                  min_size=32, max_size=32))
            rows.append(base + 4 * np.array(words)[picks])
        elif kind == "stride":
            stride = draw(st.sampled_from([0, 1, 2, 4, 8, 12, 64, 128, 132]))
            rows.append(base + stride * LANES)
        elif kind == "broadcast":
            rows.append(np.full(32, base))
        else:
            rows.append(np.array(draw(st.lists(
                st.integers(-(1 << 12), 1 << 40), min_size=32,
                max_size=32))))
    return np.array(rows, dtype=np.int64)


@st.composite
def groups(draw, max_sources=3):
    n_rows = draw(st.integers(1, 6))
    active = draw(masks(n_rows))
    srcs = draw(st.lists(sources(n_rows), max_size=max_sources))
    return active, srcs


def _row(value, i):
    """Row ``i``'s value of a group operand, as a record sees it."""
    if value is None or np.ndim(value) < 2:
        return value
    return value[i, 0] if value.shape[1] == 1 else value[i]


def _row_srcs(srcs, i, active=None):
    """Row ``i``'s sources; with ``active``, the first is an address
    matrix compressed to the row's active lanes."""
    out = [_row(s, i) for s in srcs]
    if active is not None:
        out[0] = srcs[0][i][active[i]]
    return out


# ----------------------------------------------------------------------
# Row functions against their per-record references
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(groups())
def test_uniform_matches_records(group):
    active, srcs = group
    got = uniform_cols(srcs, active)
    assert got.tolist() == [
        oracle.is_uniform(_row_srcs(srcs, i), active[i])
        for i in range(len(active))
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_affine_matches_records(data):
    n_rows = data.draw(st.integers(1, 6))
    active = data.draw(masks(n_rows))
    dtype = data.draw(_DTYPES)
    result = data.draw(st.one_of(
        st.none(), st.integers(-5, 5), _I64,
        lane_vectors(dtype),
        st.lists(lane_vectors(dtype), min_size=n_rows,
                 max_size=n_rows).map(np.stack),
        st.lists(_I64, min_size=n_rows,
                 max_size=n_rows).map(lambda v: np.array(v)[:, None]),
    ))
    instr = SimpleNamespace(dtype=data.draw(
        st.sampled_from([DType.S32, DType.U64, DType.F32, DType.PRED])
    ))
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf
        got = affine_cols(result, instr, active, active.sum(axis=1))
        assert got.tolist() == [
            oracle.is_affine(_row(result, i), active[i], instr)
            for i in range(n_rows)
        ]


@settings(max_examples=300, deadline=None)
@given(groups(), st.integers(0, 5000), st.booleans(), st.data())
def test_hash_matches_records(group, pc, with_addrs, data):
    active, srcs = group
    if with_addrs:
        srcs = [data.draw(address_rows(len(active)))] + srcs
    got = hash_source_rows(pc, active, srcs, addrs=with_addrs)
    assert got.dtype == np.uint64
    assert [int(h) for h in got] == [
        oracle.hash_sources(
            pc, active[i],
            _row_srcs(srcs, i, active if with_addrs else None),
        )
        for i in range(len(active))
    ]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coalesce_matches_records(data):
    n_rows = data.draw(st.integers(1, 6))
    active = data.draw(masks(n_rows))
    addrs = data.draw(address_rows(n_rows))
    n_lines, flat = coalesce_rows(addrs, active)
    off = np.concatenate(([0], np.cumsum(n_lines)))
    for i in range(n_rows):
        assert tuple(flat[off[i]:off[i + 1]].tolist()) == oracle.coalesce(
            addrs[i][active[i]]
        )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_bank_conflicts_match_records(data):
    n_rows = data.draw(st.integers(1, 6))
    active = data.draw(masks(n_rows))
    addrs = data.draw(address_rows(n_rows))
    assert bank_conflict_rows(addrs, active).tolist() == [
        oracle.bank_conflict_degree(addrs[i][active[i]])
        for i in range(n_rows)
    ]


def test_lone_nan_lane_is_uniform():
    """One active lane holds one value, even a NaN (which equals
    nothing, itself included); two NaN lanes are not uniform."""
    vals = np.full((2, 32), np.nan)
    active = np.zeros((2, 32), dtype=bool)
    active[0, 7] = True
    active[1, 7:9] = True
    assert uniform_cols([vals], active).tolist() == [True, False]
    assert [oracle.is_uniform([vals[i]], active[i]) for i in (0, 1)] == [
        True, False,
    ]


def test_one_word_broadcast_is_conflict_free():
    active = np.ones((2, 32), dtype=bool)
    active[1, 5:] = False
    addrs = np.full((2, 32), 4 * 77, dtype=np.int64)
    assert bank_conflict_rows(addrs, active).tolist() == [1, 1]
    assert oracle.bank_conflict_degree(addrs[0]) == 1


# ----------------------------------------------------------------------
# One PC group's step: which columns each instruction class carries
# ----------------------------------------------------------------------
def _op_kernel():
    """One instruction of every class ``classify_rows`` tells apart."""
    b = KernelBuilder(
        "ops", params=[Param("buf", is_pointer=True)], shared_mem_bytes=256,
    )
    buf = b.param(0)
    t = b.tid_x()
    a = b.addr(buf, t, 4)
    v = b.ld_global(a, DType.S32)
    w = b.add(v, t)
    b.st_global(a, w, DType.S32)
    b.atom_global(AtomOp.ADD, a, 1)
    s = b.cvt(b.shl(t, 2), DType.S64)
    b.st_shared(s, w, DType.S32)
    b.bar()
    b.ld_shared(s, DType.S32)
    b.mul(b.cvt(v, DType.F32), 2.0, DType.F32)
    with b.if_then(b.setp(CmpOp.LT, t, 5)):
        b.st_global(a, w, DType.S32)
    kernel = b.build()
    atom = next(i for i in kernel.instructions
                if i.opcode is Opcode.ATOM_GLOBAL)
    kernel.instructions.append(
        dataclasses.replace(atom, opcode=Opcode.ATOM_SHARED)
    )
    return kernel


OPS = _op_kernel()
#: the first pc of each opcode the engines record (not ``exit``)
OP_PCS = sorted({
    instr.opcode: pc for pc, instr in reversed(list(enumerate(
        OPS.instructions
    ))) if instr.opcode is not Opcode.EXIT
}.values())


@pytest.mark.parametrize("pc", OP_PCS,
                         ids=[OPS.instructions[pc].opcode.value
                              for pc in OP_PCS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_step_matches_records(pc, data):
    instr = OPS.instructions[pc]
    n_rows = data.draw(st.integers(1, 6))
    active = data.draw(masks(n_rows))
    addressed = instr.is_global_memory or instr.is_shared_memory
    if instr.is_control:
        srcs = []
    else:
        srcs = data.draw(st.lists(
            sources(n_rows), min_size=len(instr.srcs),
            max_size=len(instr.srcs),
        ))
        if addressed:
            srcs[0] = data.draw(address_rows(n_rows))
    result = None
    if instr.dst is not None:
        result = data.draw(st.lists(
            lane_vectors(np.float64 if instr.dtype.is_float else np.int64),
            min_size=n_rows, max_size=n_rows,
        ).map(np.stack))
    rows = np.arange(n_rows)
    cols, counts = step_columns(
        [classify_rows(rows, pc, instr, active, result, srcs)], n_rows
    )
    want = oracle.columns_from_rows([
        oracle.record(pc, instr, active[i], _row(result, i),
                      _row_srcs(srcs, i))
        for i in range(n_rows)
    ])
    assert counts.tolist() == [1] * n_rows
    _assert_same_columns(cols, want)


def _assert_same_columns(a, b):
    for name in RECORD_FIELDS + ("line_off", "lines"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ----------------------------------------------------------------------
# The serial interpreter's buffered classification
# ----------------------------------------------------------------------
def _looping_kernel():
    """Divergent loops of per-lane trip counts (a warp revisits pcs
    within one buffer), per-block scalar operands, float and predicate
    values, shared memory across a barrier, and a guarded store."""
    b = KernelBuilder(
        "loops", params=[Param("out", is_pointer=True)],
        shared_mem_bytes=1024,
    )
    out = b.param(0)
    t = b.tid_x()
    i = b.global_tid_x()
    trip = b.rem(b.add(t, b.ctaid_x()), 7)
    acc = b.mov(0)
    with b.for_range(0, trip) as j:
        b.add_to(acc, acc, b.mul(j, 3))
    f = b.mul(b.cvt(acc, DType.F32), 0.5, DType.F32)
    s = b.cvt(b.shl(t, 2), DType.S64)
    b.st_shared(s, acc, DType.S32)
    b.bar()
    v = b.ld_shared(b.cvt(b.shl(b.rem(b.add(t, 1), 64), 2), DType.S64),
                    DType.S32)
    with b.if_then(b.setp(CmpOp.GT, f, 2.0, DType.F32)):
        b.st_global(b.addr(out, i, 4), b.add(v, acc), DType.S32)
    return b.build()


def _promoting_kernel():
    """A register that block 0's warps promote to float64 (its ``add``
    source then differs in dtype between warps of one pc), and
    ``%ctaid.x`` read raw as a per-block scalar source."""
    b = KernelBuilder("promote", params=[Param("out", is_pointer=True)])
    out = b.param(0)
    i = b.global_tid_x()
    r = b.mov(0)
    with b.if_then(b.setp(CmpOp.LT, b.ctaid_x(), 1)):
        b.add_to(r, r, 0.5)
    x = b.new_reg(DType.S32)
    b.emit(Instruction(Opcode.ADD, dtype=DType.S32, dst=x,
                       srcs=(r, SpecialReg.CTAID_X)))
    b.st_global(b.addr(out, i, 4), b.cvt(x, DType.S32), DType.S32)
    return b.build()


class _RecordingExecutor(FunctionalExecutor):
    """Serial interpreter that also classifies every raw row with the
    per-record references, per warp."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = {}

    def _record(self, wid, pc, active, result, srcs):
        self.records.setdefault(wid, []).append(oracle.record(
            pc, self.kernel.instructions[pc], active, result, srcs
        ))
        super()._record(wid, pc, active, result, srcs)


def _launch(kernel, engine, cls=FunctionalExecutor, blocks=6, threads=96):
    dev = Device(tiny())
    out = dev.alloc(4 * blocks * threads)
    launch = LaunchConfig(Dim3(blocks), Dim3(threads), (out,))
    executor = cls(kernel, launch, dev.memory)
    trace = getattr(executor, f"run_{engine}")()
    return trace, executor, dev.memory.buf.copy()


def _assert_same_trace(a, b):
    assert trace_differences(a.blocks, a.cols, b.blocks, b.cols) == []


class TestSerialRowCap:
    def test_capped_launch_equals_uncapped_and_verify(self, monkeypatch):
        kernel = _looping_kernel()
        monkeypatch.setattr(executor_module, "ROW_CAP", 1 << 30)
        uncapped, _, mem = _launch(kernel, "reference")
        monkeypatch.setattr(executor_module, "ROW_CAP", 7)
        capped, _, capped_mem = _launch(kernel, "reference")
        assert len(capped.cols) > 20 * 7
        _assert_same_trace(capped, uncapped)
        # run_verify raises unless the megawarp's columns equal serial's
        verified, _, verified_mem = _launch(kernel, "verify")
        assert verified.vector.verified
        _assert_same_trace(capped, verified)
        assert np.array_equal(capped_mem, mem)
        assert np.array_equal(verified_mem, mem)

    @pytest.mark.parametrize("cap", [5, 1 << 30])
    @pytest.mark.parametrize("factory", [_looping_kernel, _promoting_kernel])
    def test_columns_equal_per_record_references(self, monkeypatch,
                                                 factory, cap):
        """A small cap classifies a warp's rows a few at a time; no cap
        puts every block's rows of one pc in one group."""
        monkeypatch.setattr(executor_module, "ROW_CAP", cap)
        trace, executor, _ = _launch(factory(), "reference",
                                     cls=_RecordingExecutor)
        records = [
            r for wid in sorted(executor.records)
            for r in executor.records[wid]
        ]
        assert len(records) > 20
        _assert_same_columns(trace.cols, oracle.columns_from_rows(records))
        counts = [len(executor.records.get(w, ()))
                  for w in range(sum(len(b.warps) for b in trace.blocks))]
        assert [len(w) for b in trace.blocks for w in b.warps] == counts

    def test_promoting_kernel_mixes_dtypes(self):
        """The promoting kernel really gives one register two dtypes:
        the megawarp bails on it, so its launches run serially only."""
        trace, _, _ = _launch(_promoting_kernel(), "fast")
        assert trace.vector.bailed
        assert trace.vector.reason == "register-dtype-promotion"
