"""The launch-time scalar-recipe evaluator must match the functional
executor's integer semantics exactly (property-based cross-check)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import DType, Instruction, Opcode
from repro.sim.executor import FunctionalExecutor
from repro.transform.values import _apply_scalar_op

BINARY_OPS = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.SHL,
    Opcode.SHR,
    Opcode.DIV,
    Opcode.REM,
    Opcode.MIN,
    Opcode.MAX,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
]
UNARY_OPS = [Opcode.NOT, Opcode.ABS, Opcode.NEG, Opcode.MOV, Opcode.CVT]


def executor_compute(opcode, args):
    instr = Instruction(opcode, dtype=DType.S64, dst=None, srcs=())
    arrays = [np.array([a], dtype=np.int64) for a in args]
    ex = FunctionalExecutor.__new__(FunctionalExecutor)
    result = ex._compute(instr, arrays)
    return int(np.asarray(result)[0])


small_ints = st.integers(-(2**31), 2**31 - 1)
shift_amounts = st.integers(0, 63)


class TestBinaryOps:
    @pytest.mark.parametrize("opcode", BINARY_OPS)
    @given(a=small_ints, b=small_ints)
    @settings(max_examples=25, deadline=None)
    def test_matches_executor(self, opcode, a, b):
        if opcode in (Opcode.SHL, Opcode.SHR):
            b = abs(b) % 8  # realistic shift amounts
        got = _apply_scalar_op(opcode, [a, b])
        want = executor_compute(opcode, [a, b])
        # both are int64 semantics; compare modulo 2^64 wrap
        assert np.int64(got % (1 << 64) - (1 << 64)
                        if got % (1 << 64) >= (1 << 63)
                        else got % (1 << 64)) == np.int64(want) or (
            int(np.int64(got)) == want
        )

    def test_division_truncates_toward_zero(self):
        assert _apply_scalar_op(Opcode.DIV, [-7, 2]) == -3
        assert _apply_scalar_op(Opcode.DIV, [7, -2]) == -3

    def test_division_by_zero_is_zero(self):
        assert _apply_scalar_op(Opcode.DIV, [5, 0]) == 0
        assert _apply_scalar_op(Opcode.REM, [5, 0]) == 5

    def test_rem_sign(self):
        assert _apply_scalar_op(Opcode.REM, [-7, 2]) == -1
        assert _apply_scalar_op(Opcode.REM, [7, -2]) == 1


class TestUnaryAndMad:
    @pytest.mark.parametrize("opcode", UNARY_OPS)
    @given(a=small_ints)
    @settings(max_examples=25, deadline=None)
    def test_unary_matches_executor(self, opcode, a):
        got = _apply_scalar_op(opcode, [a])
        want = executor_compute(opcode, [a])
        assert int(np.int64(got)) == want

    @given(a=small_ints, b=st.integers(-100, 100), c=small_ints)
    @settings(max_examples=25, deadline=None)
    def test_mad(self, a, b, c):
        got = _apply_scalar_op(Opcode.MAD, [a, b, c])
        want = executor_compute(Opcode.MAD, [a, b, c])
        assert int(np.int64(got)) == want

    def test_unknown_opcode_raises(self):
        with pytest.raises(ValueError):
            _apply_scalar_op(Opcode.SIN, [1])


class TestWidthAndWrap:
    """Regression: _apply_scalar_op used to return unbounded Python ints
    (crashing numpy conversion past 2**63) and treated cvt as a mov."""

    def test_mul_wraps_like_int64_lanes(self):
        big = 3037000500  # big*big is just past 2**63
        got = _apply_scalar_op(Opcode.MUL, [big, big])
        with np.errstate(over="ignore"):
            want = int(np.int64(big) * np.int64(big))
        assert got == want
        assert -(2 ** 63) <= got < 2 ** 63

    def test_cvt_narrows_to_s32(self):
        near = 2 ** 31 + 12345
        assert _apply_scalar_op(Opcode.CVT, [near], DType.S32) == (
            near - 2 ** 32
        )

    def test_cvt_narrows_to_u32(self):
        assert _apply_scalar_op(Opcode.CVT, [-1], DType.U32) == 2 ** 32 - 1

    def test_cvt_s64_is_identity(self):
        assert _apply_scalar_op(Opcode.CVT, [-5], DType.S64) == -5


class TestRecipeOrdering:
    """scalar_recipes must preserve program order: a later opaque scalar
    may reference an earlier one's symbol, and launch-time evaluation
    walks the mapping in insertion order."""

    def test_recipes_recorded_in_program_order(self):
        from repro.isa import KernelBuilder, Param
        from repro.linear import analyze_kernel

        b = KernelBuilder("k", params=[Param("n", DType.S64)])
        n = b.param(0)
        a = b.shr(n, 1)          # opaque scalar 1
        c = b.and_(a, 7)         # opaque scalar 2, uses 1's symbol
        b.xor(c, n)              # opaque scalar 3, uses 2's symbol
        result = analyze_kernel(b.build())
        names = list(result.scalar_recipes)
        assert len(names) >= 3
        pcs = [int(name[2:]) for name in names]  # _S{pc}
        assert pcs == sorted(pcs)

    def test_dependent_chain_evaluates_at_launch(self):
        from repro.isa import Dim3, KernelBuilder, LaunchConfig, Param
        from repro.transform import R2D2Values, r2d2_transform

        b = KernelBuilder("k", params=[
            Param("out", is_pointer=True), Param("n", DType.S64),
        ])
        out = b.param(0)
        n = b.param(1)
        half = b.shr(n, 1)
        quarter = b.shr(half, 1)
        idx = b.add(b.global_tid_x(), 0, dtype=DType.S32)
        addr = b.addr(out, idx, 4)
        b.st_global(addr, quarter, DType.S32)
        rk = r2d2_transform(b.build())
        launch = LaunchConfig(Dim3(1), Dim3(32), args=(4096, 44))
        values = R2D2Values(rk.plan, launch)
        # 44 >> 1 >> 1 = 11 must be resolvable through the chained
        # symbols regardless of dict iteration quirks
        assert 11 in values.env.values()
