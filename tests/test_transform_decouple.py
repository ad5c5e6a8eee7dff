"""Tests for the R2D2 kernel transformation (decoupling + rewriting)."""

import numpy as np
import pytest

from repro.isa import (
    CmpOp,
    CoeffRegOperand,
    DType,
    Dim3,
    KernelBuilder,
    LaunchConfig,
    LinearRef,
    LinearRegOperand,
    Opcode,
    Param,
    validate_kernel,
)
from repro.arch.r2d2 import R2D2Arch
from repro.isa.operands import Imm
from repro.linear.coeffvec import wrap_i64
from repro.sim import Device, tiny
from repro.sim.gpu import as_dim3
from repro.transform import R2D2Values, r2d2_transform
from repro.workloads import factory as workload_factory


def ptr(name):
    return Param(name, is_pointer=True)


def simple_store_kernel():
    b = KernelBuilder("store", params=[ptr("out")])
    out = b.param(0)
    i = b.global_tid_x()
    b.st_global(b.addr(out, i, 4), i, DType.S32)
    return b.build()


class TestTransformStructure:
    def test_transformed_is_smaller(self):
        rk = r2d2_transform(simple_store_kernel())
        assert len(rk.transformed.instructions) < len(
            rk.original.instructions
        )
        assert rk.removed_static > 0

    def test_transformed_validates(self):
        rk = r2d2_transform(simple_store_kernel())
        validate_kernel(rk.transformed)

    def test_store_uses_linear_ref(self):
        rk = r2d2_transform(simple_store_kernel())
        stores = [
            i for i in rk.transformed.instructions if i.is_store
        ]
        assert isinstance(stores[0].srcs[0], LinearRef)

    def test_stored_value_reads_linear_register(self):
        rk = r2d2_transform(simple_store_kernel())
        stores = [i for i in rk.transformed.instructions if i.is_store]
        assert isinstance(stores[0].srcs[1], LinearRegOperand)

    def test_original_untouched(self):
        kernel = simple_store_kernel()
        before = kernel.disassemble()
        r2d2_transform(kernel)
        assert kernel.disassemble() == before

    def test_labels_remap_after_dce(self):
        b = KernelBuilder("guarded", params=[ptr("out"), Param("n", DType.S32)])
        out = b.param(0)
        n = b.param(1)
        i = b.global_tid_x()
        p = b.setp(CmpOp.LT, i, n)
        with b.if_then(p):
            b.st_global(b.addr(out, i, 4), i, DType.S32)
        rk = r2d2_transform(b.build())
        validate_kernel(rk.transformed)
        # The branch target still lands after the store.
        bra = next(
            i for i in rk.transformed.instructions if i.is_branch
        )
        target = rk.transformed.label_pc(bra.target)
        store_pc = next(
            pc for pc, i in enumerate(rk.transformed.instructions)
            if i.is_store
        )
        assert target > store_pc

    def test_uniform_pcs_remapped(self):
        b = KernelBuilder("loop", params=[ptr("out")])
        out = b.param(0)
        a_ptr = b.addr(out, b.global_tid_x(), 4)
        with b.for_range(0, 4):
            b.st_global(a_ptr, 1, DType.S32)
            b.add_to(a_ptr, a_ptr, 4)
        rk = r2d2_transform(b.build())
        for pc in rk.uniform_pcs:
            instr = rk.transformed.instructions[pc]
            assert instr.opcode in (Opcode.ADD, Opcode.SUB)
            assert instr.dst.name in {
                s.name for s in instr.source_regs()
            }

    def test_scalar_base_address_rewritten(self):
        b = KernelBuilder("scalarbase", params=[ptr("buf")])
        buf = b.param(0)
        v = b.ld_global(buf, DType.S32)
        b.st_global(b.addr(buf, b.global_tid_x(), 4), v, DType.S32)
        rk = r2d2_transform(b.build())
        loads = [i for i in rk.transformed.instructions if i.is_load]
        assert isinstance(loads[0].srcs[0], LinearRef)
        assert loads[0].srcs[0].lr_id is None  # scalar (cr-only) base

    def test_max_entries_respected(self):
        rk = r2d2_transform(simple_store_kernel(), max_entries=1)
        assert rk.plan.num_linear_registers <= 1


class TestFunctionalEquivalence:
    """Transformed kernels must be bit-identical to the originals."""

    def _run_both(self, kernel, grid, block, make_args, out_spec):
        dev1 = Device(tiny())
        args1, check_addr1 = make_args(dev1)
        dev1.launch(kernel, grid, block, args1)

        rk = r2d2_transform(kernel)
        dev2 = Device(tiny())
        args2, check_addr2 = make_args(dev2)
        launch = LaunchConfig(
            grid=Dim3(grid) if isinstance(grid, int) else Dim3(*grid),
            block=Dim3(block) if isinstance(block, int) else Dim3(*block),
            args=tuple(args2),
        )
        values = R2D2Values(rk.plan, launch)
        dev2.launch(rk.transformed, grid, block, args2,
                    linear_values=values)
        count, dtype = out_spec
        a = dev1.download(check_addr1, count, dtype)
        b = dev2.download(check_addr2, count, dtype)
        assert np.array_equal(a, b)

    def test_store_kernel(self):
        def make_args(dev):
            d = dev.alloc(4 * 256)
            return (d,), d

        self._run_both(
            simple_store_kernel(), 8, 32, make_args, (256, np.int32)
        )

    def test_2d_kernel_with_guard(self):
        b = KernelBuilder(
            "grid2d", params=[ptr("out"), Param("w", DType.S32)]
        )
        out = b.param(0)
        w = b.param(1)
        x = b.mad(b.ctaid_x(), b.ntid_x(), b.tid_x())
        y = b.mad(b.ctaid_y(), b.ntid_y(), b.tid_y())
        ok = b.setp(CmpOp.LT, x, w)
        with b.if_then(ok):
            idx = b.mad(y, w, x)
            b.st_global(b.addr(out, idx, 4), idx, DType.S32)
        kernel = b.build()

        def make_args(dev):
            d = dev.upload(np.zeros(30 * 16, dtype=np.int32))
            return (d, 30), d

        self._run_both(
            kernel, (1, 4), (32, 4), make_args, (30 * 16, np.int32)
        )

    def test_loop_kernel_with_pointer_bump(self):
        b = KernelBuilder("bump", params=[ptr("src"), ptr("dst")])
        src, dst = b.param(0), b.param(1)
        i = b.global_tid_x()
        s_ptr = b.addr(src, b.mul(i, 4), 4)
        acc = b.mov(0, DType.S32)
        with b.for_range(0, 4):
            v = b.ld_global(s_ptr, DType.S32)
            b.add_to(acc, acc, v)
            b.add_to(s_ptr, s_ptr, 4)
        b.st_global(b.addr(dst, i, 4), acc, DType.S32)
        kernel = b.build()

        data = np.arange(64 * 4, dtype=np.int32)

        def make_args(dev):
            d_src = dev.upload(data)
            d_dst = dev.alloc(4 * 64)
            return (d_src, d_dst), d_dst

        self._run_both(kernel, 2, 32, make_args, (64, np.int32))

    def test_divergent_defs(self):
        b = KernelBuilder("diverge", params=[ptr("out")])
        out = b.param(0)
        t = b.global_tid_x()
        addr = b.new_reg(DType.S64)
        p = b.setp(CmpOp.LT, b.tid_x(), 16)
        with b.if_else(p) as (then, otherwise):
            with then:
                b.mov_to(addr, b.addr(out, t, 4))
            with otherwise:
                b.mov_to(addr, b.addr(out, t, 4, disp=0))
        b.st_global(addr, t, DType.S32)
        kernel = b.build()

        def make_args(dev):
            d = dev.alloc(4 * 64)
            return (d,), d

        self._run_both(kernel, 2, 32, make_args, (64, np.int32))


class TestRegisterUsage:
    def test_transformed_uses_fewer_registers(self):
        rk = r2d2_transform(simple_store_kernel())
        u = rk.register_usage
        assert u.transformed_regs_per_thread <= u.original_regs_per_thread

    def test_fits_on_default_config(self):
        rk = r2d2_transform(simple_store_kernel())
        assert rk.fits(tiny(), 256)

    def test_block_batches(self):
        rk = r2d2_transform(simple_store_kernel())
        u = rk.register_usage
        assert u.n_block_batches == (
            (u.n_linear_entries + 15) // 16
        )

    def test_linear_storage_slots_positive(self):
        rk = r2d2_transform(simple_store_kernel())
        u = rk.register_usage
        assert u.linear_storage_slots(256, 4) > 0


class TestLinearValueProvider:
    def test_cr_values_match_env(self):
        b = KernelBuilder("cr", params=[ptr("out"), Param("n", DType.S32)])
        out = b.param(0)
        n = b.param(1)
        half = b.shr(n, 1)
        b.st_global(b.addr(out, b.global_tid_x(), 4), half, DType.S32)
        rk = r2d2_transform(b.build())
        launch = LaunchConfig(Dim3(2), Dim3(32), args=(4096, 10))
        values = R2D2Values(rk.plan, launch)
        tid, ctaid = _random_warps(np.random.default_rng(0), 1)
        # some coefficient register must hold n >> 1 == 5
        assert 5 in [
            values.operand(CoeffRegOperand(e.cr_id), tid, ctaid)
            for e in rk.plan.scalars
        ]

    def test_lr_lane_values_match_direct_evaluation(self):
        kernel = simple_store_kernel()
        rk = r2d2_transform(kernel)
        launch = LaunchConfig(Dim3(4), Dim3(64), args=(1024,))
        values = R2D2Values(rk.plan, launch)
        from repro.sim.executor import WarpContext
        warp = WarpContext(1, (2, 0, 0), (64, 1, 1), 10)
        entry = rk.plan.entries[0]
        got = values.operand(
            LinearRegOperand(entry.lr_id),
            (warp.tid_x[None], warp.tid_y[None], warp.tid_z[None]),
            np.array([2, 0, 0]).reshape(3, 1, 1),
        )[0]
        env = values.env
        for lane in (0, 13, 31):
            tid = (int(warp.tid_x[lane]), int(warp.tid_y[lane]),
                   int(warp.tid_z[lane]))
            expect = entry.representative_vec().evaluate(
                env, tid, (2, 0, 0)
            )
            assert got[lane] == expect

    @pytest.mark.parametrize("abbr", ["RED0", "GAS", "STC", "RES", "2MM",
                                      "LUD"])
    def test_operand_rows_match_one_row_calls_and_python_ints(self, abbr):
        """Every operand of every transformed launch of ``abbr`` at tiny
        scale — between them ``%cr``, ``%lr`` with a displacement and a
        ``%cr`` offset, and :class:`LinearRef` with and without ``%lr``
        — over random warps."""
        arch = R2D2Arch()
        workload = workload_factory(abbr, "tiny")()
        rng = np.random.default_rng(11)
        checked = 0
        for spec in workload.prepare(Device(tiny())):
            launch = LaunchConfig(
                grid=as_dim3(spec.grid), block=as_dim3(spec.block),
                args=tuple(spec.args),
            )
            rk = arch.launch_kernel(spec.kernel, launch, tiny())
            if rk is not None:
                checked += _check_operands(
                    R2D2Values(rk.plan, launch), _operands(rk), rng
                )
        assert checked

    def test_operand_wraps_coefficients_near_int64_limits(self):
        b = KernelBuilder("bigcoef", params=[
            ptr("out"), Param("s", DType.S64), Param("t", DType.S64),
        ])
        out, s, t = b.param(0), b.param(1), b.param(2)
        x = b.add(b.mul(b.tid_x(), s, DType.S64),
                  b.mul(b.tid_z(), t, DType.S64), DType.S64)
        x = b.add(x, b.mul(b.ctaid_y(), t, DType.S64), DType.S64)
        b.st_global(b.addr(out, b.global_tid_x(), 8), x, DType.S64)
        y = b.mul(b.ctaid_z(), s, DType.S64)
        b.st_global(b.addr(out, y, 8, disp=8), y, DType.S64)
        b.st_global(b.addr(out, b.global_tid_x(), 8, disp=16),
                    b.add(s, t, DType.S64), DType.S64)
        rk = r2d2_transform(b.build())
        launch = LaunchConfig(
            Dim3(2, 3, 2), Dim3(64), args=(4096, 2**63 - 5, -2**63 + 7),
        )
        values = R2D2Values(rk.plan, launch)
        assert max(
            abs(wrap_i64(c.evaluate(values.env)))
            for e in rk.plan.entries for c in e.thread_part + e.block_part
        ) > 2**62
        ops = _operands(rk)
        assert any(isinstance(op, CoeffRegOperand) for op in ops)
        assert _check_operands(values, ops, np.random.default_rng(5))


def _random_warps(rng, n_rows):
    """``tid.x/y/z`` lanes ``(n_rows, 32)`` and ``ctaid.x/y/z`` values
    ``(n_rows, 1)`` of random warps."""
    tid = [rng.integers(0, 1024, (n_rows, 32)) for _ in range(3)]
    ctaid = [rng.integers(0, 1 << 16, (n_rows, 1)) for _ in range(3)]
    return tid, ctaid


def _operands(rk):
    """Every R2D2 operand a transformed kernel or its witness reads."""
    forms = (CoeffRegOperand, LinearRegOperand, LinearRef)
    ops = {op for instr in rk.transformed.instructions for op in instr.srcs
           if isinstance(op, forms)}
    for site in rk.translation().sites.values():
        ops.update(op for _, op in site.operands)
        if site.move is not None:
            ops.add(site.move)
    return ops


def _lane_value(plan, env, op, tid, ctaid):
    """``op`` on one lane from the plan's expressions, in Python ints
    wrapped to int64 once."""
    if isinstance(op, Imm):
        return op.value
    crs = {e.cr_id: e.expr for e in plan.scalars}
    crs.update(plan.delta_exprs)
    if isinstance(op, CoeffRegOperand):
        return wrap_i64(crs[op.cr_id].evaluate(env))
    total = op.disp
    if op.cr_id is not None:
        total += crs[op.cr_id].evaluate(env)
    if op.lr_id is not None:
        entry = plan.entries[op.lr_id]
        total += entry.block_const.evaluate(env) + sum(
            c.evaluate(env) * v
            for c, v in zip(entry.thread_part + entry.block_part,
                            tid + ctaid)
        )
    return wrap_i64(total)


def _check_operands(values, ops, rng, n_rows=6):
    """Assert that :meth:`R2D2Values.operand` over ``n_rows`` random warps
    equals its one-row calls and the per-lane Python-int evaluation;
    returns the number of operands checked."""
    tid, ctaid = _random_warps(rng, n_rows)
    for op in ops:
        got = values.operand(op, tid, ctaid)
        for r in range(n_rows):
            row = values.operand(
                op, [a[r:r + 1] for a in tid], [a[r:r + 1] for a in ctaid]
            )
            if np.ndim(got):
                assert got.dtype == row.dtype == np.int64, op
                assert got.shape == (n_rows, 32) and row.shape == (1, 32)
                assert np.array_equal(got[r:r + 1], row), op
                want = [
                    _lane_value(
                        values.plan, values.env, op,
                        tuple(int(a[r, lane]) for a in tid),
                        tuple(int(a[r, 0]) for a in ctaid),
                    )
                    for lane in range(32)
                ]
                assert got[r].tolist() == want, (op, r)
            else:
                assert row == got == _lane_value(
                    values.plan, values.env, op, None, None
                ), op
    return len(ops)
