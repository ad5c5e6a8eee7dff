"""Functional-executor tests: SIMT semantics, divergence, barriers,
arithmetic edge cases, trace contents."""

import numpy as np
import pytest

from repro.isa import (
    AtomOp,
    CmpOp,
    DType,
    Dim3,
    KernelBuilder,
    Param,
    SpecialReg,
)
from repro.sim import Device, ExecutionError, tiny

from .trace_oracles import records


def make_device():
    return Device(tiny())


def run_simple(build_body, n=64, block=32, extra_args=(), out_dtype=np.int32):
    """Helper: kernel writes one value per thread to out[]."""
    dev = make_device()
    b = KernelBuilder(
        "t", params=[Param("out", is_pointer=True)]
        + [Param(f"p{i}", DType.S32) for i in range(len(extra_args))]
    )
    out = b.param(0)
    params = [b.param(i + 1) for i in range(len(extra_args))]
    value = build_body(b, params)
    i = b.global_tid_x()
    b.st_global(b.addr(out, i, 4), value,
                DType.S32 if out_dtype == np.int32 else DType.F32)
    kernel = b.build()
    d_out = dev.alloc(4 * n)
    trace = dev.launch(kernel, grid=(n + block - 1) // block, block=block,
                       args=(d_out, *extra_args))
    return dev.download(d_out, n, out_dtype), trace


class TestBuiltins:
    def test_tid_and_ctaid(self):
        got, _ = run_simple(
            lambda b, p: b.mad(b.ctaid_x(), 100, b.tid_x()), n=64, block=32
        )
        want = np.array([(i // 32) * 100 + i % 32 for i in range(64)])
        assert np.array_equal(got, want)

    def test_2d_indices(self):
        dev = make_device()
        b = KernelBuilder("t2d", params=[Param("out", is_pointer=True)])
        out = b.param(0)
        tx, ty = b.tid_x(), b.tid_y()
        idx = b.mad(b.mad(b.ctaid_x(), b.ntid_y(), ty), b.ntid_x(), tx)
        b.st_global(b.addr(out, idx, 4), b.mad(ty, 1000, tx), DType.S32)
        d_out = dev.alloc(4 * 64)
        dev.launch(b.build(), grid=2, block=(8, 4), args=(d_out,))
        got = dev.download(d_out, 64, np.int32).reshape(2, 4, 8)
        for ty in range(4):
            for tx in range(8):
                assert got[0, ty, tx] == ty * 1000 + tx

    def test_dimension_specials(self):
        got, _ = run_simple(
            lambda b, p: b.mad(b.nctaid_x(), 100, b.ntid_x()),
            n=64, block=32,
        )
        assert (got == 2 * 100 + 32).all()


class TestArithmetic:
    def test_integer_division_truncates_toward_zero(self):
        got, _ = run_simple(
            lambda b, p: b.div(b.sub(b.tid_x(), 5), 3), n=32
        )
        want = np.array([int((i - 5) / 3) for i in range(32)])
        assert np.array_equal(got, want)

    def test_division_by_zero_yields_zero(self):
        got, _ = run_simple(lambda b, p: b.div(b.tid_x(), 0), n=32)
        assert (got == 0).all()

    def test_rem_sign_follows_dividend(self):
        got, _ = run_simple(
            lambda b, p: b.rem(b.sub(b.tid_x(), 5), 3), n=32
        )
        want = np.array([int(np.fmod(i - 5, 3)) for i in range(32)])
        assert np.array_equal(got, want)

    def test_shift_clamps_large_amounts(self):
        got, _ = run_simple(lambda b, p: b.shl(1, b.mov(100)), n=32)
        assert (got == 0).all() or (got == got[0]).all()

    def test_selp(self):
        def body(b, p):
            pred = b.setp(CmpOp.LT, b.tid_x(), 16)
            return b.selp(1, 2, pred)

        got, _ = run_simple(body, n=32)
        assert got[:16].tolist() == [1] * 16
        assert got[16:].tolist() == [2] * 16

    def test_f32_rounding_applied(self):
        dev = make_device()
        b = KernelBuilder("f32", params=[Param("out", is_pointer=True)])
        out = b.param(0)
        # 2^25 + 1 is not representable in f32
        v = b.add(float(2 ** 25), 1.0, DType.F32)
        b.st_global(b.addr(out, b.tid_x(), 4), v, DType.F32)
        d_out = dev.alloc(4 * 32)
        dev.launch(b.build(), grid=1, block=32, args=(d_out,))
        got = dev.download(d_out, 32, np.float32)
        assert got[0] == np.float32(2 ** 25)

    def test_sfu_ops(self):
        def body(b, p):
            x = b.add(b.cvt(b.tid_x(), DType.F32), 1.0, DType.F32)
            return b.cvt(b.mul(b.sqrt(b.mul(x, x, DType.F32)), 10.0,
                                DType.F32), DType.S32)

        got, _ = run_simple(body, n=32)
        want = [int(np.float32(np.float32(i + 1) * 10)) for i in range(32)]
        assert np.array_equal(got, want)


class TestDivergence:
    def test_if_else_both_paths(self):
        dev = make_device()
        b = KernelBuilder("div", params=[Param("out", is_pointer=True)])
        out = b.param(0)
        t = b.tid_x()
        r = b.mov(0)
        pred = b.setp(CmpOp.LT, t, 10)
        with b.if_else(pred) as (then, otherwise):
            with then:
                b.mov_to(r, b.add(t, 100))
            with otherwise:
                b.mov_to(r, b.add(t, 200))
        b.st_global(b.addr(out, t, 4), r, DType.S32)
        d_out = dev.alloc(4 * 32)
        dev.launch(b.build(), grid=1, block=32, args=(d_out,))
        got = dev.download(d_out, 32, np.int32)
        want = [i + 100 if i < 10 else i + 200 for i in range(32)]
        assert got.tolist() == want

    def test_nested_divergence(self):
        dev = make_device()
        b = KernelBuilder("nest", params=[Param("out", is_pointer=True)])
        out = b.param(0)
        t = b.tid_x()
        r = b.mov(0)
        outer = b.setp(CmpOp.LT, t, 16)
        with b.if_then(outer):
            inner = b.setp(CmpOp.LT, t, 8)
            with b.if_else(inner) as (then, otherwise):
                with then:
                    b.mov_to(r, 1)
                with otherwise:
                    b.mov_to(r, 2)
        b.st_global(b.addr(out, t, 4), r, DType.S32)
        d_out = dev.alloc(4 * 32)
        dev.launch(b.build(), grid=1, block=32, args=(d_out,))
        got = dev.download(d_out, 32, np.int32)
        want = [1] * 8 + [2] * 8 + [0] * 16
        assert got.tolist() == want

    def test_divergent_loop_trip_counts(self):
        dev = make_device()
        b = KernelBuilder("looped", params=[Param("out", is_pointer=True)])
        out = b.param(0)
        t = b.tid_x()
        acc = b.mov(0)
        with b.for_range(0, t) as _:
            b.add_to(acc, acc, 1)
        b.st_global(b.addr(out, t, 4), acc, DType.S32)
        d_out = dev.alloc(4 * 32)
        dev.launch(b.build(), grid=1, block=32, args=(d_out,))
        got = dev.download(d_out, 32, np.int32)
        assert got.tolist() == list(range(32))

    def test_predicated_exit(self):
        dev = make_device()
        b = KernelBuilder("pexit", params=[Param("out", is_pointer=True)])
        out = b.param(0)
        t = b.tid_x()
        b.st_global(b.addr(out, t, 4), 1, DType.S32)
        pred = b.setp(CmpOp.GE, t, 16)
        b.emit_exit = None
        from repro.isa import Instruction, Opcode
        b.emit(Instruction(Opcode.EXIT, pred=pred))
        b.st_global(b.addr(out, t, 4), 2, DType.S32)
        d_out = dev.alloc(4 * 32)
        dev.launch(b.build(), grid=1, block=32, args=(d_out,))
        got = dev.download(d_out, 32, np.int32)
        assert got[:16].tolist() == [2] * 16
        assert got[16:].tolist() == [1] * 16


class TestBarriers:
    def test_shared_memory_exchange_across_warps(self):
        dev = make_device()
        b = KernelBuilder(
            "sm", params=[Param("out", is_pointer=True)],
            shared_mem_bytes=64 * 4,
        )
        out = b.param(0)
        flat = b.mad(b.tid_y(), b.ntid_x(), b.tid_x())
        saddr = b.cvt(b.shl(flat, 2), DType.S64)
        b.st_shared(saddr, flat, DType.S32)
        b.bar()
        # read the value written by the "opposite" thread
        partner = b.sub(63, flat)
        paddr = b.cvt(b.shl(partner, 2), DType.S64)
        v = b.ld_shared(paddr, DType.S32)
        b.st_global(b.addr(out, flat, 4), v, DType.S32)
        d_out = dev.alloc(4 * 64)
        dev.launch(b.build(), grid=1, block=(32, 2), args=(d_out,))
        got = dev.download(d_out, 64, np.int32)
        assert got.tolist() == list(reversed(range(64)))


class TestAtomicsAndErrors:
    def test_atomic_add_counts_all_threads(self):
        dev = make_device()
        b = KernelBuilder("atom", params=[Param("ctr", is_pointer=True)])
        ctr = b.param(0)
        b.atom_global(AtomOp.ADD, ctr, 1, DType.S32)
        d = dev.upload(np.zeros(1, dtype=np.int32))
        dev.launch(b.build(), grid=4, block=64, args=(d,))
        assert dev.download(d, 1, np.int32)[0] == 256

    def test_infinite_loop_detection(self):
        dev = make_device()
        b = KernelBuilder("inf", params=[])
        lbl = b.fresh_label("SPIN")
        b.place_label(lbl)
        b.add(b.tid_x(), 1)
        b.bra(lbl)
        kernel = b.build()
        from repro.sim import FunctionalExecutor
        from repro.isa import LaunchConfig
        ex = FunctionalExecutor(
            kernel, LaunchConfig(Dim3(1), Dim3(32)), dev.memory,
            max_warp_instructions=1000,
        )
        with pytest.raises(ExecutionError):
            ex.run()

    def test_wrong_arg_count_raises(self):
        dev = make_device()
        b = KernelBuilder("args", params=[Param("p", is_pointer=True)])
        b.param(0)
        with pytest.raises(ExecutionError):
            dev.launch(b.build(), grid=1, block=32, args=())


class TestTraceContents:
    def test_uniform_flag(self):
        _, trace = run_simple(lambda b, p: b.add(p[0], 1), extra_args=(7,))
        adds = [
            r for _b, _w, r in records(trace)
            if trace.kernel.instructions[r.pc].opcode.value == "add"
        ]
        assert adds and all(r.uniform for r in adds)

    def test_affine_flag_on_tid(self):
        _, trace = run_simple(lambda b, p: b.mul(b.tid_x(), 4))
        muls = [
            r for _b, _w, r in records(trace)
            if trace.kernel.instructions[r.pc].opcode.value == "mul"
        ]
        assert muls and all(r.affine for r in muls)

    def test_coalesced_lines_counted(self):
        _, trace = run_simple(lambda b, p: b.tid_x())
        stores = [r for _b, _w, r in records(trace) if r.lines]
        # 32 lanes x 4B = 128B = 1 line when aligned
        assert stores
        assert all(len(r.lines) <= 2 for r in stores)

    def test_thread_count_excludes_inactive(self):
        dev = make_device()
        b = KernelBuilder("partial", params=[Param("out", is_pointer=True)])
        out = b.param(0)
        t = b.tid_x()
        pred = b.setp(CmpOp.LT, t, 4)
        with b.if_then(pred):
            b.st_global(b.addr(out, t, 4), t, DType.S32)
        d_out = dev.alloc(4 * 32)
        trace = dev.launch(b.build(), grid=1, block=32, args=(d_out,))
        stores = [
            r for _b, _w, r in records(trace)
            if trace.kernel.instructions[r.pc].is_store
        ]
        assert stores[0].active == 4
