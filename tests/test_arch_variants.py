"""Architecture-variant behaviour tests on hand-crafted traces."""

import numpy as np
import pytest

from repro.arch import (
    BaselineArch,
    DACArch,
    DARSIEArch,
    IdealLN,
    IdealTB,
    IdealWP,
    R2D2Arch,
)
from repro.isa import CmpOp, DType, KernelBuilder, Param
from repro.sim import Cache, Device, tiny

from .trace_oracles import records

CONFIG = tiny()


def uniform_heavy_trace():
    """All arithmetic operates on kernel-uniform values."""
    dev = Device(CONFIG)
    b = KernelBuilder(
        "uniform", params=[Param("out", is_pointer=True),
                           Param("n", DType.S32)],
    )
    out = b.param(0)
    n = b.param(1)
    v = b.mul(b.add(n, 3), 7)
    b.st_global(b.addr(out, b.global_tid_x(), 4), v, DType.S32)
    d = dev.alloc(4 * 512)
    return dev.launch(b.build(), 4, 128, (d, 10))


def per_lane_trace():
    """Arithmetic on loaded (non-uniform, non-affine) data."""
    dev = Device(CONFIG)
    b = KernelBuilder(
        "lanes", params=[Param("src", is_pointer=True),
                         Param("dst", is_pointer=True)],
    )
    src, dst = b.param(0), b.param(1)
    i = b.global_tid_x()
    v = b.ld_global(b.addr(src, i, 4), DType.S32)
    w = b.mul(v, v)  # data-dependent: not affine
    b.st_global(b.addr(dst, i, 4), w, DType.S32)
    d_src = dev.upload(
        np.random.default_rng(1).integers(0, 97, 512).astype(np.int32)
    )
    d_dst = dev.alloc(4 * 512)
    return dev.launch(b.build(), 4, 128, (d_src, d_dst))


def run_arch(arch, trace):
    stats = arch.make_stats()
    arch.process_trace(trace, CONFIG, stats, l2=Cache(CONFIG.l2))
    return stats


class TestIdealWP:
    def test_uniform_ops_cost_one_thread_instruction(self):
        trace = uniform_heavy_trace()
        wp = run_arch(IdealWP(), trace)
        base = run_arch(BaselineArch(), trace)
        # the add/mul/param loads collapse to 1 thread op each
        assert wp.thread_instructions < base.thread_instructions * 0.7

    def test_data_dependent_ops_not_reduced(self):
        trace = per_lane_trace()
        wp = run_arch(IdealWP(), trace)
        base = run_arch(BaselineArch(), trace)
        # loads/stores/mul of random data can't be scalarized; only the
        # address setup shrinks
        assert wp.thread_instructions > base.thread_instructions * 0.4

    def test_warp_count_unchanged(self):
        trace = uniform_heavy_trace()
        wp = run_arch(IdealWP(), trace)
        base = run_arch(BaselineArch(), trace)
        assert wp.warp_instructions == base.warp_instructions


class TestIdealTB:
    def test_identical_warps_deduplicated_within_block(self):
        trace = uniform_heavy_trace()
        tb = run_arch(IdealTB(), trace)
        base = run_arch(BaselineArch(), trace)
        assert tb.warp_instructions < base.warp_instructions

    def test_memoization_is_per_block(self):
        """Warps in *different* blocks are never deduplicated."""
        trace = uniform_heavy_trace()
        tb = run_arch(IdealTB(), trace)
        n_blocks = len(trace.blocks)
        # at least one instruction per static pc per block must execute
        min_per_block = min(
            b.warp_instruction_count() for b in trace.blocks
        )
        assert tb.warp_instructions >= n_blocks


class TestIdealLN:
    def test_ln_beats_tb_on_cross_block_redundancy(self):
        trace = uniform_heavy_trace()
        ln = run_arch(IdealLN(), trace)
        tb = run_arch(IdealTB(), trace)
        assert ln.thread_instructions <= tb.thread_instructions

    def test_ln_counts_scalar_once_per_kernel(self):
        trace = uniform_heavy_trace()
        ln = run_arch(IdealLN(), trace)
        base = run_arch(BaselineArch(), trace)
        assert ln.thread_instructions < base.thread_instructions * 0.5


class TestDAC:
    def test_affine_arithmetic_lifted(self):
        trace = uniform_heavy_trace()
        dac = run_arch(DACArch(), trace)
        base = run_arch(BaselineArch(), trace)
        assert dac.warp_instructions < base.warp_instructions

    def test_memory_never_lifted(self):
        trace = uniform_heavy_trace()
        dac = run_arch(DACArch(), trace)
        instrs = trace.kernel.instructions
        n_state_changing = sum(
            1 for _b, _w, r in records(trace)
            if instrs[r.pc].is_store or instrs[r.pc].is_barrier
            or instrs[r.pc].is_branch
        )
        assert dac.warp_instructions >= n_state_changing

    def test_data_dependent_values_not_lifted(self):
        trace = per_lane_trace()
        dac = run_arch(DACArch(), trace)
        instrs = trace.kernel.instructions
        squares = sum(
            1 for _b, _w, r in records(trace)
            if instrs[r.pc].opcode.value == "mul"
            and instrs[r.pc].dst is not None
            and instrs[r.pc].dst.name.startswith("%r")
            and not r.affine
        )
        assert squares > 0  # random squares aren't affine sequences


class TestDARSIE:
    def test_redundant_warps_skipped(self):
        trace = uniform_heavy_trace()
        darsie = run_arch(DARSIEArch(), trace)
        base = run_arch(BaselineArch(), trace)
        assert darsie.warp_instructions < base.warp_instructions

    def test_scalar_variant_reduces_thread_count_further(self):
        trace = uniform_heavy_trace()
        plain = run_arch(DARSIEArch(with_scalar=False), trace)
        scalar = run_arch(DARSIEArch(with_scalar=True), trace)
        assert scalar.warp_instructions == plain.warp_instructions
        assert scalar.thread_instructions <= plain.thread_instructions

    def test_first_warp_always_executes(self):
        """The memo never skips the first occurrence."""
        trace = uniform_heavy_trace()
        darsie = run_arch(DARSIEArch(), trace)
        static = len(trace.kernel.instructions)
        assert darsie.warp_instructions >= static - 2  # exit not traced


class TestR2D2Arch:
    def _execute(self, arch=None):
        dev = Device(CONFIG)
        b = KernelBuilder("k", params=[Param("out", is_pointer=True)])
        out = b.param(0)
        i = b.global_tid_x()
        b.st_global(b.addr(out, i, 4), i, DType.S32)
        kernel = b.build()
        d = dev.alloc(4 * 512)
        arch = arch or R2D2Arch()
        stats = arch.make_stats()
        arch.execute_launch(
            dev, kernel, 4, 128, (d,), CONFIG, stats, l2=Cache(CONFIG.l2)
        )
        return dev, d, stats

    def test_counts_include_linear_overhead(self):
        _, _, stats = self._execute()
        assert stats.linear_warp_instructions > 0
        assert stats.linear_coef_instructions >= 0
        assert stats.linear_block_instructions > 0

    def test_output_correct(self):
        dev, d, _ = self._execute()
        got = dev.download(d, 512, np.int32)
        assert np.array_equal(got, np.arange(512, dtype=np.int32))

    def test_transform_cached_per_kernel(self):
        arch = R2D2Arch()
        b = KernelBuilder("k", params=[Param("out", is_pointer=True)])
        out = b.param(0)
        b.st_global(b.addr(out, b.global_tid_x(), 4), 1, DType.S32)
        kernel = b.build()
        rk1 = arch.transform(kernel)
        rk2 = arch.transform(kernel)
        assert rk1 is rk2

    def test_fallback_on_empty_plan(self):
        """A kernel with nothing linear falls back to the original."""
        dev = Device(CONFIG)
        b = KernelBuilder("f32only", params=[Param("out", is_pointer=True)])
        out = b.param(0)
        # address via float round-trip: untrackable
        t = b.cvt(b.cvt(b.global_tid_x(), DType.F32), DType.S32)
        b.st_global(b.addr(out, t, 4), 1, DType.S32)
        kernel = b.build()
        arch = R2D2Arch()
        stats = arch.make_stats()
        d = dev.alloc(4 * 512)
        arch.execute_launch(
            dev, kernel, 4, 128, (d,), CONFIG, stats, l2=Cache(CONFIG.l2)
        )
        # either fallback or near-zero linear content; both acceptable,
        # but the launch must be accounted exactly once
        assert stats.launches == 1

    def test_no_grouping_variant_runs(self):
        arch = R2D2Arch(group_shared_parts=False, name="r2d2-nogroup")
        _, d, stats = self._execute(arch)
        assert stats.warp_instructions > 0
