"""Timing-model tests: scheduling, scoreboard, memory hierarchy,
barriers, issue policies, and monotonicity properties."""

import numpy as np
import pytest

from repro.isa import CmpOp, DType, KernelBuilder, Param
from repro.sim import (
    Cache,
    Device,
    IssueMode,
    IssuePolicy,
    TimingSimulator,
    tiny,
)


def vadd_trace(n=1024, block=128, config=None):
    dev = Device(config or tiny())
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
    kernel = b.build()
    da = dev.upload(np.ones(n, dtype=np.float32))
    dc = dev.alloc(4 * n)
    return dev.launch(kernel, (n + block - 1) // block, block,
                      (da, dc, n))


class TestBasicTiming:
    def test_cycles_positive_and_bounded(self):
        trace = vadd_trace()
        res = TimingSimulator(tiny(), trace).run()
        assert res.cycles > 0
        # every instruction issued
        assert res.issued_total == trace.warp_instruction_count()

    def test_more_work_takes_longer(self):
        short = TimingSimulator(tiny(), vadd_trace(n=512)).run()
        long = TimingSimulator(tiny(), vadd_trace(n=8192)).run()
        assert long.cycles > short.cycles

    def test_more_sms_is_not_slower(self):
        trace = vadd_trace(n=8192)
        few = TimingSimulator(tiny().with_sms(2), trace).run()
        many = TimingSimulator(tiny().with_sms(8), trace).run()
        assert many.cycles <= few.cycles

    def test_slower_memory_hurts(self):
        trace = vadd_trace(n=4096)
        fast = TimingSimulator(tiny(), trace).run()
        slow_cfg = tiny().with_latency(dram=2000, l2_hit=800)
        slow = TimingSimulator(slow_cfg, trace).run()
        assert slow.cycles > fast.cycles

    def test_rr_and_gto_both_complete(self):
        trace = vadd_trace(n=2048)
        gto = TimingSimulator(tiny().with_scheduler("gto"), trace).run()
        rr = TimingSimulator(tiny().with_scheduler("rr"), trace).run()
        assert gto.issued_total == rr.issued_total

    def test_energy_components_present(self):
        res = TimingSimulator(tiny(), vadd_trace()).run()
        values = res.energy.values
        for key in ("fetch", "rf", "alu", "l1", "static"):
            assert values.get(key, 0) > 0, key

    def test_thread_ops_counted(self):
        trace = vadd_trace(n=1024)
        res = TimingSimulator(tiny(), trace).run()
        assert res.thread_ops == trace.thread_instruction_count()


class TestCacheBehaviour:
    def test_repeated_access_hits(self):
        trace = vadd_trace(n=1024)
        l2 = Cache(tiny().l2)
        TimingSimulator(tiny(), trace, l2=l2).run()
        first_hits = l2.stats.hits
        first_accesses = l2.stats.accesses
        TimingSimulator(tiny(), trace, l2=l2).run()
        second_hits = l2.stats.hits - first_hits
        second_accesses = l2.stats.accesses - first_accesses
        # warmed L2: the second pass hits where the first missed
        assert second_accesses > 0
        assert second_hits / second_accesses > 0.9

    def test_dram_accesses_on_cold_caches(self):
        res = TimingSimulator(tiny(), vadd_trace(n=4096)).run()
        assert res.dram_accesses > 0


class TestIssuePolicies:
    def test_skip_policy_reduces_cycles_and_counts(self):
        trace = vadd_trace(n=4096)

        class SkipArith(IssuePolicy):
            def plan(self, trace):
                instrs = trace.kernel.instructions
                modes, extra = super().plan(trace)
                arith = np.array([
                    not i.is_memory and not i.is_control for i in instrs
                ])
                modes[arith[trace.cols.pc]] = IssueMode.SKIP
                return modes, extra

        base = TimingSimulator(tiny(), trace).run()
        skip = TimingSimulator(tiny(), trace, policy=SkipArith()).run()
        assert skip.skipped > 0
        assert skip.issued_total < base.issued_total
        assert skip.cycles <= base.cycles

    def test_scalar_policy_counts_scalar_issues(self):
        trace = vadd_trace(n=2048)

        class ScalarArith(IssuePolicy):
            def plan(self, trace):
                instrs = trace.kernel.instructions
                modes, extra = super().plan(trace)
                arith = np.array([
                    not i.is_memory and not i.is_control for i in instrs
                ])
                modes[arith[trace.cols.pc]] = IssueMode.SCALAR
                return modes, extra

        res = TimingSimulator(tiny(), trace, policy=ScalarArith()).run()
        assert res.issued_scalar > 0
        assert (
            res.issued_scalar + res.issued_simd
            == trace.warp_instruction_count()
        )

    def test_prologue_policy_delays(self):
        trace = vadd_trace(n=2048)

        class Prologue(IssuePolicy):
            def sm_prologue_cycles(self, sm_id):
                return 500

        base = TimingSimulator(tiny(), trace).run()
        delayed = TimingSimulator(tiny(), trace, policy=Prologue()).run()
        assert delayed.cycles >= base.cycles + 400
        assert delayed.prologue_cycles > 0

    def test_extra_latency_policy(self):
        trace = vadd_trace(n=2048)

        class Extra(IssuePolicy):
            def plan(self, trace):
                modes, extra = super().plan(trace)
                extra[:] = 50
                return modes, extra

        base = TimingSimulator(tiny(), trace).run()
        extra = TimingSimulator(tiny(), trace, policy=Extra()).run()
        assert extra.cycles > base.cycles


class TestBarrierTiming:
    def test_barrier_kernel_completes(self):
        dev = Device(tiny())
        b = KernelBuilder(
            "barrier", params=[Param("out", is_pointer=True)],
            shared_mem_bytes=256 * 4,
        )
        out = b.param(0)
        flat = b.tid_x()
        saddr = b.cvt(b.shl(flat, 2), DType.S64)
        b.st_shared(saddr, flat, DType.S32)
        b.bar()
        v = b.ld_shared(saddr, DType.S32)
        b.st_global(b.addr(out, b.global_tid_x(), 4), v, DType.S32)
        d = dev.alloc(4 * 512)
        trace = dev.launch(b.build(), 2, 256, (d,))
        res = TimingSimulator(tiny(), trace).run()
        assert res.cycles > 0
        assert res.issued_total == trace.warp_instruction_count()


class TestOccupancy:
    def test_resident_limit_accounts_registers(self):
        trace = vadd_trace(n=4096, block=256)
        sim = TimingSimulator(tiny(), trace)
        limit = sim.resident_blocks_limit()
        assert 1 <= limit <= tiny().max_blocks_per_sm
        # forcing absurd register pressure collapses residency
        sim2 = TimingSimulator(tiny(), trace, regs_per_thread=1000)
        assert sim2.resident_blocks_limit() == 1

    def test_shared_memory_limits_blocks(self):
        dev = Device(tiny())
        b = KernelBuilder(
            "smem", params=[Param("out", is_pointer=True)],
            shared_mem_bytes=48 * 1024,
        )
        out = b.param(0)
        b.st_global(b.addr(out, b.global_tid_x(), 4), 1, DType.S32)
        d = dev.alloc(4 * 1024)
        trace = dev.launch(b.build(), 4, 256, (d,))
        sim = TimingSimulator(tiny(), trace)
        assert sim.resident_blocks_limit() <= 2
