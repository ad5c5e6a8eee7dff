"""Tests for register-allocation estimation and cache models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import DType, KernelBuilder, Param, allocated_registers
from repro.sim import Cache, CacheStats, MemoryHierarchy
from repro.sim.config import CacheConfig, LatencyConfig


class TestRegalloc:
    def test_straight_line_reuse(self):
        b = KernelBuilder("k", params=[Param("p", is_pointer=True)])
        out = b.param(0)
        # long chain of single-use temporaries: live set stays small
        v = b.tid_x()
        for _ in range(50):
            v = b.add(v, 1)
        b.st_global(b.addr(out, v, 4), v, DType.S32)
        kernel = b.build()
        assert len(kernel.registers()) > 50
        assert allocated_registers(kernel) < 12

    def test_many_simultaneously_live(self):
        b = KernelBuilder("k", params=[Param("p", is_pointer=True)])
        out = b.param(0)
        vals = [b.add(b.tid_x(), k) for k in range(20)]
        acc = vals[0]
        for v in vals[1:]:
            acc = b.add(acc, v)
        b.st_global(b.addr(out, acc, 4), acc, DType.S32)
        assert allocated_registers(b.build()) >= 20

    def test_s64_counts_two_slots(self):
        b1 = KernelBuilder("a", params=[Param("p", is_pointer=True)])
        p = b1.param(0)
        b1.st_global(p, 1, DType.S32)
        narrow = allocated_registers(b1.build())
        assert narrow >= 2  # one live s64 pointer = 2 slots

    def test_loop_extends_liveness(self):
        b = KernelBuilder("k", params=[Param("p", is_pointer=True)])
        out = b.param(0)
        base = b.tid_x()          # defined before the loop
        with b.for_range(0, 4):
            b.add(base, 1)        # used inside: live across back edge
        b.st_global(b.addr(out, base, 4), base, DType.S32)
        assert allocated_registers(b.build()) >= 3

    def test_empty_kernel(self):
        b = KernelBuilder("empty")
        assert allocated_registers(b.build()) == 1

    def test_predicates_free(self):
        from repro.isa import CmpOp
        b = KernelBuilder("preds", params=[Param("p", is_pointer=True)])
        out = b.param(0)
        t = b.tid_x()
        for k in range(10):
            b.setp(CmpOp.LT, t, k)
        b.st_global(b.addr(out, t, 4), t, DType.S32)
        assert allocated_registers(b.build()) < 10


class TestCache:
    def cfg(self, size=1024, line=128, ways=2):
        return CacheConfig(size, line, ways)

    def test_miss_then_hit(self):
        cache = Cache(self.cfg())
        assert not cache.access(0)
        assert cache.access(0)

    def test_lru_eviction(self):
        cache = Cache(self.cfg(size=256, line=128, ways=1))  # 2 sets
        a, b = 0, 256  # same set (stride = line * num_sets)
        cache.access(a)
        cache.access(b)  # evicts a
        assert not cache.access(a)

    def test_lru_order_updated_on_hit(self):
        cache = Cache(self.cfg(size=512, line=128, ways=2))  # 2 sets
        s = 128 * 2  # set stride
        cache.access(0)
        cache.access(s)      # same set, way 2
        cache.access(0)      # refresh 0
        cache.access(2 * s)  # evicts s (LRU), not 0
        assert cache.access(0)
        assert not cache.access(s)

    def test_no_allocate_mode(self):
        cache = Cache(self.cfg())
        cache.access(0, allocate=False)
        assert not cache.access(0, allocate=False)

    def test_stats_merge(self):
        a = CacheStats(accesses=10, hits=4)
        b = CacheStats(accesses=5, hits=5)
        a.merge(b)
        assert a.accesses == 15
        assert a.hits == 9
        assert a.misses == 6

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    @settings(max_examples=30)
    def test_hit_rate_bounded(self, lines):
        cache = Cache(self.cfg())
        for line in lines:
            cache.access(line * 128)
        assert 0.0 <= cache.stats.hit_rate <= 1.0
        assert cache.stats.accesses == len(lines)


class TestMemoryHierarchy:
    def make(self):
        lat = LatencyConfig()
        return MemoryHierarchy(
            Cache(CacheConfig(1024, 128, 2)),
            Cache(CacheConfig(4096, 128, 4)),
            lat,
        ), lat

    def test_cold_access_pays_dram(self):
        h, lat = self.make()
        res = h.access((0,))
        assert res.latency == lat.dram
        assert res.dram_accesses == 1

    def test_warm_access_hits_l1(self):
        h, lat = self.make()
        h.access((0,))
        res = h.access((0,))
        assert res.latency == lat.l1_hit
        assert res.l1_hits == 1

    def test_l2_hit_after_l1_eviction(self):
        h, lat = self.make()
        # fill L1 set: lines mapping to set 0 of a 4-set, 2-way L1
        set_stride = 128 * 4
        h.access((0,))
        h.access((set_stride,))
        h.access((2 * set_stride,))  # evicts line 0 from L1
        res = h.access((0,))
        assert res.latency == lat.l2_hit
        assert res.l2_hits == 1

    def test_store_does_not_allocate_l1(self):
        h, lat = self.make()
        h.access((0,), is_store=True)
        res = h.access((0,))
        assert res.latency == lat.l2_hit  # L2 allocated, L1 did not

    def test_multi_line_latency_is_worst_case(self):
        h, lat = self.make()
        h.access((0,))  # line 0 now warm
        res = h.access((0, 4096 * 8))  # one hit + one cold miss
        assert res.latency == lat.dram
