"""Event-driven timing engine (`sim/timing_fast.py`): bit-identity
against the reference loop under ``TimingSimulator.run_verify``, engine
dispatch through ``R2D2_VERIFY``, the precompilation cache, and the
LRU cache model."""

import gc
import json
import pathlib

import numpy as np
import pytest

from repro import obs
from repro.isa import CmpOp, DType, KernelBuilder, Param
from repro.oracle.diff import _prepare_device
from repro.oracle.kernelgen import build_kernel, generate_spec
from repro.sim import (
    Cache,
    CacheConfig,
    Device,
    IssueMode,
    IssuePolicy,
    MemoryHierarchy,
    TimingResult,
    TimingSimulator,
    timing_differences,
    tiny,
)
from repro.sim.timing_fast import _PREP_CACHE, prep_for

CORPUS = sorted(
    (pathlib.Path(__file__).parent / "corpus").glob("*.json")
)


def _verify(trace, config, policy=None, regs_per_thread=None):
    """Run the verify engine (fast + reference, field-by-field assert)
    and return the reference result it vouched for."""
    return TimingSimulator(
        config, trace, policy=policy, regs_per_thread=regs_per_thread,
    ).run_verify()


def vadd_trace(n=2048, block=128, config=None):
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


def dyntrip_trace(blocks=16, threads=64, mask=31, config=None):
    """Divergent kernel: per-lane data-dependent trip counts."""
    dev = Device(config or tiny())
    b = KernelBuilder(
        "dyntrip",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    v = b.ld_global(b.addr(a_p, i, 4), DType.S32)
    n = b.and_(v, mask)
    acc = b.mov(0)
    with b.for_range(0, n) as counter:
        b.add_to(acc, acc, counter)
    b.st_global(b.addr(c_p, i, 4), acc, DType.S32)
    total = blocks * threads
    rng = np.random.default_rng(11)
    da = dev.upload(rng.integers(1, 256, total).astype(np.int32))
    dc = dev.alloc(4 * total)
    return dev.launch(b.build(), blocks, threads, (da, dc))


def barrier_trace(config=None):
    dev = Device(config or tiny())
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
    d = dev.alloc(4 * 1024)
    return dev.launch(b.build(), 4, 256, (d,))


class TestVerifyEquivalence:
    """The whole class is one property: the event-driven engine is
    bit-identical to the reference on every trace we can throw at it
    (verify mode raises ``TimingVerifyMismatch`` otherwise)."""

    @pytest.mark.parametrize("scheduler", ["gto", "rr"])
    def test_divergent_kernel(self, scheduler):
        cfg = tiny().with_scheduler(scheduler)
        res = _verify(dyntrip_trace(config=cfg), cfg)
        assert res.cycles > 0

    @pytest.mark.parametrize("scheduler", ["gto", "rr"])
    @pytest.mark.parametrize("sms", [1, 2, 4])
    def test_multi_sm(self, scheduler, sms):
        cfg = tiny().with_sms(sms).with_scheduler(scheduler)
        res = _verify(dyntrip_trace(config=cfg), cfg)
        assert res.sms_used <= sms

    def test_barrier_kernel(self):
        cfg = tiny()
        res = _verify(barrier_trace(config=cfg), cfg)
        assert res.issued_total > 0

    def test_single_warp_burst_heavy(self):
        # One warp per block: long solo stretches exercise the
        # closed-form burst path on both schedulers.
        for scheduler in ("gto", "rr"):
            cfg = tiny().with_scheduler(scheduler)
            _verify(
                dyntrip_trace(
                    blocks=6, threads=32, mask=255, config=cfg
                ),
                cfg,
            )

    def test_skip_mode_policy(self):
        trace = vadd_trace()

        class SkipArith(IssuePolicy):
            def plan(self, trace):
                instrs = trace.kernel.instructions
                modes, extra = super().plan(trace)
                arith = np.array([
                    not i.is_memory and not i.is_control for i in instrs
                ])
                modes[arith[trace.cols.pc]] = IssueMode.SKIP
                return modes, extra

        res = _verify(trace, tiny(), policy=SkipArith())
        assert res.skipped > 0

    def test_scalar_mode_policy(self):
        trace = vadd_trace()

        class ScalarArith(IssuePolicy):
            def plan(self, trace):
                instrs = trace.kernel.instructions
                modes, extra = super().plan(trace)
                arith = np.array([
                    not i.is_memory and not i.is_control for i in instrs
                ])
                modes[arith[trace.cols.pc]] = IssueMode.SCALAR
                return modes, extra

        for scheduler in ("gto", "rr"):
            cfg = tiny().with_scheduler(scheduler)
            res = _verify(trace, cfg, policy=ScalarArith())
            assert res.issued_scalar > 0

    @pytest.mark.parametrize("scheduler", ["gto", "rr"])
    def test_inline_scalar_and_skip_policy(self, scheduler):
        # DARSIE+Scalar's modes on a trace whose SMs clone: arithmetic
        # rows issue SCALAR_INLINE, and leading, interior and
        # whole-warp skip runs surround them.
        cfg = tiny().with_scheduler(scheduler)
        trace = vadd_trace(config=cfg)

        class InlineSkip(IssuePolicy):
            def plan(self, trace):
                instrs = trace.kernel.instructions
                modes, extra = super().plan(trace)
                arith = np.array([
                    not i.is_memory and not i.is_control for i in instrs
                ])
                modes[arith[trace.cols.pc]] = IssueMode.SCALAR_INLINE
                for block in trace.blocks:
                    for w in block.warps:
                        if w.warp_in_block == 3:
                            modes[w.start:w.stop] = IssueMode.SKIP
                        else:
                            modes[w.start:w.start + 2] = IssueMode.SKIP
                            modes[w.start + 4:w.start + 6] = IssueMode.SKIP
                return modes, extra

        obs.reset()
        res = _verify(trace, cfg, policy=InlineSkip())
        assert res.issued_scalar > 0 and res.skipped > 0
        assert obs.counter_value("dedup.sms.cloned", kernel="vadd") > 0

    def test_extra_latency_and_prologue_policy(self):
        trace = vadd_trace()

        class Extra(IssuePolicy):
            def plan(self, trace):
                modes, extra = super().plan(trace)
                extra[:] = 7
                return modes, extra

            def sm_prologue_cycles(self, sm_id):
                return 40 + sm_id

            def block_prologue_cycles(self, block):
                return 5

        res = _verify(trace, tiny(), policy=Extra())
        assert res.prologue_cycles > 0

    def test_register_pressure_residency(self):
        cfg = tiny()
        _verify(dyntrip_trace(config=cfg), cfg, regs_per_thread=200)

    @pytest.mark.parametrize(
        "path", CORPUS, ids=[p.stem for p in CORPUS]
    )
    @pytest.mark.parametrize("scheduler", ["gto", "rr"])
    def test_corpus_specs(self, path, scheduler):
        doc = json.loads(path.read_text())
        if doc.get("expect"):
            pytest.skip("generator-bug case: spec crashes by design")
        spec = doc["spec"]
        kernel = build_kernel(spec)
        cfg = tiny().with_scheduler(scheduler)
        dev, args, _ = _prepare_device(spec, cfg)
        trace = dev.launch(
            kernel, tuple(spec["grid"]), tuple(spec["block"]), args
        )
        _verify(trace, cfg)

    @pytest.mark.parametrize("index", range(6))
    def test_fuzzed_divergent_specs(self, index):
        spec = generate_spec(5, index, divergent_bias=0.9)
        kernel = build_kernel(spec)
        scheduler = "rr" if index % 2 else "gto"
        cfg = tiny().with_scheduler(scheduler)
        dev, args, _ = _prepare_device(spec, cfg)
        trace = dev.launch(
            kernel, tuple(spec["grid"]), tuple(spec["block"]), args
        )
        _verify(trace, cfg)


class TestEngineDispatch:
    def test_default_is_fast(self, monkeypatch):
        monkeypatch.delenv("R2D2_VERIFY", raising=False)
        trace = vadd_trace()
        obs.reset()
        TimingSimulator(tiny(), trace).run()
        assert obs.counter_value(
            "timing.engine", kernel="vadd", engine="fast"
        ) == 1
        assert obs.counter_value(
            "timing.engine", kernel="vadd", engine="verify"
        ) == 0

    def test_explicit_invalid_value_raises(self, monkeypatch):
        trace = vadd_trace()
        monkeypatch.setenv("R2D2_VERIFY", "verify")
        with pytest.raises(ValueError, match="R2D2_VERIFY"):
            TimingSimulator(tiny(), trace).run()

    def test_fast_engine_counted(self, monkeypatch):
        # run_fast ignores the switch.
        monkeypatch.setenv("R2D2_VERIFY", "1")
        obs.reset()
        trace = vadd_trace()
        TimingSimulator(tiny(), trace).run_fast()
        assert (
            obs.counter_value(
                "timing.engine", kernel="vadd", engine="fast"
            )
            == 1
        )

    def test_verify_covers_cloning(self, monkeypatch):
        # Verify checks the production path, SM cloning included.
        monkeypatch.setenv("R2D2_VERIFY", "1")
        obs.reset()
        trace = vadd_trace()
        assert len(trace.blocks) > tiny().num_sms
        TimingSimulator(tiny(), trace).run()
        assert (
            obs.counter_value(
                "timing.engine", kernel="vadd", engine="verify"
            )
            == 1
        )
        assert obs.counter_value("dedup.sms.cloned", kernel="vadd") > 0

    def test_differences_cover_energy_key_order(self):
        # EnergyBreakdown.total() sums in key order, so equal values in
        # another order are a difference.
        a, b = TimingResult(), TimingResult()
        a.energy.values.update(alu=1.0, rf=2.0)
        b.energy.values.update(rf=2.0, alu=1.0)
        assert timing_differences(a, a) == []
        assert timing_differences(a, b) == [
            "energy key order: fast ['alu', 'rf'] != reference ['rf', 'alu']"
        ]

    def test_lat_cache_removed(self):
        sim = TimingSimulator(tiny(), vadd_trace())
        assert not hasattr(sim, "_lat_cache")


class TestPrepCache:
    def test_same_trace_config_shares_prep(self):
        cfg = tiny()
        trace = vadd_trace(config=cfg)
        sim1 = TimingSimulator(cfg, trace)
        sim2 = TimingSimulator(cfg, trace)
        assert prep_for(sim1) is prep_for(sim2)

    def test_distinct_config_object_rebuilds(self):
        trace = vadd_trace()
        p1 = prep_for(TimingSimulator(tiny(), trace))
        p2 = prep_for(TimingSimulator(tiny(), trace))
        assert p1 is not p2

    def test_custom_policy_identity_keyed(self):
        cfg = tiny()
        trace = vadd_trace(config=cfg)

        class Extra(IssuePolicy):
            def plan(self, trace):
                modes, extra = super().plan(trace)
                extra[:] = 3
                return modes, extra

        pol = Extra()
        s1 = TimingSimulator(cfg, trace, policy=pol)
        s2 = TimingSimulator(cfg, trace, policy=pol)
        s3 = TimingSimulator(cfg, trace, policy=Extra())
        assert prep_for(s1) is prep_for(s2)
        assert prep_for(s3) is not prep_for(s1)

    def test_cache_evicted_when_trace_collected(self):
        cfg = tiny()
        trace = vadd_trace(config=cfg)
        key = id(trace)
        prep_for(TimingSimulator(cfg, trace))
        assert key in _PREP_CACHE
        del trace
        gc.collect()
        assert key not in _PREP_CACHE


class _ModelLRU:
    """Set-associative LRU oracle for :class:`Cache`: it picks victims
    by last-touch tick, independently of dict order."""

    def __init__(self, cache):
        self.line_bytes = cache.config.line_bytes
        self.num_sets = cache.num_sets
        self.ways = cache.ways
        self.sets = [dict() for _ in range(self.num_sets)]
        self.accesses = 0
        self.hits = 0
        self.tick = 0

    def access(self, line_addr, allocate=True):
        self.accesses += 1
        self.tick += 1
        index = (line_addr // self.line_bytes) % self.num_sets
        s = self.sets[index]
        if line_addr in s:
            self.hits += 1
            s[line_addr] = self.tick
            return True
        if allocate:
            if len(s) >= self.ways:
                victim = min(s, key=s.get)
                del s[victim]
            s[line_addr] = self.tick
        return False


class TestCacheModel:
    def test_matches_lru_model_on_random_stream(self):
        cache = Cache(
            CacheConfig(size_bytes=4096, line_bytes=64, ways=4)
        )
        model = _ModelLRU(cache)
        rng = np.random.default_rng(3)
        addrs = rng.integers(0, 64, 4000)
        allocs = rng.integers(0, 4, 4000)
        for addr, alloc in zip(addrs, allocs):
            line = int(addr) * cache.config.line_bytes
            allocate = bool(alloc)  # mix of stores-without-allocate
            assert cache.access(line, allocate=allocate) == model.access(
                line, allocate=allocate
            ), line
        assert cache.stats.accesses == model.accesses
        assert cache.stats.hits == model.hits

    def test_snapshot_restore_roundtrip(self):
        cfg = tiny()
        cache = Cache(cfg.l2)
        rng = np.random.default_rng(4)
        for addr in rng.integers(0, 512, 500):
            cache.access(int(addr) * 64)
        snap = cache.snapshot()
        tail = [int(a) * 64 for a in rng.integers(0, 512, 200)]
        baseline = [cache.access(a) for a in tail]
        stats_after = (cache.stats.accesses, cache.stats.hits)
        for _ in range(2):  # one snapshot restores more than once
            cache.restore(snap)
            replay = [cache.access(a) for a in tail]
            assert replay == baseline
            assert (cache.stats.accesses, cache.stats.hits) == stats_after

    def test_partial_snapshot_restores_touched_sets_only(self):
        """A snapshot of the sets some lines map to restores their LRU
        order and the stats exactly, and leaves every other set as it
        is, even one changed since the snapshot."""
        cache = Cache(tiny().l2)
        lb = cache.config.line_bytes
        rng = np.random.default_rng(6)
        for addr in rng.integers(0, 4096, 3000):
            cache.access(int(addr) * lb)
        touched = [int(a) * lb for a in rng.integers(0, 4096, 40)]
        sets = {cache.set_of(a) for a in touched}
        assert 0 < len(sets) < cache.num_sets
        other = min(set(range(cache.num_sets)) - sets)
        fresh = (other + 1000 * cache.num_sets) * lb
        order = [list(lines) for lines in cache._sets]
        stats = (cache.stats.accesses, cache.stats.hits)
        snap = cache.snapshot(sorted(sets))
        for _ in range(2):  # one snapshot restores more than once
            for a in touched[::-1]:
                cache.access(a)
            assert any(list(cache._sets[i]) != order[i] for i in sets)
            cache.access(fresh)
            kept = cache._sets[other]
            cache.restore(snap)
            assert (cache.stats.accesses, cache.stats.hits) == stats
            for i in sets:
                assert list(cache._sets[i]) == order[i]
            assert cache._sets[other] is kept and fresh in kept
            for i in set(range(cache.num_sets)) - sets - {other}:
                assert list(cache._sets[i]) == order[i]

    def test_hierarchy_matches_lru_models(self):
        lat = tiny().latency
        hier = MemoryHierarchy(
            Cache(CacheConfig(size_bytes=4096, line_bytes=64, ways=4)),
            Cache(CacheConfig(size_bytes=16384, line_bytes=64, ways=8)),
            lat,
        )
        model = MemoryHierarchy(
            _ModelLRU(hier.l1), _ModelLRU(hier.l2), lat
        )
        rng = np.random.default_rng(5)
        base = 0
        totals = np.zeros(3, dtype=np.int64)
        for _ in range(1500):
            base = (base + int(rng.integers(-24, 25))) % 448
            n = int(rng.integers(1, 33))
            # coalesce() hands the hierarchy distinct lines
            lines = [
                (base + int(k)) * 64
                for k in rng.choice(64, n, replace=False)
            ]
            store = bool(rng.integers(0, 4) == 0)
            got = hier.access(lines, is_store=store)
            assert got == model.access(lines, is_store=store)
            totals += (got.l1_hits, got.l2_hits, got.dram_accesses)
        assert (totals > 0).all(), totals
        for cache, ref in ((hier.l1, model.l1), (hier.l2, model.l2)):
            assert cache.stats.accesses == ref.accesses
            assert cache.stats.hits == ref.hits

    @pytest.mark.parametrize("engine", ["run_fast", "run_reference"])
    def test_result_l2_fixed_when_replay_ends(self, engine):
        """A replay reports the shared L2's stats as they stood when it
        ended; a later replay on the same L2 leaves them alone."""
        cfg = tiny()
        l2 = Cache(cfg.l2)
        first = getattr(
            TimingSimulator(cfg, vadd_trace(config=cfg), l2=l2), engine
        )()
        seen = (l2.stats.accesses, l2.stats.hits)
        assert (first.l2.accesses, first.l2.hits) == seen
        getattr(
            TimingSimulator(cfg, dyntrip_trace(config=cfg), l2=l2), engine
        )()
        assert l2.stats.accesses > seen[0]
        assert (first.l2.accesses, first.l2.hits) == seen
