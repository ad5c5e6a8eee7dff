"""Megawarp vector engine: bit-identity with the serial interpreter on
regular, divergent, irregular and R2D2-transformed kernels,
hazard-driven fallback, the allocated-prefix fork, ``run_verify``, and
report plumbing (see docs/PERFORMANCE.md)."""

import numpy as np
import pytest

from repro import obs
from repro.arch.r2d2 import R2D2Arch
from repro.harness.report import format_fallbacks, obs_kernel_table
from repro.isa import AtomOp, CmpOp, DType, KernelBuilder, Param
from repro.isa.kernel import Dim3, LaunchConfig
from repro.oracle.diff import check_spec
from repro.oracle.kernelgen import KernelGen
from repro.sim import (
    Device,
    FunctionalExecutor,
    TimingSimulator,
    timing_differences,
    tiny,
)
from repro.sim.gpu import as_dim3
from repro.sim import vector as vector_engine
from repro.sim.timing_fast import prep_for
from repro.sim.trace import trace_differences
from repro.sim.memory import MemoryError_
from repro.workloads import factory as workload_factory
import random


# ----------------------------------------------------------------------
# Kernel factories
# ----------------------------------------------------------------------
def _vadd_kernel():
    b = KernelBuilder(
        "vadd",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True),
                Param("n", DType.S32)],
    )
    a_p, c_p, n_p = b.param(0), b.param(1), b.param(2)
    i = b.global_tid_x()
    ok = b.setp(CmpOp.LT, i, n_p)
    with b.if_then(ok):
        v = b.ld_global(b.addr(a_p, i, 4), DType.S32)
        b.st_global(b.addr(c_p, i, 4), b.add(v, 7), DType.S32)
    return b.build()


def _collatz_kernel():
    """Data-dependent while loop with an if/else inside — maximally
    divergent trip counts and per-lane control flow."""
    b = KernelBuilder(
        "collatz",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    v = b.ld_global(b.addr(a_p, i, 4), DType.S32)
    steps = b.mov(0)
    with b.while_loop() as loop:
        done = b.setp(CmpOp.LE, v, 1)
        loop.break_if(done)
        odd = b.setp(CmpOp.EQ, b.and_(v, 1), 1)
        with b.if_else(odd) as (then, otherwise):
            with then:
                b.mov_to(v, b.add(b.mul(v, 3), 1))
            with otherwise:
                b.mov_to(v, b.shr(v, 1))
        b.add_to(steps, steps, 1)
    b.st_global(b.addr(c_p, i, 4), steps, DType.S32)
    return b.build()


def _dyntrip_kernel():
    """Loop whose trip count is a masked loaded value: non-uniform
    across lanes (the shape kernelgen's ``dynloop`` op generates)."""
    b = KernelBuilder(
        "dyntrip",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    v = b.ld_global(b.addr(a_p, i, 4), DType.S32)
    n = b.and_(v, 7)
    acc = b.mov(0)
    with b.for_range(0, n) as k:
        b.add_to(acc, acc, k)
    b.st_global(b.addr(c_p, i, 4), acc, DType.S32)
    return b.build()


def _smem_kernel(threads):
    b = KernelBuilder(
        "smem",
        params=[Param("x", is_pointer=True), Param("o", is_pointer=True),
                Param("n", DType.S32)],
        shared_mem_bytes=4 * threads,
    )
    x_p, o_p, n_p = b.param(0), b.param(1), b.param(2)
    i = b.global_tid_x()
    t = b.tid_x()
    ok = b.setp(CmpOp.LT, i, n_p)
    with b.if_then(ok):
        v = b.ld_global(b.addr(x_p, i, 4), DType.S32)
        b.st_shared(b.shl(t, 2, DType.S64), v, DType.S32)
    b.bar()
    with b.if_then(ok):
        rev = b.shl(b.sub(threads - 1, t, DType.S64), 2, DType.S64)
        b.st_global(b.addr(o_p, i, 4), b.ld_shared(rev, DType.S32),
                    DType.S32)
    return b.build()


def _atomic_counter_kernel():
    """All lanes of all warps atomically bump one word; the returned
    old values depend on the exact lane order, which must match the
    serial schedule bit-for-bit."""
    b = KernelBuilder(
        "atomcnt",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    old = b.atom_global(AtomOp.ADD, b.addr(c_p, 0, 4, disp=0), 1,
                        DType.S32)
    b.st_global(b.addr(c_p, b.add(i, 1), 4), old, DType.S32)
    return b.build()


def _rw_conflict_kernel():
    """Every thread writes its own slot, then reads slot 0 (written by
    another warp at a different step): a true cross-warp read/write
    hazard the megawarp cannot reorder safely."""
    b = KernelBuilder(
        "rwconf",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    b.st_global(b.addr(c_p, i, 4), i, DType.S32)
    v = b.ld_global(b.addr(c_p, 0, 4, disp=0), DType.S32)
    b.st_global(b.addr(a_p, i, 4), b.add(v, i), DType.S32)
    return b.build()


def _neighbour_warp_kernel():
    """Store ``c[tid]``, then load ``c[(tid + 32) % 128]`` — the slot the
    next warp of the same block stored, with no barrier in between."""
    b = KernelBuilder(
        "nbrwarp",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    t = b.tid_x()
    b.st_global(b.addr(c_p, t, 4), t, DType.S32)
    nbr = b.rem(b.add(t, 32), 128)
    v = b.ld_global(b.addr(c_p, nbr, 4), DType.S32)
    b.st_global(b.addr(a_p, t, 4), v, DType.S32)
    return b.build()


def _launch(blocks=8, threads=128, args=()):
    return LaunchConfig(grid=Dim3(blocks), block=Dim3(threads), args=args)


def _execute(kernel, launch, memory, engine):
    """One launch on ``FunctionalExecutor.run_<engine>``: ``fast`` (the
    megawarp with its serial fallback), ``reference`` (serial only) or
    ``verify`` (both, compared)."""
    executor = FunctionalExecutor(kernel, launch, memory)
    return getattr(executor, f"run_{engine}")()


def _run(kernel, engine, blocks=8, threads=128, n=1000, fill=None):
    """Execute on a fresh device with an int32 input buffer and an
    output buffer; returns (trace, memory snapshot)."""
    dev = Device(tiny())
    rng = np.random.default_rng(7)
    total = blocks * threads
    data = (fill if fill is not None
            else rng.integers(1, 60, total).astype(np.int32))
    p0 = dev.upload(data)
    p1 = dev.alloc(4 * (total + 8))
    args = (p0, p1, n)[: len(kernel.params)]
    launch = _launch(blocks, threads, args)
    trace = _execute(kernel, launch, dev.memory, engine)
    return trace, dev.memory.buf.copy()


# ----------------------------------------------------------------------
# Commit path: bit-identical memory and traces
# ----------------------------------------------------------------------
class TestCommitPath:
    @pytest.mark.parametrize(
        "factory",
        [_vadd_kernel, _collatz_kernel, _dyntrip_kernel],
        ids=["regular", "collatz", "dyntrip"],
    )
    def test_memory_identical_to_serial(self, factory):
        kernel = factory()
        _, serial = _run(kernel, "reference")
        trace, vectored = _run(kernel, "fast")
        assert np.array_equal(serial, vectored)
        report = trace.vector
        assert report.engaged and not report.bailed
        assert report.warps_vectorized == report.warps_total

    def test_partial_warp_block(self):
        # 48 threads/block: the second warp of each block is half full.
        kernel = _collatz_kernel()
        _, serial = _run(kernel, "reference", threads=48)
        trace, vectored = _run(kernel, "fast", threads=48)
        assert np.array_equal(serial, vectored)
        assert trace.vector.engaged

    def test_launch_too_small_falls_back(self):
        trace, _ = _run(_collatz_kernel(), "fast", blocks=2, threads=32)
        assert trace.vector.reason == "launch-too-small"

    def test_shared_memory_barrier_commits(self):
        kernel = _smem_kernel(128)
        _, serial = _run(kernel, "reference")
        trace, vectored = _run(kernel, "fast")
        assert np.array_equal(serial, vectored)
        assert trace.vector.engaged and not trace.vector.bailed

    def test_megawarp_columns_match_serial(self):
        serial, _ = _run(_collatz_kernel(), "reference")
        trace, _ = _run(_collatz_kernel(), "fast")
        assert trace.vector.engaged
        ranges = [
            [(w.warp_in_block, w.start, w.stop) for w in b.warps]
            for b in trace.blocks
        ]
        assert ranges == [
            [(w.warp_in_block, w.start, w.stop) for w in b.warps]
            for b in serial.blocks
        ]
        for name in ("pc", "active", "uniform", "affine", "hashed",
                     "src_hash", "shared", "bank_conflict", "line_off",
                     "lines"):
            got = getattr(trace.cols, name)
            want = getattr(serial.cols, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    def test_prep_groups_warps_by_column_keys(self):
        trace, _ = _run(_vadd_kernel(), "fast")
        prep = prep_for(TimingSimulator(tiny(), trace))
        warps = [w for b in trace.blocks for w in b.warps]
        # Identical key rows share one group: a regular kernel has far
        # fewer signatures than warps.
        assert prep.n_groups < len(warps)
        cols = trace.cols
        key = np.stack([cols.pc, cols.active, cols.n_lines], axis=1)
        groups = [g for b in trace.blocks for g in prep.block_info[id(b)][1]]
        for w, g in zip(warps, groups):
            assert g.n == len(w)
            assert g.n_lines == cols.n_lines[w.start:w.stop].tolist()
        by_key = {}
        for w, g in zip(warps, groups):
            by_key.setdefault(key[w.start:w.stop].tobytes(), set()).add(
                id(g)
            )
        assert all(len(ids) == 1 for ids in by_key.values())

    def test_timing_replay_agrees_on_megawarp_trace(self):
        trace, _ = _run(_vadd_kernel(), "fast")
        fast = TimingSimulator(tiny(), trace).run_fast()
        ref = TimingSimulator(tiny(), trace).run_reference()
        assert timing_differences(fast, ref) == []

    def test_report_to_dict(self):
        trace, _ = _run(_collatz_kernel(), "fast")
        d = trace.vector.to_dict()
        assert d["kernel"] == "collatz" and d["engaged"] is True
        assert d["warps_vectorized"] == d["warps_total"] > 0


# ----------------------------------------------------------------------
# Hazard net: fall back, never corrupt
# ----------------------------------------------------------------------
class TestHazardFallback:
    @staticmethod
    def _assert_bails(kernel, blocks, reason):
        _, serial = _run(kernel, "reference", blocks=blocks)
        trace, vectored = _run(kernel, "fast", blocks=blocks)
        report = trace.vector
        assert report.bailed
        assert report.reason == reason
        # the serial rerun after the bail produced the exact serial
        # result
        assert np.array_equal(serial, vectored)

    def test_cross_warp_rw_conflict_bails(self):
        # block 0 stores word 0 and every block loads it
        self._assert_bails(
            _rw_conflict_kernel(), 8, "cross-block-memory-conflict"
        )

    def test_same_block_neighbour_warp_conflict_bails(self):
        # one block: warp w loads what warp w+1 stored, no barrier
        self._assert_bails(
            _neighbour_warp_kernel(), 1, "cross-warp-memory-conflict"
        )

    def test_bail_counts_in_obs(self):
        obs.reset()
        _run(_rw_conflict_kernel(), "fast")
        counters = obs.snapshot_and_reset()["counters"]
        assert any(
            key.startswith("vector.bailed") and "rwconf" in key
            for key in counters
        )


def _check_log_per_word(engine, log, label):
    """Reference hazard check: the suspect words walked one at a time,
    each epoch of a word tested on its own."""
    words, gw, blk, ep = (np.concatenate([t[i] for t in log])
                          for i in range(4))
    sid = np.concatenate([np.full(t[0].size, t[4]) for t in log])
    wr = np.concatenate([np.full(t[0].size, t[5]) for t in log])
    order = np.argsort(words, kind="stable")
    words, gw, blk, ep, sid, wr = (
        a[order] for a in (words, gw, blk, ep, sid, wr)
    )
    for word in np.unique(words):
        run = words == word
        g, w, s = gw[run], wr[run], sid[run]
        if len(set(g)) == 1 or not w.any() or (
            w.all() and len(set(s)) == 1
        ):
            continue
        if len(set(blk[run])) > 1:
            engine._hazard_bail(label, word, s, "cross-block")
        for e in np.unique(ep[run]):
            m = ep[run] == e
            if len(set(g[m])) > 1 and w[m].any() and not (
                w[m].all() and len(set(s[m])) == 1
            ):
                engine._hazard_bail(label, word, s, "cross-warp")


def test_grouped_hazard_check_matches_per_word_reference():
    """Random logs over few words, warps, blocks and epochs: the grouped
    check gives the reference's verdict — commit, or the same slug and
    detail."""
    engine = vector_engine._MegaWarpEngine.__new__(
        vector_engine._MegaWarpEngine
    )
    engine._step_pcs = list(range(100, 140))

    def verdict(check, log):
        try:
            check(engine, log, "shared")
        except vector_engine._VBail as exc:
            return exc.reason, str(exc)
        return None

    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(600):
        log = []
        for step in range(int(rng.integers(1, 8))):
            n = int(rng.integers(1, 6))
            blk = rng.integers(0, 2, n)
            log.append((
                rng.integers(0, 6, n), blk * 4 + rng.integers(0, 4, n),
                blk, rng.integers(0, 3, n), step, bool(rng.random() < 0.5),
            ))
        want = verdict(_check_log_per_word, log)
        assert verdict(
            vector_engine._MegaWarpEngine._check_log, log
        ) == want
        seen.add(want[0] if want else None)
    assert seen == {
        None, "cross-block-memory-conflict", "cross-warp-memory-conflict",
    }


# ----------------------------------------------------------------------
# run_verify: both engines, compared
# ----------------------------------------------------------------------
class TestVerifyMode:
    @pytest.mark.parametrize(
        "factory",
        [_vadd_kernel, _collatz_kernel, _dyntrip_kernel],
        ids=["regular", "collatz", "dyntrip"],
    )
    def test_divergent_kernels_verify(self, factory):
        trace, _ = _run(factory(), "verify")
        report = trace.vector
        assert report.engaged and report.verified

    def test_shared_memory_barrier_verifies(self):
        trace, _ = _run(_smem_kernel(128), "verify")
        assert trace.vector.verified

    def test_atomic_lane_order_verifies(self):
        trace, _ = _run(_atomic_counter_kernel(), "verify")
        assert trace.vector.verified

    def test_single_warp_verifies(self):
        # run_verify drops the engagement floor to one warp
        trace, _ = _run(_collatz_kernel(), "verify", blocks=1, threads=32)
        assert trace.vector.engaged and trace.vector.verified

    def test_partial_tail_verifies(self):
        trace, _ = _run(_vadd_kernel(), "verify", n=1000 - 17)
        assert trace.vector.verified

    def test_trace_diffs_name_record_and_column(self):
        trace, _ = _run(_vadd_kernel(), "reference")
        cols = trace.cols
        row = int(np.flatnonzero(cols.n_lines)[3])
        warp = next(
            w for b in trace.blocks for w in b.warps
            if w.start <= row < w.stop
        )
        lines = cols.take(np.arange(len(cols)))
        lines.lines[lines.line_off[row]] += 128
        hashes = cols.take(np.arange(len(cols)))
        hashes.src_hash[warp.start] ^= 1
        for bad, field, idx in ((lines, "lines", row - warp.start),
                                (hashes, "src_hash", 0)):
            diffs = trace_differences(
                trace.blocks, bad, trace.blocks, cols
            )
            assert len(diffs) == 1
            assert diffs[0].startswith(
                f"block {warp.block_linear_id} warp {warp.warp_in_block} "
                f"record {idx} ({field})"
            )
        assert trace_differences(
            trace.blocks, cols, trace.blocks, cols
        ) == []

    def test_chunked_execution_verifies(self, monkeypatch):
        # force multiple chunks so chunk boundaries are exercised
        monkeypatch.setattr(vector_engine, "DEFAULT_CHUNK_WARPS", 8)
        trace, _ = _run(_collatz_kernel(), "verify")
        assert trace.vector.verified

    def test_divergence_biased_specs_pass_oracle(self):
        """Generated divergent specs run the full oracle, whose vector
        section verifies and commit-compares the megawarp."""
        for k in range(6):
            gen = KernelGen(
                random.Random(f"vectest:{k}"), divergent_bias=1.0
            )
            spec = gen.generate(f"vd{k}")
            report = check_spec(spec)
            assert report.ok, (
                f"{spec['name']}: "
                + "; ".join(str(v) for v in report.violations)
            )


# ----------------------------------------------------------------------
# Prefix fork: only the allocated part of device memory is speculated on
# ----------------------------------------------------------------------
class TestPrefixFork:
    @staticmethod
    def _run_past_high_water(engine):
        """vadd whose output pointer lies past every allocation but
        inside the device: legal for the serial interpreter."""
        dev = Device(tiny())
        src = dev.upload(np.arange(1024, dtype=np.int32))
        past = dev.memory._next + 4096
        launch = _launch(8, 128, (src, past, 1000))
        trace = _execute(_vadd_kernel(), launch, dev.memory, engine)
        return trace, dev.memory.buf.copy(), past

    def test_store_past_high_water_bails_to_serial(self):
        _, serial, past = self._run_past_high_water("reference")
        trace, vectored, _ = self._run_past_high_water("fast")
        assert trace.vector.bailed
        assert trace.vector.reason == "memory-error"
        assert np.array_equal(serial, vectored)
        stored = serial[past:past + 4 * 1000].view(np.int32)
        assert np.array_equal(stored, np.arange(1000) + 7)

    def test_fork_covers_the_allocated_prefix(self):
        dev = Device(tiny())
        dev.upload(np.arange(100, dtype=np.int32))
        fork = dev.memory.fork()
        assert fork.size == dev.memory._next
        assert np.array_equal(fork.buf, dev.memory.buf[:fork.size])
        with pytest.raises(MemoryError_):
            fork.gather(np.array([fork.size], dtype=np.int64), DType.S32)

    def test_commit_leaves_bytes_past_high_water_zero(self):
        dev = Device(tiny())
        src = dev.upload(np.arange(1024, dtype=np.int32))
        out = dev.alloc(4 * 1024)
        launch = _launch(8, 128, (src, out, 1000))
        trace = _execute(_vadd_kernel(), launch, dev.memory, "fast")
        assert trace.vector.engaged and not trace.vector.bailed
        assert dev.download(out, 1000, np.int32).tolist() == [
            v + 7 for v in range(1000)
        ]
        assert not dev.memory.buf[dev.memory._next:].any()


# ----------------------------------------------------------------------
# R2D2-transformed launches
# ----------------------------------------------------------------------
def _run_r2d2(abbr):
    """Every launch of ``abbr`` at tiny scale through ``R2D2Arch``, as
    the harness runs them; returns the traces and final memory."""
    workload = workload_factory(abbr, "tiny")()
    dev = Device(tiny())
    arch = R2D2Arch()
    stats = arch.make_stats()
    traces = [
        arch.execute_launch(
            dev, s.kernel, s.grid, s.block, s.args, tiny(), stats
        )
        for s in workload.prepare(dev)
    ]
    workload.check(dev)
    return traces, dev.memory.buf.copy()


@pytest.mark.parametrize(
    "abbr",
    ["RED0", "GAS", "STC", "RES", "2MM", "LUD"],
    ids=[
        "RED0-shared-tree-barrier",
        "GAS-linear-ref-without-lr",
        "STC-linear-reg-plus-cr",
        "RES-linear-reg-plus-disp",
        "2MM",
        "LUD",
    ],
)
def test_transformed_launches_verify_and_commit(monkeypatch, abbr):
    """``R2D2_VERIFY=1`` runs every R2D2 launch on both engines (a
    divergence raises VectorMismatch); the committing path then engages
    on every launch big enough and leaves the serial run's memory."""
    monkeypatch.setenv("R2D2_VERIFY", "1")
    traces, serial = _run_r2d2(abbr)
    assert any(t.kernel.name.endswith(".r2d2") for t in traces)
    assert all(t.vector.verified for t in traces)
    monkeypatch.setenv("R2D2_VERIFY", "0")
    traces, vectored = _run_r2d2(abbr)
    assert np.array_equal(serial, vectored)
    big = [
        t.vector for t in traces
        if t.vector.warps_total >= vector_engine.MIN_WARPS
    ]
    assert big and all(r.engaged and not r.bailed for r in big)


def test_transformed_launch_chunked_verifies(monkeypatch):
    """Chunks past the first resolve each %lr's block part from their
    own block ids."""
    monkeypatch.setattr(vector_engine, "DEFAULT_CHUNK_WARPS", 8)
    monkeypatch.setenv("R2D2_VERIFY", "1")
    traces, _ = _run_r2d2("2MM")
    assert all(t.vector.verified for t in traces)


def test_r2d2_launch_records_vector_engage(monkeypatch):
    monkeypatch.setenv("R2D2_VERIFY", "0")
    obs.reset()
    _run_r2d2("RED0")
    decisions = obs.snapshot_and_reset()["decisions"]
    assert any(
        d["engine"] == "vector" and d["decision"] == "engage"
        and d["kernel"] == "reduce0_divergent.r2d2"
        for d in decisions
    )


# ----------------------------------------------------------------------
# Per-device bail memo
# ----------------------------------------------------------------------
class TestBailMemo:
    @staticmethod
    def _twice(kernel, engine):
        """Two launches of ``kernel`` on one device, through
        ``Device.launch`` (``fast``) or the serial interpreter
        (``reference``); returns the traces, the memory and the memo."""
        dev = Device(tiny())
        data = np.random.default_rng(7).integers(1, 60, 1024)
        args = (dev.upload(data.astype(np.int32)), dev.alloc(4 * 1032),
                1000)[:len(kernel.params)]
        launch = _launch(8, 128, args)
        if engine == "fast":
            traces = [dev.launch(kernel, 8, 128, args) for _ in range(2)]
        else:
            traces = [_execute(kernel, launch, dev.memory, engine)
                      for _ in range(2)]
        return traces, dev.memory.buf.copy(), dev.bailed

    def test_conflicting_kernel_skips_after_its_bail(self, monkeypatch):
        monkeypatch.delenv("R2D2_VERIFY", raising=False)
        kernel = _rw_conflict_kernel()
        (first, second), mem, memo = self._twice(kernel, "fast")
        (r1, r2), ref_mem, _ = self._twice(kernel, "reference")
        assert first.vector.bailed
        assert memo == {kernel: first.vector.reason}
        assert first.vector.reason.endswith("memory-conflict")
        report = second.vector
        assert not report.engaged and not report.bailed
        assert (report.reason, report.detail) == (
            "bailed-before", first.vector.reason
        )
        assert second.vector.to_decision().decision == "skip"
        assert np.array_equal(mem, ref_mem)
        for got, want in ((first, r1), (second, r2)):
            assert trace_differences(
                got.blocks, got.cols, want.blocks, want.cols
            ) == []

    def test_engaging_kernel_is_unaffected(self, monkeypatch):
        monkeypatch.delenv("R2D2_VERIFY", raising=False)
        traces, _, memo = self._twice(_vadd_kernel(), "fast")
        assert not memo
        assert all(t.vector.engaged and not t.vector.bailed
                   for t in traces)

    def test_verify_ignores_the_memo(self, monkeypatch):
        monkeypatch.setenv("R2D2_VERIFY", "1")
        traces, _, memo = self._twice(_rw_conflict_kernel(), "fast")
        assert not memo
        assert all(t.vector.bailed for t in traces)


# ----------------------------------------------------------------------
# Irregular workloads (bfs / btree / mummer)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("abbr", ["BFS", "BTR", "MUM"])
def test_irregular_workload_matches_serial(abbr):
    outs = {}
    for engine in ("reference", "fast"):
        workload = workload_factory(abbr)()
        dev = Device(tiny())
        for s in workload.prepare(dev):
            launch = LaunchConfig(
                grid=as_dim3(s.grid), block=as_dim3(s.block),
                args=tuple(s.args),
            )
            _execute(s.kernel, launch, dev.memory, engine)
        workload.check(dev)
        outs[engine] = dev.memory.buf.copy()
    assert np.array_equal(outs["reference"], outs["fast"])


def test_run_workload_reports_vector_decisions():
    from repro.harness.runner import run_workload

    launches = workload_factory("BFS")().prepare(Device(tiny()))
    result = run_workload(
        workload_factory("BFS"), config=tiny(), arch_names=("baseline",),
        jobs=1, cache=False,
    )
    assert len(result.engine_decisions) == len(launches)
    for entry in result.engine_decisions:
        assert entry["engine"] == "vector"
        assert entry["decision"] in ("engage", "skip", "bail")
        if entry["decision"] != "engage":
            assert entry["reason"]


def test_run_workload_reports_r2d2_vector_decisions(monkeypatch):
    """R2D2 derives its traces from the baseline launches, so a default
    run reports only those; under ``R2D2_VERIFY=1`` the transformed
    launches also execute and report their megawarp outcomes."""
    from repro.harness.experiments import _engine_summary
    from repro.harness.runner import run_workload

    launches = workload_factory("RED0", "tiny")().prepare(Device(tiny()))
    n = len(launches)
    for verify, expected in (("0", n), ("1", 2 * n)):
        monkeypatch.setenv("R2D2_VERIFY", verify)
        result = run_workload(
            workload_factory("RED0", "tiny"), config=tiny(),
            arch_names=("baseline", "r2d2"), jobs=1, cache=False,
        )
        decisions = result.engine_decisions
        assert len(decisions) == expected
        baseline, r2d2 = decisions[:n], decisions[n:]
        assert not any(d["kernel"].endswith(".r2d2") for d in baseline)
        assert all(
            d["decision"] == "engage" and d["kernel"].endswith(".r2d2")
            for d in r2d2
        )
        # the reduction ladder's engine cell reads the baseline launch
        assert _engine_summary(decisions) == _engine_summary(baseline)


# ----------------------------------------------------------------------
# Report plumbing (harness fallback column)
# ----------------------------------------------------------------------
class TestReportPlumbing:
    def test_format_fallbacks_orders_and_counts(self):
        out = format_fallbacks(
            {"cross-warp-memory-conflict": 3, "deadlock": 1}
        )
        assert out == "cross-warp-memory-conflict x3, deadlock"
        assert format_fallbacks({}) == ""

    def test_obs_kernel_table_shows_vector_columns(self):
        obs.reset()
        _run(_collatz_kernel(), "fast")
        _run(_rw_conflict_kernel(), "fast")
        snapshot = obs.snapshot_and_reset()
        table = obs_kernel_table(snapshot)
        assert "vwarps" in table.columns and "vfallback" in table.columns
        by_kernel = {row[0]: row for row in table.rows}
        vfall = table.columns.index("vfallback")
        vwarps = table.columns.index("vwarps")
        assert "memory-conflict" in by_kernel["rwconf"][vfall]
        assert int(by_kernel["collatz"][vwarps]) > 0
