"""Raw-performance benchmarks of the simulator substrate itself
(pytest-benchmark timings, no paper claims): functional execution,
timing replay (event-driven engine and reference loop), and the R2D2
transform.

Run with ``--benchmark-json=BENCH_sim.json`` to produce the
machine-readable artifact consumed by ``benchmarks/compare.py`` (see
docs/PERFORMANCE.md)."""

import numpy as np

from repro.isa import CmpOp, DType, KernelBuilder, Param
from repro.isa.kernel import Dim3, LaunchConfig
from repro.sim import Device, TimingSimulator, timing_differences, tiny
from repro.sim.executor import FunctionalExecutor
from repro.transform import r2d2_transform
from repro.linear import analyze_kernel


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
        v = b.ld_global(b.addr(a_p, i, 4), DType.F32)
        b.st_global(b.addr(c_p, i, 4), b.mul(v, 2.0, DType.F32),
                    DType.F32)
    return b.build()


N = 16384


def _vadd_trace():
    kernel = _vadd_kernel()
    dev = Device(tiny())
    da = dev.upload(np.ones(N, dtype=np.float32))
    dc = dev.alloc(4 * N)
    return dev.launch(kernel, N // 256, 256, (da, dc, N))


def _collatz_kernel():
    """Divergent reference kernel: per-lane data-dependent while loop
    with an if/else inside — the serial interpreter's worst case and
    the megawarp vector engine's target."""
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


def _functional_bench(benchmark, kernel, data, args_tail, rounds=5):
    # Device construction and input upload are setup, not workload: a
    # fresh device per round keeps launches independent while the timed
    # region isolates executor throughput.
    def setup():
        dev = Device(tiny())
        da = dev.upload(data)
        dc = dev.alloc(4 * N)
        return (dev, da, dc), {}

    def run(dev, da, dc):
        return dev.launch(kernel, N // 256, 256, (da, dc) + args_tail)

    trace = benchmark.pedantic(run, setup=setup, rounds=rounds)
    assert trace.warp_instruction_count() > 0


def test_functional_execution_throughput_regular(benchmark):
    """Uniform control flow (the historical functional benchmark)."""
    _functional_bench(
        benchmark, _vadd_kernel(), np.ones(N, dtype=np.float32), (N,)
    )


def test_functional_execution_throughput_divergent(benchmark):
    """Data-dependent loops and branches: grouped separately so the
    regression gate tracks divergent throughput on its own (the two
    groups take entirely different engine paths)."""
    rng = np.random.default_rng(11)
    _functional_bench(
        benchmark, _collatz_kernel(),
        rng.integers(1, 40, N).astype(np.int32), (), rounds=3,
    )


# ``compare.py`` pairs ``test_vadd_timing_on/_off`` in its ``timing``
# family: the production replay (event-driven engine, SMs of the regular
# vadd trace cloned) against the reference loop.


def test_vadd_timing_on(benchmark):
    trace = _vadd_trace()
    result = benchmark(lambda: TimingSimulator(tiny(), trace).run_fast())
    assert result.cycles > 0


def test_vadd_timing_off(benchmark):
    trace = _vadd_trace()
    result = benchmark(
        lambda: TimingSimulator(tiny(), trace).run_reference()
    )
    assert result.cycles > 0


def test_timing_replay_engines_agree():
    """Not a timing benchmark: the two engines above must agree on
    every result field of the benchmarked trace, energy included."""
    trace = _vadd_trace()
    fast = TimingSimulator(tiny(), trace).run_fast()
    ref = TimingSimulator(tiny(), trace).run_reference()
    assert timing_differences(fast, ref) == []


def test_analyzer_throughput(benchmark):
    kernel = _vadd_kernel()
    result = benchmark(lambda: analyze_kernel(kernel))
    assert result.demanded


def test_transform_throughput(benchmark):
    kernel = _vadd_kernel()
    rk = benchmark(lambda: r2d2_transform(kernel))
    assert rk.removed_static > 0


# ---------------------------------------------------------------------------
# Megawarp vectorization: serial interpretation (``run_reference``) vs
# the masked megawarp engine (``run_fast``).  ``compare.py`` pairs
# ``test_<stem>_vector_on/_off``, enforces the >=5x speedup, and records
# the trajectory in BENCH_vector.json.  Two pairs: ``smem_shift`` — an
# affine shared-memory kernel with a block-wide barrier at 256 blocks x
# 256 threads, which gates the hazard check on barrier-ordered shared
# words — and ``dyntrip`` below.
# ---------------------------------------------------------------------------

X_BLOCKS = 256
X_THREADS = 256
X_N = X_BLOCKS * X_THREADS


def _saxpy_kernel():
    b = KernelBuilder(
        "saxpy",
        params=[Param("x", is_pointer=True), Param("y", is_pointer=True),
                Param("n", DType.S32)],
    )
    x_p, y_p, n_p = b.param(0), b.param(1), b.param(2)
    i = b.global_tid_x()
    ok = b.setp(CmpOp.LT, i, n_p)
    with b.if_then(ok):
        vx = b.ld_global(b.addr(x_p, i, 4), DType.F32)
        vy = b.ld_global(b.addr(y_p, i, 4), DType.F32)
        b.st_global(b.addr(y_p, i, 4), b.mad(vx, 2.5, vy, DType.F32),
                    DType.F32)
    return b.build()


def _smem_shift_kernel():
    """Stage through shared memory with a reversed (still affine) read
    after a block-wide barrier — exercises the megawarp shared arena."""
    b = KernelBuilder(
        "smem_shift",
        params=[Param("x", is_pointer=True), Param("o", is_pointer=True),
                Param("n", DType.S32)],
        shared_mem_bytes=4 * X_THREADS,
    )
    x_p, o_p, n_p = b.param(0), b.param(1), b.param(2)
    i = b.global_tid_x()
    t = b.tid_x()
    ok = b.setp(CmpOp.LT, i, n_p)
    with b.if_then(ok):
        v = b.ld_global(b.addr(x_p, i, 4), DType.F32)
        b.st_shared(b.shl(t, 2, DType.S64), v, DType.F32)
    b.bar()
    with b.if_then(ok):
        rev = b.shl(b.sub(X_THREADS - 1, t, DType.S64), 2, DType.S64)
        w = b.ld_shared(rev, DType.F32)
        b.st_global(b.addr(o_p, i, 4), w, DType.F32)
    return b.build()


def _smem_shift_bench(benchmark, engine):
    def setup():
        dev = Device(tiny())
        p0 = dev.upload(np.ones(X_N, dtype=np.float32))
        p1 = dev.alloc(4 * X_N)
        return (dev, p0, p1), {}

    def run(dev, p0, p1):
        launch = LaunchConfig(
            grid=Dim3(X_BLOCKS), block=Dim3(X_THREADS),
            args=(p0, p1, X_N),
        )
        executor = FunctionalExecutor(
            _smem_shift_kernel(), launch, dev.memory
        )
        return getattr(executor, f"run_{engine}")()

    trace = benchmark.pedantic(run, setup=setup, rounds=3)
    assert trace.warp_instruction_count() > 0
    return trace


def test_smem_shift_vector_on(benchmark):
    report = _smem_shift_bench(benchmark, "fast").vector
    assert report.engaged and not report.bailed
    assert report.warps_vectorized == report.warps_total


def test_smem_shift_vector_off(benchmark):
    _smem_shift_bench(benchmark, "reference")


# The ``dyntrip`` pair — per-lane data-dependent trip counts, the
# paper's "divergent loop" shape — is sized so the serial side stays a
# few seconds per round; collatz (unbounded while loop) is covered by
# the bit-identity check below and by the divergent
# functional-throughput benchmark above.

V_BLOCKS = 512
V_THREADS = 128
V_N = V_BLOCKS * V_THREADS


def _dyntrip_kernel():
    """Register-bound loop: each lane runs ``v & 7`` iterations."""
    b = KernelBuilder(
        "dyntrip",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    v = b.ld_global(b.addr(a_p, i, 4), DType.S32)
    n = b.and_(v, 7)
    acc = b.mov(0)
    with b.for_range(0, n) as counter:
        b.add_to(acc, acc, counter)
    b.st_global(b.addr(c_p, i, 4), acc, DType.S32)
    return b.build()


def _vector_bench(benchmark, kernel, engine, rounds=3):
    def setup():
        dev = Device(tiny())
        rng = np.random.default_rng(11)
        p0 = dev.upload(rng.integers(1, 64, V_N).astype(np.int32))
        p1 = dev.alloc(4 * V_N)
        return (dev, p0, p1), {}

    def run(dev, p0, p1):
        launch = LaunchConfig(
            grid=Dim3(V_BLOCKS), block=Dim3(V_THREADS), args=(p0, p1)
        )
        executor = FunctionalExecutor(kernel, launch, dev.memory)
        return getattr(executor, f"run_{engine}")()

    trace = benchmark.pedantic(run, setup=setup, rounds=rounds)
    assert trace.warp_instruction_count() > 0
    return trace


def test_dyntrip_vector_on(benchmark):
    trace = _vector_bench(benchmark, _dyntrip_kernel(), "fast")
    report = trace.vector
    assert report.engaged and not report.bailed
    assert report.warps_vectorized == report.warps_total


def test_dyntrip_vector_off(benchmark):
    _vector_bench(benchmark, _dyntrip_kernel(), "reference")


# ---------------------------------------------------------------------------
# Event-driven timing engine: timing replay of the divergent dyntrip
# trace, event-driven (``run_fast``) vs reference loop.
# ``compare.py`` pairs ``test_dyntrip_timing_on/_off`` and enforces
# BENCH_MIN_TIMING_SPEEDUP (default 5x).  The trace and config are
# shared across rounds, but each replay precompiles its record streams
# (``_Prep``) itself, as every production replay does; the reference
# loop has no precompilation.
# ---------------------------------------------------------------------------

_TIMING_CFG = tiny()
_TIMING_TRACE = None


def _dyntrip_timing_trace():
    global _TIMING_TRACE
    if _TIMING_TRACE is None:
        dev = Device(_TIMING_CFG)
        rng = np.random.default_rng(11)
        p0 = dev.upload(rng.integers(1, 64, V_N).astype(np.int32))
        p1 = dev.alloc(4 * V_N)
        _TIMING_TRACE = dev.launch(
            _dyntrip_kernel(), V_BLOCKS, V_THREADS, (p0, p1)
        )
    return _TIMING_TRACE


def test_dyntrip_timing_on(benchmark):
    trace = _dyntrip_timing_trace()
    result = benchmark.pedantic(
        lambda: TimingSimulator(_TIMING_CFG, trace).run_fast(),
        rounds=3,
    )
    assert result.cycles > 0


def test_dyntrip_timing_off(benchmark):
    trace = _dyntrip_timing_trace()
    result = benchmark.pedantic(
        lambda: TimingSimulator(_TIMING_CFG, trace).run_reference(),
        rounds=3,
    )
    assert result.cycles > 0


def test_timing_fast_engine_agrees():
    """Not a timing benchmark: ``run_verify`` runs both engines above
    on the benchmarked trace and asserts every result field — cycles,
    counters, cache stats, and the exact energy floats — is identical
    (raises ``TimingVerifyMismatch`` otherwise)."""
    trace = _dyntrip_timing_trace()
    result = TimingSimulator(_TIMING_CFG, trace).run_verify()
    assert result.cycles > 0


def test_vector_engines_agree():
    """Not a timing benchmark: on divergent, regular and shared-memory
    kernels the megawarp must leave memory bit-identical to serial
    execution."""
    cases = (
        # (kernel, blocks, threads, float input + trailing n argument)
        (_dyntrip_kernel, 64, V_THREADS, False),
        (_collatz_kernel, 16, V_THREADS, False),
        (_saxpy_kernel, X_BLOCKS, X_THREADS, True),
        (_smem_shift_kernel, X_BLOCKS, X_THREADS, True),
    )
    for kernel_fn, blocks, threads, affine in cases:
        outs = {}
        n = blocks * threads
        for engine in ("reference", "fast"):
            dev = Device(tiny())
            rng = np.random.default_rng(11)
            if affine:
                p0 = dev.upload(rng.standard_normal(n).astype(np.float32))
                args = (p0, dev.alloc(4 * n), n)
            else:
                p0 = dev.upload(rng.integers(1, 40, n).astype(np.int32))
                args = (p0, dev.alloc(4 * n))
            launch = LaunchConfig(
                grid=Dim3(blocks), block=Dim3(threads), args=args
            )
            executor = FunctionalExecutor(kernel_fn(), launch, dev.memory)
            getattr(executor, f"run_{engine}")()
            outs[engine] = dev.memory.buf.copy()
        assert np.array_equal(outs["reference"], outs["fast"])
