"""Engine gate for the reduction workload family.

The divergent tree kernel (RED0's ``tid % (2*s)`` halving reduction —
barrier-heavy, shared-memory strided, divergent on every tree step) is
the megawarp vector engine's worst-case workload shape, so this file
pins its megawarp-vs-serial speedup as a ``test_<stem>_reduction_on`` /
``_off`` pair.  ``compare.py`` (its ``reduction`` speedup row) enforces
``BENCH_MIN_REDUCTION_SPEEDUP`` and the 85% retain gate against
``benchmarks/baseline/BENCH_reduction.json``.

Run with ``--benchmark-json=BENCH_reduction_run.json`` and gate via::

    python benchmarks/compare.py BENCH_reduction_run.json \
        benchmarks/baseline/BENCH_sim.json --allow-missing-baseline
"""

import numpy as np

from repro.isa.kernel import Dim3, LaunchConfig
from repro.sim import Device, tiny
from repro.sim.executor import FunctionalExecutor
from repro.workloads.reduction import kernels

R_THREADS = 128
R_BLOCKS = 256
R_N = R_THREADS * R_BLOCKS

_KERNEL = kernels.reduce0_kernel(R_THREADS)


def _reduction_bench(benchmark, engine, rounds=3):
    def setup():
        dev = Device(tiny())
        rng = np.random.default_rng(3)
        d_in = dev.upload(
            rng.integers(0, 100, R_N).astype(np.int32)
        )
        d_out = dev.upload(np.zeros(R_BLOCKS, dtype=np.int32))
        return (dev, d_in, d_out), {}

    def run(dev, d_in, d_out):
        launch = LaunchConfig(
            grid=Dim3(R_BLOCKS), block=Dim3(R_THREADS),
            args=(d_in, d_out),
        )
        executor = FunctionalExecutor(_KERNEL, launch, dev.memory)
        trace = getattr(executor, f"run_{engine}")()
        # the partial sums must actually be correct in both engines
        got = dev.download(d_out, R_BLOCKS, np.int32)
        want = dev.download(d_in, R_N, np.int32).reshape(
            R_BLOCKS, R_THREADS
        ).sum(axis=1, dtype=np.int64).astype(np.int32)
        assert np.array_equal(got, want)
        return trace

    return benchmark.pedantic(run, setup=setup, rounds=rounds)


def test_redtree_reduction_on(benchmark):
    trace = _reduction_bench(benchmark, "fast")
    report = trace.vector
    assert report.engaged and not report.bailed
    assert report.warps_vectorized == report.warps_total


def test_redtree_reduction_off(benchmark):
    _reduction_bench(benchmark, "reference")
