import numpy as np
import pytest

from repro.harness.experiments import bench_config
from repro.sim.gpu import Device

import figrun
import suites

#: One app per workload; the graph app draws its structure from the rng.
CASES = [("GEM", "table2-affine"), ("BFS", "table2-irregular"),
         ("RED0", "reduction-ladder")]


def _class_and_scale(abbr, workload):
    suite = suites.WORKLOADS[workload]
    return figrun.workload_class(abbr, suite, False), suite.scale(False)


def _inputs(factory):
    """Device memory contents and launch arguments after ``prepare``."""
    w = factory()
    dev = Device(bench_config())
    launches = w.prepare(dev)
    return (dev.memory.buf[:dev.memory._next].copy(),
            [tuple(spec.args) for spec in launches])


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("abbr,workload", CASES)
def test_both_devices_get_identical_inputs(abbr, workload, seed):
    cls, scale = _class_and_scale(abbr, workload)
    make = figrun.seeded_factory(cls, scale, seed)
    (mem1, args1), (mem2, args2) = _inputs(make), _inputs(make)
    assert np.array_equal(mem1, mem2)
    assert args1 == args2


@pytest.mark.parametrize("abbr,workload", CASES)
def test_seed_zero_is_native_and_others_differ(abbr, workload):
    cls, scale = _class_and_scale(abbr, workload)
    native, _ = _inputs(lambda: cls(scale))
    seed0, _ = _inputs(figrun.seeded_factory(cls, scale, 0))
    seed7, _ = _inputs(figrun.seeded_factory(cls, scale, 7))
    assert np.array_equal(native, seed0)
    assert not np.array_equal(native, seed7)


def test_ladder_runs_at_its_benchmark_size():
    cls, scale = _class_and_scale("RED0", "reduction-ladder")
    w = cls(scale)
    assert (w.params["grid"], w.params["block"]) == (128, 128)
