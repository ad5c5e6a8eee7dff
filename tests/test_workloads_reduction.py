"""Reduction-family gate: per-variant self-checks against the numpy
reference, bit-identity of the serial / megawarp-vector / dedup /
fast-timing engines on the divergent and bank-conflict variants, and the
corpus regressions for the seed-13 interval bug that blocked this
workload family."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.oracle.diff import TIMING_INT_FIELDS, check_spec
from repro.sim import tiny
from repro.sim.executor import FunctionalExecutor
from repro.sim.gpu import Device, as_dim3
from repro.sim.timing import TimingSimulator
from repro.isa.kernel import LaunchConfig
from repro.workloads import by_suite, factory

CORPUS = Path(__file__).parent / "corpus"
CONFIG = tiny()
VARIANTS = by_suite("reduction")


def _run(abbr, vector="0"):
    """One tiny-scale run under an explicit engine mode; returns the
    workload (post-``prepare``), its device, and the kernel trace."""
    wl = factory(abbr, "tiny")()
    dev = Device(config=CONFIG)
    traces = []
    for spec in wl.prepare(dev):
        launch = LaunchConfig(
            grid=as_dim3(spec.grid),
            block=as_dim3(spec.block),
            args=tuple(spec.args),
        )
        traces.append(
            FunctionalExecutor(
                spec.kernel, launch, dev.memory, vector=vector
            ).run()
        )
    assert len(traces) == 1
    return wl, dev, traces[0]


def test_family_is_complete():
    assert VARIANTS == [f"RED{i}" for i in range(7)]


@pytest.mark.parametrize("abbr", VARIANTS)
def test_serial_self_check(abbr):
    """Every variant's block sums match the exact integer reference."""
    wl, dev, _ = _run(abbr)
    wl.check(dev)


@pytest.mark.parametrize("abbr", ["RED0", "RED1", "RED4", "RED5"])
def test_vector_engine_bit_identical(abbr):
    """The megawarp engine must leave the exact memory state of the
    serial interpreter on the divergent, bank-conflict,
    warp-synchronous, and fully unrolled variants."""
    _, dev_s, _ = _run(abbr, vector="0")
    wl_v, dev_v, _ = _run(abbr, vector="1")
    wl_v.check(dev_v)
    assert np.array_equal(dev_s.memory.buf, dev_v.memory.buf)


@pytest.mark.parametrize("abbr", ["RED0", "RED1"])
def test_timing_dedup_and_fast_agree(abbr):
    """Warp-dedup on/off and the event-driven fast engine must agree on
    every integer timing field and cache counter for the tree kernels
    (barrier-heavy, divergent — the dedup fast path's worst case)."""
    _, _, trace = _run(abbr)
    ref = TimingSimulator(CONFIG, trace, dedup=False,
                         timing="reference").run()
    dedup = TimingSimulator(CONFIG, trace, dedup=True,
                            timing="reference").run()
    fast = TimingSimulator(CONFIG, trace, dedup=False, timing="fast").run()
    for name in TIMING_INT_FIELDS:
        assert getattr(dedup, name) == getattr(ref, name), name
        assert getattr(fast, name) == getattr(ref, name), name
    for cache in ("l1", "l2"):
        a, b = getattr(dedup, cache), getattr(ref, cache)
        assert (a.accesses, a.hits) == (b.accesses, b.hits), cache


def test_seed13_corpus_case_reproduces_expected_crash():
    """The shrunk seed-13 counterexample must keep crashing in exactly
    the recorded way (its spec is inherently unsound; the generator fix
    prevents *new* specs like it, not this committed one)."""
    case = json.loads((CORPUS / "s32-coercion-wrap.json").read_text())
    report = check_spec(case["spec"])
    assert sorted({v.kind for v in report.violations}) == [
        "original-run-crash"
    ]


def test_reduction_tree_corpus_case_clean():
    """The hand-written reduction-tree spec — the grammar shape the
    seed-13 fix unblocked — must replay clean and actually exercise the
    R2D2 transform."""
    case = json.loads((CORPUS / "reduction-tree.json").read_text())
    report = check_spec(case["spec"])
    assert report.ok, [str(v) for v in report.violations]
    assert not report.plan_empty
