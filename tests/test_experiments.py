"""Experiment-layer tests at tiny scale (fast figure plumbing checks).

The benchmarks directory asserts the paper's quantitative shape at small
scale; these tests only check that every figure function produces
well-formed tables from real results.
"""

import pytest

from repro.harness import (
    DEFAULT_SUITE,
    SuiteResults,
    fig4_ideal_machines,
    fig12_instruction_reduction,
    fig13_speedup,
    fig14_instruction_breakdown,
    fig15_cycle_breakdown,
    fig16_energy,
    run_suite,
)
from repro.sim import tiny
from repro.workloads import all_abbrs

APPS = ("NN", "BP", "GEM")


@pytest.fixture(scope="module")
def suite():
    return run_suite(abbrs=APPS, scale="tiny", config=tiny())


class TestSuiteRunner:
    def test_all_apps_present(self, suite):
        assert sorted(suite.abbrs()) == sorted(APPS)

    def test_all_verified(self, suite):
        for abbr in suite.abbrs():
            assert suite[abbr].verified
            assert suite[abbr].outputs_identical


def test_default_suite_is_table2():
    """The headline figures run exactly the 42 apps of Table 2: no
    reduction-ladder variant and no persistent-thread FFT."""
    assert len(DEFAULT_SUITE) == 42
    assert len(set(DEFAULT_SUITE)) == 42
    assert not [a for a in DEFAULT_SUITE if a.startswith("RED")]
    assert "FFT_PT" not in DEFAULT_SUITE
    assert set(DEFAULT_SUITE) <= set(all_abbrs())


FIGS = [
    fig4_ideal_machines,
    fig12_instruction_reduction,
    fig13_speedup,
    fig14_instruction_breakdown,
    fig15_cycle_breakdown,
    fig16_energy,
]


@pytest.mark.parametrize("fig", FIGS, ids=lambda f: f.__name__)
def test_figure_tables_well_formed(suite, fig):
    table = fig(suite)
    text = table.render()
    # one row per app; the AVG/GEOMEAN line lives in the summary slot
    assert len(table.rows) == len(APPS)
    assert table.summary is not None
    for abbr in APPS:
        assert abbr in text
    assert text.count("\n") >= len(APPS) + 3


def test_fig12_rows_match_stats(suite):
    table = fig12_instruction_reduction(suite)
    row = next(r for r in table.rows if r[0] == "NN")
    expected = suite["NN"].instruction_reduction("r2d2")
    assert row[-1] == f"{100 * expected:.1f}%"


def test_fig13_geomean_in_summary(suite):
    table = fig13_speedup(suite)
    assert table.summary is not None
    assert table.summary[0] == "GEOMEAN"
    assert table.summary[-1].endswith("x")
    # the summary row renders after a second separator, below the apps
    lines = table.render().splitlines()
    assert lines[-1].startswith("GEOMEAN")
    assert set(lines[-2]) == {"-"}
