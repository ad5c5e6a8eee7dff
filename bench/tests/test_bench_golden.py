import copy

import pytest

import golden
import suites


@pytest.fixture(scope="module")
def affine():
    apps = golden.load("table2-affine", "tiny")
    assert apps is not None, "golden/table2-affine.json is missing"
    return apps


def test_golden_covers_every_app_and_architecture():
    for name, suite in suites.WORKLOADS.items():
        apps = golden.load(name, suite.scale(False))
        assert apps is not None and sorted(apps) == sorted(suite.apps)
        for stats in apps.values():
            assert len(stats) == 8


def test_unchanged_stats_pass(affine):
    assert golden.check_app("GEM", copy.deepcopy(affine["GEM"]),
                            affine) == []


def test_perturbed_integer_field_is_named(affine):
    got = copy.deepcopy(affine["GEM"])
    got["r2d2"]["cycles"] += 1
    (msg,) = golden.check_app("GEM", got, affine)
    assert msg.startswith("GEM/r2d2/cycles:")


def test_energy_matches_to_relative_tolerance(affine):
    got = copy.deepcopy(affine["GEM"])
    got["dac"]["energy_pj"] *= 1 + 1e-12
    assert golden.check_app("GEM", got, affine) == []
    got["dac"]["energy"]["alu"] *= 1 + 1e-6
    (msg,) = golden.check_app("GEM", got, affine)
    assert msg.startswith("GEM/dac/energy/alu:")


def test_missing_architecture_is_reported(affine):
    got = copy.deepcopy(affine["GEM"])
    del got["wp"]
    assert golden.check_app("GEM", got, affine) == [
        "GEM/wp: architecture missing from run"]
