"""The speedup-pair gate of ``benchmarks/compare.py``, driven through
``main`` with synthetic pytest-benchmark JSON: every family of its
table keeps its ``--min-<f>-speedup`` / ``--<f>-baseline`` /
``--<f>-out`` flags and its ``BENCH_MIN_<F>_SPEEDUP`` override."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", _PATH)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

FAMILIES = [family for family, _, _, _ in compare.SPEEDUP_PAIRS]


def _bench_json(path, means):
    path.write_text(json.dumps({"benchmarks": [
        {"name": name, "stats": {"mean": mean}}
        for name, mean in means.items()
    ]}))
    return str(path)


def _pair(tmp_path, family, speedup):
    return _bench_json(tmp_path / "cur.json", {
        f"test_demo_{family}_off": 1.0,
        f"test_demo_{family}_on": 1.0 / speedup,
    })


def _main(current, *extra):
    # the current run doubles as the absolute baseline (check 1 passes);
    # empty committed artifacts leave only the minimum-speedup rule
    args = [current, current]
    for family in FAMILIES:
        args += [f"--{family}-baseline", "/dev/null"]
    return compare.main(args + list(extra))


@pytest.mark.parametrize("family", FAMILIES)
def test_passing_and_failing_pair(tmp_path, monkeypatch, family):
    monkeypatch.delenv(f"BENCH_MIN_{family.upper()}_SPEEDUP", raising=False)
    assert _main(_pair(tmp_path, family, 10.0)) == 0
    assert _main(_pair(tmp_path, family, 1.5)) == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_env_override(tmp_path, monkeypatch, family):
    current = _pair(tmp_path, family, 1.5)
    monkeypatch.setenv(f"BENCH_MIN_{family.upper()}_SPEEDUP", "1.2")
    assert _main(current) == 0
    monkeypatch.setenv(f"BENCH_MIN_{family.upper()}_SPEEDUP", "1.8")
    assert _main(current) == 1


@pytest.mark.parametrize("family", FAMILIES)
def test_flag_overrides_env(tmp_path, monkeypatch, family):
    monkeypatch.setenv(f"BENCH_MIN_{family.upper()}_SPEEDUP", "9.0")
    current = _pair(tmp_path, family, 1.5)
    assert _main(current, f"--min-{family}-speedup", "1.2") == 0


def test_committed_retain_gate_and_dev_null(tmp_path):
    current = _pair(tmp_path, "shard", 3.0)
    committed = tmp_path / "BENCH_shard.json"
    committed.write_text(json.dumps({"demo": {"speedup": 10.0}}))
    base = [current, current, "--shard-baseline"]
    # 3.0x is below 85% of the committed 10x ...
    assert compare.main(base + [str(committed)]) == 1
    # ... and /dev/null reads as an empty artifact, disabling the floor
    assert compare.main(base + ["/dev/null"]) == 0


def test_out_merge_updates_artifact(tmp_path):
    out = tmp_path / "BENCH_vector.json"
    out.write_text(json.dumps({"other": {"speedup": 7.0}}))
    current = _pair(tmp_path, "vector", 8.0)
    assert _main(current, "--vector-out", str(out)) == 0
    merged = json.loads(out.read_text())
    assert merged["other"] == {"speedup": 7.0}
    assert merged["demo"] == {
        "serial_s": 1.0, "vector_s": 0.125, "speedup": 8.0,
    }


def test_unreadable_current_is_usage_error(tmp_path):
    assert compare.main([str(tmp_path / "missing.json")]) == 2
