"""Observability subsystem: spans, counters, exporters, and the
fallback-classification fixes that ride along with it.

Cross-process tests rely on the Linux ``fork`` start method: workers
inherit the parent's (monkeypatched) module state, and worker wrappers
must ``obs.reset()`` on entry so fork-inherited counters are not
shipped back and double-counted.
"""

import json
import math
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro import obs
from repro.harness import cli, experiments
from repro.harness.experiments import bench_config, run_suite
from repro.harness.report import Table, obs_summary
from repro.perf import parallel
from repro.perf.parallel import (
    PoolSetupError,
    fallback_reason,
    is_parallel_fallback,
    record_demotion,
    resolve_jobs,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Each test starts from empty metrics and a fresh warning set."""
    obs.reset()
    parallel._warned_jobs.clear()
    yield
    obs.reset()
    parallel._warned_jobs.clear()


# ----------------------------------------------------------------------
# registry + profiler
# ----------------------------------------------------------------------
class TestRegistry:
    def test_labels_flatten_sorted(self):
        obs.inc("hits", 2, kernel="k", ns="result")
        flat = obs.METRICS.counters()
        assert flat == {"hits{kernel=k,ns=result}": 2}

    def test_parse_key_roundtrip(self):
        key = obs.flatten_key("hits", {"b": "2", "a": "1"})
        name, labels = obs.parse_key(key)
        assert name == "hits"
        assert labels == {"a": "1", "b": "2"}

    def test_counter_total_sums_labels(self):
        obs.inc("n", 1, k="a")
        obs.inc("n", 2, k="b")
        assert obs.counter_total("n") == 3
        assert obs.counter_value("n", k="a") == 1

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            obs.inc("n", -1)

    def test_gauge_last_write_wins(self):
        obs.gauge_set("g", 1)
        obs.gauge_set("g", 7)
        assert obs.METRICS.gauges() == {"g": 7}


class TestSpans:
    def test_nesting_builds_tree(self):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        (tree,) = obs.snapshot()["spans"]
        assert tree["name"] == "outer"
        assert tree["count"] == 1
        (inner,) = tree["children"]
        assert (inner["name"], inner["count"]) == ("inner", 2)
        assert tree["total_s"] >= inner["total_s"] >= 0.0

    def test_exception_still_recorded(self):
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        (tree,) = obs.snapshot()["spans"]
        assert (tree["name"], tree["count"]) == ("boom", 1)


# ----------------------------------------------------------------------
# cross-process snapshot/merge
# ----------------------------------------------------------------------
def _obs_worker(tag):
    # Fork-inherited parent state must be dropped, or merging would
    # double-count it.
    obs.reset()
    with obs.span("cell"):
        obs.inc("work.items", 2, tag=tag)
    return obs.snapshot_and_reset()


class TestCrossProcess:
    def test_counter_merge_across_processes(self):
        obs.inc("work.items", 1, tag="parent")
        with obs.span("suite"):
            with ProcessPoolExecutor(max_workers=2) as pool:
                for blob in pool.map(_obs_worker, ["a", "b"]):
                    obs.merge(blob)
        snap = obs.snapshot()
        assert snap["counters"] == {
            "work.items{tag=a}": 2,
            "work.items{tag=b}": 2,
            "work.items{tag=parent}": 1,
        }
        # worker span trees graft under the parent's enclosing span
        (suite,) = snap["spans"]
        (cell,) = suite["children"]
        assert (cell["name"], cell["count"]) == ("cell", 2)


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_metrics_file_roundtrip(self, tmp_path):
        with obs.span("phase"):
            obs.inc("c", 3, k="v")
        obs.gauge_set("g", 1.5)
        path = tmp_path / "run.json"
        obs.write_metrics(path, meta={"note": "t"})
        blob = obs.load_metrics(path)
        assert blob["schema"] == obs.EXPORT_SCHEMA
        assert blob["meta"] == {"note": "t"}
        assert blob["counters"] == {"c{k=v}": 3}
        assert blob["gauges"] == {"g": 1.5}
        assert blob["spans"][0]["name"] == "phase"

    def test_event_log_jsonl(self, tmp_path, monkeypatch):
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv(obs.ENV_TRACE_LOG, str(log))
        obs.event("first", n=1)
        obs.event("second", slug="a-b")
        lines = log.read_text().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["event"] for e in events] == ["first", "second"]
        assert events[0]["n"] == 1
        assert all("ts" in e and "pid" in e for e in events)

    def test_event_without_env_is_noop(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_TRACE_LOG, raising=False)
        obs.event("ignored")  # must not raise

    def test_event_writes_one_complete_line(self, tmp_path, monkeypatch):
        """Each event is one atomic append: no partial lines even when
        the log already holds other content."""
        log = tmp_path / "events.jsonl"
        log.write_text('{"event": "pre-existing"}\n')
        monkeypatch.setenv(obs.ENV_TRACE_LOG, str(log))
        obs.event("appended", detail="x" * 4096)
        lines = log.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["event"] == "appended"

    def test_read_events_skips_and_counts_corrupt_lines(self, tmp_path):
        log = tmp_path / "events.jsonl"
        log.write_text(
            '{"event": "ok1"}\n'
            '{"event": "torn", "pid"\n'       # truncated write
            "not json at all\n"
            "\n"                               # blank: not corrupt
            '["a", "list"]\n'                  # valid JSON, not a dict
            '{"event": "ok2"}\n'
        )
        events, corrupt = obs.read_events(log)
        assert [e["event"] for e in events] == ["ok1", "ok2"]
        assert corrupt == 3

    def test_read_events_roundtrips_event_log(self, tmp_path, monkeypatch):
        log = tmp_path / "events.jsonl"
        monkeypatch.setenv(obs.ENV_TRACE_LOG, str(log))
        obs.event("a", n=1)
        obs.event("b", n=2)
        events, corrupt = obs.read_events(log)
        assert corrupt == 0
        assert [e["event"] for e in events] == ["a", "b"]


class TestDecisionExport:
    def test_snapshot_merge_reset_roundtrip(self):
        obs.decision("vector", "skip", kernel="k", reason="disabled")
        obs.decision("vector", "skip", kernel="k", reason="disabled")
        blob = obs.snapshot_and_reset()
        assert blob["decisions"][0]["count"] == 2
        assert obs.snapshot()["decisions"] == []
        obs.merge(blob)
        merged = obs.snapshot()["decisions"]
        assert merged == blob["decisions"]

    def test_metrics_file_includes_decisions(self, tmp_path):
        obs.decision("cache", "miss", reason="trace")
        path = tmp_path / "run.json"
        obs.write_metrics(path)
        blob = obs.load_metrics(path)
        assert blob["schema"] == obs.EXPORT_SCHEMA
        assert blob["decisions"][0]["engine"] == "cache"


# ----------------------------------------------------------------------
# Table summary row + obs report sections
# ----------------------------------------------------------------------
class TestTableSummary:
    def test_summary_renders_below_second_separator(self):
        t = Table("T", ["app", "x"])
        t.add_row("NN", 1.0)
        t.set_summary("GEOMEAN", 2.0)
        lines = t.render().splitlines()
        assert lines[-1].startswith("GEOMEAN")
        assert set(lines[-2]) == {"-"}

    def test_summary_arity_checked(self):
        t = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.set_summary("only-one")

    def test_nan_renders_na(self):
        t = Table("T", ["a", "b"])
        t.add_row("x", math.nan)
        assert "n/a" in t.render()


class TestObsSummary:
    def test_sections_present(self):
        with obs.span("workload"):
            obs.inc("dedup.sms.simulated", 4, kernel="k")
            obs.inc("cache.hit", 2, ns="result")
        text = obs_summary(obs.snapshot())
        assert "Phase profile" in text
        assert "workload" in text
        assert "k" in text
        assert "trace-cache hits" in text


# ----------------------------------------------------------------------
# fallback classification (satellite bugfix)
# ----------------------------------------------------------------------
class TestFallbackClassification:
    def test_worker_bug_types_not_swallowed(self):
        assert not is_parallel_fallback(AttributeError("no such attr"))
        assert not is_parallel_fallback(TypeError("bad arg"))
        assert not is_parallel_fallback(OSError("disk on fire"))
        assert not is_parallel_fallback(ValueError("x"))

    def test_infrastructure_errors_demote(self):
        assert is_parallel_fallback(pickle.PicklingError("x"))
        assert is_parallel_fallback(PoolSetupError("x"))
        assert is_parallel_fallback(TimeoutError())
        # pickle-hinted TypeError, as raised by submit() on bad args
        assert is_parallel_fallback(
            TypeError("cannot pickle '_thread.lock' object")
        )
        assert is_parallel_fallback(
            AttributeError("Can't get attribute '_f' on <module>")
        )

    def test_fallback_reason_slugs(self):
        assert fallback_reason(pickle.PicklingError("x")) == "unpicklable"
        assert fallback_reason(PoolSetupError("x")) == "pool-setup"
        assert fallback_reason(TimeoutError()) == "task-timeout"

    def test_record_demotion_counts_and_labels(self):
        record_demotion("suite", pickle.PicklingError("x"))
        assert obs.counter_value(
            "parallel.demotions", site="suite", reason="unpicklable"
        ) == 1


def _raise_worker_bug(*args, **kwargs):
    # Deliberately NOT pickle-related: this is the corpus-style genuine
    # worker bug that must surface instead of triggering a serial rerun.
    raise AttributeError("worker bug in cell")


def _raise_unpicklable(*args, **kwargs):
    raise pickle.PicklingError("synthetic infra failure")


class TestSuiteFallbackBehavior:
    def test_worker_bug_surfaces_without_serial_retry(self, monkeypatch):
        monkeypatch.setattr(experiments, "_suite_cell", _raise_worker_bug)
        calls = []

        def _no_serial(*a, **k):
            calls.append(a)
            pytest.fail("serial retry")

        monkeypatch.setattr(experiments, "run_workload", _no_serial)
        with pytest.raises(AttributeError, match="worker bug in cell"):
            run_suite(["NN", "BP"], "tiny", bench_config(2), jobs=2)
        assert calls == []

    def test_infra_failure_demotes_to_serial(self, monkeypatch):
        monkeypatch.setattr(experiments, "_suite_cell", _raise_unpicklable)
        suite = run_suite(["NN", "BP"], "tiny", bench_config(2), jobs=2)
        assert set(suite.results) == {"NN", "BP"}
        assert obs.counter_value(
            "parallel.demotions", site="suite", reason="unpicklable"
        ) == 2


# ----------------------------------------------------------------------
# resolve_jobs invalid-value warning (satellite bugfix)
# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_invalid_env_warns_once(self, monkeypatch):
        monkeypatch.setenv("R2D2_JOBS", "all")
        with pytest.warns(RuntimeWarning, match="R2D2_JOBS"):
            assert resolve_jobs(None) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs(None) == 1  # second call stays quiet
        assert obs.counter_total("parallel.invalid_jobs") == 1

    def test_valid_env_silent(self, monkeypatch):
        monkeypatch.setenv("R2D2_JOBS", "3")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_jobs(None) == 3


# ----------------------------------------------------------------------
# end-to-end: profile CLI and serial/parallel equality
# ----------------------------------------------------------------------
class TestProfileCli:
    def test_profile_prints_and_exports_same_numbers(
        self, tmp_path, capsys
    ):
        out = tmp_path / "run.json"
        rc = cli.main([
            "profile", "NN", "--scale", "tiny", "--sms", "2",
            "--metrics-out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert "Phase profile" in text
        assert "Per-kernel fast-path counters" in text
        blob = obs.load_metrics(out)
        assert blob["meta"]["abbr"] == "NN"
        # the table and the JSON are the same snapshot
        sims = obs.counter_total("dedup.sms.simulated")
        json_sims = sum(
            v for k, v in blob["counters"].items()
            if k.startswith("dedup.sms.simulated")
        )
        assert sims == json_sims > 0
        assert blob["spans"][0]["name"] == "workload"

    def test_figures_metrics_out(self, tmp_path, capsys):
        out = tmp_path / "fig.json"
        rc = cli.main([
            "fig13", "--scale", "tiny", "--sms", "2", "--apps", "NN",
            "--no-cache", "--metrics-out", str(out),
        ])
        assert rc == 0
        blob = obs.load_metrics(out)
        assert blob["meta"]["artifacts"] == ["fig13"]
        assert blob["spans"][0]["name"] == "suite"


class TestSerialParallelEquality:
    def test_counter_totals_match(self):
        config = bench_config(2)
        run_suite(["NN", "BP"], "tiny", config)
        serial = obs.snapshot_and_reset()
        run_suite(["NN", "BP"], "tiny", config, jobs=2)
        par = obs.snapshot_and_reset()
        assert serial["counters"] == par["counters"]
