"""Decision-provenance tests: analyzer demotion events, causal chains,
the unified decision trace, corpus explanation locks, and the
``python -m repro explain`` report."""

import json
import os
from pathlib import Path

import pytest

from repro import obs
from repro.harness import cli
from repro.harness.explain import (
    EXPLAIN_SCHEMA,
    build_explanation,
    render_html,
    render_text,
)
from repro.isa import DType, KernelBuilder, Param
from repro.linear.analyzer import analyze_kernel
from repro.obs.decisions import MAX_DECISION_KEYS, DecisionEvent, DecisionTrace
from repro.oracle.cli import spec_explanation
from repro.sim.config import tiny
from repro.workloads import factory

CORPUS = Path(__file__).parent / "corpus"


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# Analyzer demotion provenance
# ----------------------------------------------------------------------
def _divergent_kernel():
    """A data-dependent load feeding an address: the load demotes, the
    add chains to it, and the final store's base stays nonlinear."""
    b = KernelBuilder(
        "divergent", params=[Param("buf", is_pointer=True)]
    )
    base = b.param(0)                               # linear (pc 0)
    tid = b.tid_x()                                 # linear (pc 1)
    off = b.cvt(tid, DType.S64)                     # linear (pc 2)
    addr = b.mad(off, 8, base, dtype=DType.S64)     # linear (pc 3)
    val = b.ld_global(addr, DType.S64)              # demotes (pc 4)
    addr2 = b.add(val, base, dtype=DType.S64)       # chains  (pc 5)
    b.st_global(addr2, 1, DType.S64)                # nonlinear base
    return b.build()


class TestDemotionEvents:
    def test_reasons_and_chain(self):
        result = analyze_kernel(_divergent_kernel())
        by_reason = {ev.reason: ev for ev in result.demotions}
        assert "data-dependent-load" in by_reason
        assert "nonlinear-source" in by_reason
        src = by_reason["nonlinear-source"]
        load = by_reason["data-dependent-load"]
        assert src.cause_pc == load.pc
        chain = result.causal_chain(src.pc)
        assert [ev.pc for ev in chain] == [src.pc, load.pc]

    def test_every_nonlinear_address_has_chain(self):
        result = analyze_kernel(_divergent_kernel())
        assert result.nonlinear_addresses, "store through nonlinear base"
        for addr in result.nonlinear_addresses:
            assert addr.cause_pc is not None
            assert result.causal_chain(addr.cause_pc), (
                f"no causal chain for nonlinear address at pc {addr.pc}"
            )

    def test_demotions_emit_decisions(self):
        analyze_kernel(_divergent_kernel())
        decisions = obs.snapshot()["decisions"]
        demotes = [
            d for d in decisions
            if d["engine"] == "analyzer" and d["decision"] == "demote"
        ]
        assert demotes
        reasons = {d["reason"] for d in demotes}
        assert "data-dependent-load" in reasons

    def test_provenance_knob_disables_decisions(self, monkeypatch):
        monkeypatch.setenv(obs.ENV_PROVENANCE, "0")
        result = analyze_kernel(_divergent_kernel())
        # DemotionEvents still collected (they are analysis output) ...
        assert result.demotions
        # ... but the run-level decision trace stays empty.
        assert obs.snapshot()["decisions"] == []


# ----------------------------------------------------------------------
# DecisionTrace mechanics
# ----------------------------------------------------------------------
class TestDecisionTrace:
    def test_dedup_accumulates_counts_and_units(self):
        trace = DecisionTrace()
        for _ in range(3):
            trace.record(DecisionEvent(
                engine="vector", decision="engage", kernel="k",
                units_total=8, units_taken=8,
            ))
        snap = trace.snapshot()
        assert len(snap) == 1
        assert snap[0]["count"] == 3
        assert snap[0]["units_total"] == 24

    def test_merge_matches_serial(self):
        a, b, serial = DecisionTrace(), DecisionTrace(), DecisionTrace()
        events = [
            DecisionEvent(engine="vector", decision="skip", kernel="k",
                          reason="launch-too-small"),
            DecisionEvent(engine="cache", decision="hit", reason="trace"),
        ]
        for ev in events:
            a.record(ev)
            serial.record(ev)
            serial.record(ev)
            b.record(ev)
        merged = DecisionTrace()
        merged.merge(a.snapshot())
        merged.merge(b.snapshot())
        assert merged.snapshot() == serial.snapshot()

    def test_overflow_sentinel(self):
        trace = DecisionTrace()
        for i in range(MAX_DECISION_KEYS + 5):
            trace.record(DecisionEvent(
                engine="x", decision="d", reason=f"r{i}"
            ))
        snap = trace.snapshot()
        assert len(snap) == MAX_DECISION_KEYS + 1
        overflow = [
            e for e in snap if e["decision"] == "decision-overflow"
        ]
        assert overflow and overflow[0]["count"] == 5


# ----------------------------------------------------------------------
# Corpus explanations lock provenance to known-real analyzer bugs
# ----------------------------------------------------------------------
def _corpus_cases():
    return sorted(CORPUS.glob("*.json"))


class TestCorpusExplanations:
    @pytest.mark.parametrize(
        "path", _corpus_cases(), ids=lambda p: p.stem
    )
    def test_explanation_matches_regenerated(self, path):
        case = json.loads(path.read_text())
        committed = case.get("explanation")
        assert committed, f"{path.name} has no explanation block"
        regenerated = spec_explanation(case["spec"])
        assert regenerated["demotions"] == committed["demotions"]
        assert regenerated["kinds"] == committed["kinds"]

    @pytest.mark.parametrize(
        "path", _corpus_cases(), ids=lambda p: p.stem
    )
    def test_flagged_instruction_named(self, path):
        """The explanation names the instruction the oracle flagged."""
        case = json.loads(path.read_text())
        flagged = case["explanation"]["flagged"]
        regenerated = spec_explanation(case["spec"])
        if "reason" in flagged:
            match = [
                ev for ev in regenerated["demotions"]
                if ev["pc"] == flagged["pc"]
                and ev["opcode"] == flagged["opcode"]
                and ev["reason"] == flagged["reason"]
            ]
            assert match, (
                f"{path.name}: no demotion at pc {flagged['pc']} with "
                f"reason {flagged['reason']!r}"
            )
        else:
            # Negative lock: the flagged pc must stay removable.
            assert (
                regenerated["kinds"][str(flagged["pc"])]
                == flagged["kind"]
            )
            assert not any(
                ev["pc"] == flagged["pc"]
                for ev in regenerated["demotions"]
            )


# ----------------------------------------------------------------------
# The explain document and CLI
# ----------------------------------------------------------------------
class TestExplainDocument:
    @pytest.fixture(scope="class")
    def doc(self):
        return build_explanation("BP", scale="tiny", config=tiny())

    def test_schema_and_shape(self, doc):
        assert doc["schema"] == EXPLAIN_SCHEMA
        assert doc["abbr"] == "BP"
        assert doc["kernels"]
        for kdoc in doc["kernels"]:
            assert kdoc["static_total"] == len(kdoc["instructions"])

    def test_removed_totals_consistent(self, doc):
        for kdoc in doc["kernels"]:
            removed = sum(
                1 for entry in kdoc["instructions"] if entry["removed"]
            )
            assert removed == kdoc["static_removed"]

    def test_blocked_instructions_have_reasons(self, doc):
        for kdoc in kdoc_list(doc):
            flagged = {
                pc
                for bucket in kdoc["blocking_reasons"]
                for pc in bucket["pcs"]
            }
            for entry in kdoc["instructions"]:
                if entry["pc"] in flagged:
                    assert entry["reason"]
                    assert not entry["removed"]

    def test_matches_fig12_harness_numbers(self, doc):
        """The explain dynamic cell is exactly the Fig-12 number."""
        from repro.harness.runner import run_workload

        result = run_workload(
            factory("BP", "tiny"), config=tiny(),
            arch_names=("baseline", "r2d2"), cache=False,
        )
        assert doc["dynamic"]["instruction_reduction"] == (
            result.instruction_reduction("r2d2")
        )

    def test_renderers(self, doc):
        text = render_text(doc)
        assert "Fig-12" in text
        html = render_html(doc)
        assert html.startswith("<!DOCTYPE html>")
        assert "repro explain" in html

    def test_divergent_workload_chains(self):
        doc = build_explanation("BFS", scale="tiny", config=tiny())
        addrs = [
            a for kdoc in doc["kernels"]
            for a in kdoc["nonlinear_addresses"]
        ]
        assert addrs, "BFS has data-dependent addresses"
        for addr in addrs:
            assert addr["chain"], (
                f"nonlinear address at pc {addr['pc']} has no chain"
            )


def kdoc_list(doc):
    return doc["kernels"]


class TestCliErrors:
    def test_explain_unknown_abbr_exits_2(self, capsys):
        rc = cli.main(["explain", "NOPE"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one-line error
        assert "BP" in err and "unknown workload" in err

    def test_profile_unknown_abbr_exits_2(self, capsys):
        rc = cli.main(["profile", "NOPE"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "BFS" in err and "unknown workload" in err

    def test_explain_cli_writes_artifacts(self, tmp_path, capsys):
        json_out = tmp_path / "bp.json"
        html_out = tmp_path / "bp.html"
        rc = cli.main([
            "explain", "BP", "--scale", "tiny", "--sms", "2",
            "--json", str(json_out), "--html", str(html_out),
        ])
        assert rc == 0
        doc = json.loads(json_out.read_text())
        assert doc["schema"] == EXPLAIN_SCHEMA
        assert html_out.read_text().startswith("<!DOCTYPE html>")
        out = capsys.readouterr().out
        assert "Fig-12" in out


# ----------------------------------------------------------------------
# Unified engine decisions in WorkloadResult
# ----------------------------------------------------------------------
class TestEngineDecisions:
    def test_both_engines_report_through_one_list(self):
        from repro.harness.runner import run_workload

        result = run_workload(
            factory("BP", "tiny"), config=tiny(),
            arch_names=("baseline",), cache=False,
        )
        engines = {d["engine"] for d in result.engine_decisions}
        assert engines == {"vector"}
        for entry in result.engine_decisions:
            assert entry["decision"] in ("engage", "skip", "bail")

    def test_fallback_counters_preserved(self, monkeypatch):
        """engine_fallback keeps the documented counter names."""
        monkeypatch.setenv("R2D2_VECTOR", "0")
        from repro.harness.runner import run_workload

        run_workload(
            factory("BP", "tiny"), config=tiny(),
            arch_names=("baseline",), cache=False,
        )
        counters = obs.snapshot()["counters"]
        assert any(
            key.startswith("vector.ineligible")
            and "reason=disabled" in key
            for key in counters
        )
