"""``python -m repro explain``: decision-provenance reports.

Answers the question the counters cannot: *why* did R2D2 keep an
instruction in the non-linear stream, and what would recover it?  For
one workload the report combines

- **static attribution** — per kernel, every instruction labelled
  removed/kept with its :class:`~repro.linear.analyzer.LinearKind`, the
  demotion reason slug for everything that left the linear domain, and
  the causal chain back to the first offending instruction (paper
  Fig. 12's removable set, at instruction granularity);
- **dynamic numbers** — the same ``run_workload`` the figure harness
  uses, so the reported instruction reduction is *exactly* the Fig-12
  cell for this workload;
- **the unified decision trace** — analyzer demotions, engine
  skip/bail/engage outcomes, cache hits/misses.

Output shapes: a terminal report (:func:`render_text`), a JSON document
(:func:`build_explanation`; schema documented in docs/OBSERVABILITY.md)
and a self-contained HTML page (:func:`render_html`).
"""

from __future__ import annotations

import html as _html
import time
from typing import Dict, List, Optional

from .. import obs
from ..linear.analyzer import AnalysisResult, LinearKind
from ..sim.gpu import Device
from ..transform.decouple import R2D2Kernel, r2d2_transform
from ..workloads import factory
from .experiments import bench_config
from .report import Table, percent
from .runner import run_workload

#: Version of the explanation document shape (validated by the CI
#: explain-smoke step against docs/OBSERVABILITY.md).
EXPLAIN_SCHEMA = 1

#: Kinds whose producing instruction leaves the non-linear stream.
_REMOVABLE_KINDS = frozenset(
    {
        LinearKind.SCALAR,
        LinearKind.THREAD,
        LinearKind.BLOCK,
        LinearKind.FULL,
    }
)


def _chain_doc(analysis: AnalysisResult, pc: int) -> List[Dict[str, object]]:
    return [ev.to_dict() for ev in analysis.causal_chain(pc)]


def _kernel_explanation(rkernel: R2D2Kernel) -> Dict[str, object]:
    """Static removable/blocked attribution for one transformed kernel."""
    analysis = rkernel.analysis
    kernel = rkernel.original
    removed = set(rkernel.removed_pcs)

    instructions: List[Dict[str, object]] = []
    blocking: Dict[str, Dict[str, object]] = {}
    for pc, instr in enumerate(kernel.instructions):
        kind = analysis.kind_by_pc.get(pc, LinearKind.NONLINEAR)
        entry: Dict[str, object] = {
            "pc": pc,
            "text": str(instr),
            "kind": kind.value,
            "removed": pc in removed,
        }
        event = analysis.demotion_by_pc.get(pc)
        if event is not None:
            entry["reason"] = event.reason
            if event.cause_pc is not None:
                entry["cause_pc"] = event.cause_pc
            chain = _chain_doc(analysis, pc)
            if len(chain) > 1:
                entry["chain"] = chain
            bucket = blocking.setdefault(
                event.reason, {"reason": event.reason, "count": 0,
                               "pcs": []}
            )
            bucket["count"] += 1  # type: ignore[operator]
            bucket["pcs"].append(pc)  # type: ignore[union-attr]
        instructions.append(entry)

    addresses: List[Dict[str, object]] = []
    for addr in analysis.nonlinear_addresses:
        doc = addr.to_dict()
        if addr.cause_pc is not None:
            chain = _chain_doc(analysis, addr.cause_pc)
        else:
            chain = []
        if not chain:
            # Every nonlinear address gets at least one chain entry,
            # even when the base register was never defined in-kernel.
            chain = [{
                "pc": addr.cause_pc if addr.cause_pc is not None else -1,
                "opcode": "?",
                "kind": LinearKind.NONLINEAR.value,
                "reason": "undefined-base",
                "detail": f"no tracked definition of {addr.reg}",
            }]
        doc["chain"] = chain
        addresses.append(doc)

    return {
        "kernel": kernel.name,
        "static_total": len(kernel.instructions),
        "static_removed": rkernel.removed_static,
        "static_reduction": rkernel.static_reduction,
        "uniform_updates": sorted(analysis.uniform_updates),
        "instructions": instructions,
        "blocking_reasons": sorted(
            blocking.values(),
            key=lambda b: (-b["count"], b["reason"]),  # type: ignore
        ),
        "nonlinear_addresses": addresses,
    }


def build_explanation(
    abbr: str,
    scale: str = "small",
    sms: int = 4,
    jobs: Optional[int] = None,
    config=None,
) -> Dict[str, object]:
    """The full explanation document for one workload.

    Runs the workload through ``baseline`` and ``r2d2`` with the very
    same :func:`run_workload` / :func:`bench_config` recipe the figure
    harness uses (cache off), so ``dynamic.instruction_reduction`` is
    the Fig-12 cell for this workload, then re-transforms each kernel
    for the per-instruction attribution.
    """
    config = config or bench_config(sms)

    obs.reset()
    t0 = time.time()
    result = run_workload(
        factory(abbr, scale), config=config,
        arch_names=("baseline", "r2d2"), jobs=jobs, cache=False,
    )

    workload = factory(abbr, scale)()
    launches = workload.prepare(Device(config))
    kernels: List = []
    seen = set()
    for spec in launches:
        if spec.kernel.name not in seen:
            seen.add(spec.kernel.name)
            kernels.append(spec.kernel)

    kernel_docs = [
        _kernel_explanation(r2d2_transform(kernel)) for kernel in kernels
    ]
    wall = time.time() - t0
    snapshot = obs.snapshot()

    return {
        "schema": EXPLAIN_SCHEMA,
        "abbr": result.abbr,
        "scale": result.scale,
        "sms": config.num_sms,
        "wall_s": round(wall, 3),
        "kernels": kernel_docs,
        "dynamic": {
            "arch": "r2d2",
            "instruction_reduction": result.instruction_reduction("r2d2"),
            "thread_instruction_reduction":
                result.thread_instruction_reduction("r2d2"),
            "speedup": result.speedup("r2d2"),
            "verified": result.verified,
        },
        "engine_decisions": result.engine_decisions,
        "decisions": snapshot.get("decisions", []),
    }


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def render_text(doc: Dict[str, object]) -> str:
    """The terminal report."""
    dyn = doc["dynamic"]
    parts = [
        f"explain: {doc['abbr']} scale={doc['scale']} sms={doc['sms']}",
        (
            f"dynamic (Fig-12 cell): warp-instruction reduction "
            f"{percent(dyn['instruction_reduction'])}, "
            f"thread-instruction reduction "
            f"{percent(dyn['thread_instruction_reduction'])}, "
            f"speedup {dyn['speedup']:.3f}x"
        ),
        "",
    ]
    for kdoc in doc["kernels"]:
        table = Table(
            f"{kdoc['kernel']}: {kdoc['static_removed']}/"
            f"{kdoc['static_total']} static instructions removed "
            f"({percent(kdoc['static_reduction'])})",
            ["pc", "fate", "kind", "reason", "instruction"],
        )
        for entry in kdoc["instructions"]:
            reason = entry.get("reason", "")
            cause = entry.get("cause_pc")
            if cause is not None:
                reason += f" <- pc {cause}"
            table.add_row(
                entry["pc"],
                "removed" if entry["removed"] else "kept",
                entry["kind"],
                reason,
                entry["text"],
            )
        parts += [table.render(), ""]

        if kdoc["blocking_reasons"]:
            parts.append("Top blocking reasons:")
            for bucket in kdoc["blocking_reasons"]:
                pcs = ", ".join(str(pc) for pc in bucket["pcs"][:8])
                parts.append(
                    f"  {bucket['reason']:<28} x{bucket['count']}"
                    f"  (pc {pcs})"
                )
            parts.append("")
        if kdoc["nonlinear_addresses"]:
            parts.append("Nonlinear addresses (causal chains):")
            for addr in kdoc["nonlinear_addresses"]:
                steps = " <- ".join(
                    f"pc {step['pc']} {step.get('reason', '?')}"
                    for step in addr["chain"]
                )
                parts.append(
                    f"  pc {addr['pc']} [{addr['reg']}]: {steps}"
                )
            parts.append("")

    decisions = list(doc.get("decisions") or [])
    if decisions:
        table = Table(
            "Engine decisions",
            ["engine", "decision", "kernel", "reason", "pc", "count"],
        )
        for entry in decisions:
            pc = entry.get("pc")
            table.add_row(
                entry.get("engine", "?"),
                entry.get("decision", "?"),
                entry.get("kernel", "") or "",
                entry.get("reason", ""),
                "" if pc is None else pc,
                entry.get("count", 1),
            )
        parts += [table.render(), ""]
    return "\n".join(parts).rstrip()


def render_html(doc: Dict[str, object]) -> str:
    """A self-contained HTML page (the CI build artifact)."""
    esc = _html.escape
    dyn = doc["dynamic"]
    out = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>repro explain {esc(str(doc['abbr']))}</title>",
        "<style>",
        "body{font-family:monospace;margin:2em;background:#fdfdfd}",
        "table{border-collapse:collapse;margin:1em 0}",
        "td,th{border:1px solid #bbb;padding:2px 8px;text-align:left}",
        "tr.removed{background:#e6ffe6}",
        "tr.blocked{background:#ffe9e6}",
        ".chain{color:#8a2d2d}",
        "</style></head><body>",
        f"<h1>repro explain: {esc(str(doc['abbr']))} "
        f"(scale={esc(str(doc['scale']))}, {doc['sms']} SMs)</h1>",
        "<p>Dynamic (Fig-12 cell): warp-instruction reduction "
        f"<b>{percent(dyn['instruction_reduction'])}</b>, speedup "
        f"<b>{dyn['speedup']:.3f}x</b></p>",
    ]
    for kdoc in doc["kernels"]:
        out.append(
            f"<h2>{esc(kdoc['kernel'])} &mdash; "
            f"{kdoc['static_removed']}/{kdoc['static_total']} removed "
            f"({percent(kdoc['static_reduction'])})</h2>"
        )
        out.append(
            "<table><tr><th>pc</th><th>fate</th><th>kind</th>"
            "<th>reason</th><th>instruction</th></tr>"
        )
        for entry in kdoc["instructions"]:
            cls = "removed" if entry["removed"] else (
                "blocked" if entry.get("reason") else ""
            )
            reason = entry.get("reason", "")
            if entry.get("cause_pc") is not None:
                reason += f" &larr; pc {entry['cause_pc']}"
            out.append(
                f"<tr class='{cls}'><td>{entry['pc']}</td>"
                f"<td>{'removed' if entry['removed'] else 'kept'}</td>"
                f"<td>{esc(entry['kind'])}</td>"
                f"<td>{reason}</td>"
                f"<td>{esc(entry['text'])}</td></tr>"
            )
        out.append("</table>")
        if kdoc["nonlinear_addresses"]:
            out.append("<h3>Nonlinear addresses</h3><ul>")
            for addr in kdoc["nonlinear_addresses"]:
                steps = " &larr; ".join(
                    esc(f"pc {step['pc']} {step.get('reason', '?')}")
                    for step in addr["chain"]
                )
                out.append(
                    f"<li>pc {addr['pc']} [{esc(addr['reg'])}]: "
                    f"<span class='chain'>{steps}</span></li>"
                )
            out.append("</ul>")
    decisions = list(doc.get("decisions") or [])
    if decisions:
        out.append("<h2>Engine decisions</h2>")
        out.append(
            "<table><tr><th>engine</th><th>decision</th><th>kernel</th>"
            "<th>reason</th><th>pc</th><th>count</th></tr>"
        )
        for entry in decisions:
            pc = entry.get("pc")
            out.append(
                f"<tr><td>{esc(str(entry.get('engine', '?')))}</td>"
                f"<td>{esc(str(entry.get('decision', '?')))}</td>"
                f"<td>{esc(str(entry.get('kernel', '') or ''))}</td>"
                f"<td>{esc(str(entry.get('reason', '')))}</td>"
                f"<td>{'' if pc is None else pc}</td>"
                f"<td>{entry.get('count', 1)}</td></tr>"
            )
        out.append("</table>")
    out.append("</body></html>")
    return "\n".join(out)
