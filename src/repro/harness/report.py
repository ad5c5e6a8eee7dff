"""Plain-text report formatting for experiment results."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean.

    Negative inputs raise (a negative speedup/ratio is always an
    upstream bug — clamping it to a tiny positive number would mask it
    as a plausible-looking result); an empty sequence returns ``NaN``
    (rendered ``n/a`` by :class:`Table`), never a fake ``0.0``; any
    exact zero makes the mean zero.
    """
    vals = list(values)
    if not vals:
        return math.nan
    for v in vals:
        if v < 0:
            raise ValueError(
                f"geomean of a negative value ({v!r}); inputs must be "
                ">= 0"
            )
    if any(v == 0 for v in vals):
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else math.nan


class Table:
    """A simple aligned-column table with an optional summary row.

    The summary row (:meth:`set_summary`) renders below a second
    separator — the suite figures put their AVG/GEOMEAN rows there so
    per-app rows and the aggregate are visually and programmatically
    distinct (``table.rows`` holds only the per-app rows).
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []
        self.summary: Optional[List[str]] = None

    def add_row(self, *cells: object) -> None:
        self.rows.append(self._cells(cells))

    def set_summary(self, *cells: object) -> None:
        """Set the summary row (same arity as the data rows)."""
        self.summary = self._cells(cells)

    def _cells(self, cells: Sequence[object]) -> List[str]:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        return [_fmt(c) for c in cells]

    def render(self) -> str:
        all_rows = self.rows + (
            [self.summary] if self.summary is not None else []
        )
        widths = [len(c) for c in self.columns]
        for row in all_rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(
            c.ljust(widths[i]) for i, c in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))

        def fmt_row(row: List[str]) -> str:
            return "  ".join(
                cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                for i, cell in enumerate(row)
            )

        for row in self.rows:
            lines.append(fmt_row(row))
        if self.summary is not None:
            lines.append("-" * len(header))
            lines.append(fmt_row(self.summary))
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "n/a"
        return f"{value:.3f}"
    return str(value)


def percent(value: float) -> str:
    if math.isnan(value):
        return "n/a"
    return f"{100.0 * value:.1f}%"


# ----------------------------------------------------------------------
# Observability summary (``python -m repro profile`` / ``--metrics-out``)
# ----------------------------------------------------------------------
def obs_phase_table(snapshot: Dict[str, object]) -> Table:
    """Per-phase wall-time table from a snapshot's span trees.

    Nested phases indent under their parent; ``share`` is each node's
    share of the total wall-time of all top-level spans.
    """
    spans: List[dict] = list(snapshot.get("spans") or [])
    total = sum(float(s.get("total_s", 0.0)) for s in spans) or math.nan
    table = Table(
        "Phase profile", ["phase", "count", "total_s", "share"]
    )

    def walk(node: dict, depth: int) -> None:
        t = float(node.get("total_s", 0.0))
        table.add_row(
            "  " * depth + str(node.get("name", "?")),
            int(node.get("count", 0)),
            f"{t:.4f}",
            percent(t / total),
        )
        for child in node.get("children") or ():
            walk(child, depth + 1)

    for span in spans:
        walk(span, 0)
    return table


def obs_kernel_table(snapshot: Dict[str, object]) -> Table:
    """Per-kernel fast-path counters (timing-engine mix, dedup replay,
    megawarp vectorization) from a snapshot's flattened counter keys.

    The ``timing`` column renders the engine mix per kernel (``dedup``,
    ``fast``, ``reference``, ``verify``), with dedup decline reasons in
    brackets, e.g. ``fast x4 [scheduler-rr x4]``."""
    from ..obs import parse_key

    counters: Dict[str, float] = dict(snapshot.get("counters") or {})
    per_kernel: Dict[str, Dict[str, float]] = {}
    vreasons: Dict[str, Dict[str, int]] = {}
    tengines: Dict[str, Dict[str, int]] = {}
    dfallbacks: Dict[str, Dict[str, int]] = {}
    for flat, value in counters.items():
        name, labels = parse_key(flat)
        kernel = labels.get("kernel")
        if kernel is None:
            continue
        bucket = per_kernel.setdefault(kernel, {})
        bucket[name] = bucket.get(name, 0) + value
        if name in ("vector.ineligible", "vector.bailed"):
            slug = labels.get("reason", "")
            if slug:
                vbucket = vreasons.setdefault(kernel, {})
                vbucket[slug] = vbucket.get(slug, 0) + int(value)
        if name == "timing.engine":
            engine = labels.get("engine", "?")
            tbucket = tengines.setdefault(kernel, {})
            tbucket[engine] = tbucket.get(engine, 0) + int(value)
        if name == "dedup.fallback":
            slug = labels.get("reason", "")
            if slug:
                dbucket = dfallbacks.setdefault(kernel, {})
                dbucket[slug] = dbucket.get(slug, 0) + int(value)

    table = Table(
        "Per-kernel fast-path counters",
        ["kernel", "timing", "dedup_sms", "cloned", "vwarps", "vtotal",
         "vfallback"],
    )
    for kernel in sorted(per_kernel):
        c = per_kernel[kernel]
        timing = format_fallbacks(tengines.get(kernel, {}))
        dfall = format_fallbacks(dfallbacks.get(kernel, {}))
        if dfall:
            timing = f"{timing} [{dfall}]" if timing else f"[{dfall}]"
        table.add_row(
            kernel[:28],
            timing,
            int(c.get("dedup.sms.simulated", 0)),
            int(c.get("dedup.sms.cloned", 0)),
            int(c.get("vector.warps_vectorized", 0)),
            int(c.get("vector.warps_total", 0)),
            format_fallbacks(vreasons.get(kernel, {})),
        )
    return table


def obs_decision_table(snapshot: Dict[str, object]) -> Table:
    """The unified decision trace (engine skip/bail/engage, analyzer
    demotions, dedup opt-outs, cache hits/misses) as a table."""
    table = Table(
        "Engine decisions",
        ["engine", "decision", "kernel", "reason", "pc", "count"],
    )
    for entry in snapshot.get("decisions") or ():
        if not isinstance(entry, dict):
            continue
        pc = entry.get("pc")
        table.add_row(
            str(entry.get("engine", "?")),
            str(entry.get("decision", "?")),
            str(entry.get("kernel", "") or "")[:28],
            str(entry.get("reason", "")),
            "" if pc is None else pc,
            int(entry.get("count", 1)),
        )
    return table


def shard_utilization_table(report: Dict[str, object]) -> Table:
    """Per-worker utilization of a sharded suite run, from a
    :meth:`repro.perf.shard.ShardReport.to_dict` document."""
    wall = float(report.get("wall_s", 0.0) or 0.0)
    table = Table(
        f"Shard schedule: plan={report.get('plan', '?')}"
        f" workers={report.get('workers', '?')}"
        f" wall={wall:.1f}s"
        f" (skipped {report.get('cells_skipped', 0)}"
        f"/{report.get('cells_total', 0)} cells,"
        f" {report.get('steals', 0)} steals)",
        ["worker", "cells", "busy_s", "util", "stolen", "lost"],
    )
    busy_total = 0.0
    cells_total = 0
    for row in report.get("per_worker") or ():
        busy = float(row.get("busy_s", 0.0))
        busy_total += busy
        cells_total += int(row.get("cells", 0))
        table.add_row(
            f"w{row.get('worker', '?')}",
            int(row.get("cells", 0)),
            f"{busy:.2f}",
            percent(busy / wall) if wall > 0 else "n/a",
            int(row.get("stolen", 0)),
            "yes" if row.get("lost") else "",
        )
    serial = int(report.get("cells_serial", 0) or 0)
    if serial:
        table.add_row("serial", serial, "", "", "", "")
    table.set_summary(
        "TOTAL",
        cells_total + serial,
        f"{busy_total:.2f}",
        percent(float(report.get("utilization", 0.0) or 0.0)),
        int(report.get("steals", 0) or 0),
        "",
    )
    return table


def format_fallbacks(slugs: Dict[str, int]) -> str:
    """Render fallback slug counts as ``slug x3, other`` (count omitted
    when 1), most frequent first."""
    parts = []
    for slug, count in sorted(
        slugs.items(), key=lambda kv: (-kv[1], kv[0])
    ):
        parts.append(f"{slug} x{count}" if count > 1 else slug)
    return ", ".join(parts)


#: Headline totals surfaced under the tables; (label, counter name).
_HEADLINE_COUNTERS = (
    ("trace-cache hits", "cache.hit"),
    ("trace-cache misses", "cache.miss"),
    ("trace-cache bytes read", "cache.bytes_read"),
    ("trace-cache bytes written", "cache.bytes_written"),
    ("parallel demotions", "parallel.demotions"),
    ("invalid R2D2_JOBS values", "parallel.invalid_jobs"),
    ("oracle violations", "oracle.violations"),
)


def obs_summary(snapshot: Dict[str, object]) -> str:
    """The full observability summary section: phase profile, per-kernel
    counters, and headline totals."""
    from ..obs import parse_key

    counters: Dict[str, float] = dict(snapshot.get("counters") or {})
    totals: Dict[str, float] = {}
    for flat, value in counters.items():
        name, _ = parse_key(flat)
        totals[name] = totals.get(name, 0) + value

    parts = [obs_phase_table(snapshot).render(), ""]
    kernels = obs_kernel_table(snapshot)
    if kernels.rows:
        parts += [kernels.render(), ""]
    decisions = obs_decision_table(snapshot)
    if decisions.rows:
        parts += [decisions.render(), ""]
    lines = [
        f"  {label:<26}: {int(totals[name])}"
        for label, name in _HEADLINE_COUNTERS
        if name in totals
    ]
    if lines:
        parts += ["Run counters", "------------"] + lines
    return "\n".join(parts).rstrip()
