"""Run-level observability: phase profiler, metric registry, exporters.

A zero-dependency (stdlib-only) subsystem the rest of the pipeline
reports into.  Three pieces:

- **Spans** (:mod:`repro.obs.profiler`) — ``with obs.span("analyze"):``
  times hierarchical phases; repeated entries aggregate, so the tree
  stays small over thousands of launches.
- **Counters/gauges** (:mod:`repro.obs.registry`) —
  ``obs.inc("dedup.sms.cloned", 3, kernel=name)`` records typed,
  labelled metrics (dedup replay ratios, megawarp fallback
  reasons, trace-cache hits, parallel-runner demotions, ...).
- **Exporters** (:mod:`repro.obs.export`) — ``R2D2_TRACE_LOG`` appends
  JSON-lines events; :func:`write_metrics` backs the harness
  ``--metrics-out run.json`` flag; ``python -m repro profile`` renders
  the same snapshot as tables.

Process-pool boundary: worker tasks call :func:`reset` on entry, do
their work, and ship :func:`snapshot_and_reset` back with their result;
the parent calls :func:`merge`.  Counters sum, gauges last-write-win,
and span trees graft in at the parent's current span — so a parallel
run reports the same counter totals (and the same profile shape) as a
serial one.

The module-level registry is intentionally global: observability is a
property of the *run*, and threading a handle through every subsystem
would recreate the plumbing this module exists to avoid.  Callers that
need isolation (tests, the profile CLI) bracket their work with
``reset()`` / ``snapshot()``.
"""

from __future__ import annotations

from typing import Dict, Optional

from .decisions import (
    ENV_PROVENANCE,
    DecisionEvent,
    DecisionTrace,
    provenance_enabled,
)
from .export import (
    ENV_TRACE_LOG,
    EXPORT_SCHEMA,
    event,
    load_metrics,
    read_events,
    trace_log_path,
)
from .export import write_metrics as _write_metrics
from .profiler import SpanNode, SpanProfiler
from .registry import MetricsRegistry, flatten_key, parse_key

#: The process-wide registry and profiler every subsystem reports into.
METRICS = MetricsRegistry()
PROFILER = SpanProfiler()
#: The process-wide decision trace (see :mod:`repro.obs.decisions`).
DECISIONS = DecisionTrace()

# -- convenience facade over the globals --------------------------------
inc = METRICS.inc
gauge_set = METRICS.gauge_set
counter_value = METRICS.counter_value
counter_total = METRICS.counter_total
span = PROFILER.span


def decision(
    engine: str,
    what: str,
    *,
    kernel: Optional[str] = None,
    reason: str = "",
    detail: str = "",
    pc: Optional[int] = None,
    cause_pc: Optional[int] = None,
    units_total: int = 0,
    units_taken: int = 0,
) -> None:
    """Record one :class:`DecisionEvent` in the run's decision trace
    (no-op when ``R2D2_PROVENANCE`` is off)."""
    if not provenance_enabled():
        return
    DECISIONS.record(DecisionEvent(
        engine=engine, decision=what, kernel=kernel, reason=reason,
        detail=detail, pc=pc, cause_pc=cause_pc,
        units_total=units_total, units_taken=units_taken,
    ))


def engine_fallback(
    engine: str,
    kernel: str,
    reason: str,
    detail: str = "",
    bailed: bool = False,
) -> None:
    """The one path every engine fallback reports through: bumps the
    engine's ``<engine>.ineligible`` / ``<engine>.bailed`` counter
    (``kernel``/``reason`` labels), appends an ``<engine>.fallback``
    event-log line, and records the :class:`DecisionEvent`."""
    inc(
        f"{engine}.bailed" if bailed else f"{engine}.ineligible",
        kernel=kernel,
        reason=reason,
    )
    event(
        f"{engine}.fallback",
        kernel=kernel,
        reason=reason,
        detail=detail,
        bailed=bailed,
    )
    decision(
        engine, "bail" if bailed else "skip",
        kernel=kernel, reason=reason, detail=detail,
    )


def snapshot() -> Dict[str, object]:
    """The current counters, gauges, span trees, and decision trace
    (JSON-ready)."""
    return {
        "counters": METRICS.counters(),
        "gauges": METRICS.gauges(),
        "spans": PROFILER.tree(),
        "decisions": DECISIONS.snapshot(),
    }


def snapshot_and_reset() -> Dict[str, object]:
    """Snapshot then clear — worker tasks ship the result back with
    their payload so the parent can :func:`merge` it."""
    blob = snapshot()
    reset()
    return blob


def merge(blob: Optional[Dict[str, object]]) -> None:
    """Fold a snapshot from another process into this one."""
    if not blob:
        return
    METRICS.merge_flat(
        blob.get("counters") or {}, blob.get("gauges") or {}
    )
    PROFILER.merge_tree(blob.get("spans") or [])
    DECISIONS.merge(blob.get("decisions") or [])


def reset() -> None:
    """Clear every counter, gauge, span, and decision (between runs,
    not mid-span)."""
    METRICS.reset()
    PROFILER.reset()
    DECISIONS.reset()


def write_metrics(path, meta: Optional[Dict[str, object]] = None) -> None:
    """Export the current snapshot as a ``run.json`` document."""
    _write_metrics(path, snapshot(), meta=meta)


__all__ = [
    "DECISIONS",
    "DecisionEvent",
    "DecisionTrace",
    "ENV_PROVENANCE",
    "ENV_TRACE_LOG",
    "EXPORT_SCHEMA",
    "METRICS",
    "MetricsRegistry",
    "PROFILER",
    "SpanNode",
    "SpanProfiler",
    "counter_total",
    "counter_value",
    "decision",
    "engine_fallback",
    "event",
    "flatten_key",
    "gauge_set",
    "inc",
    "load_metrics",
    "merge",
    "parse_key",
    "provenance_enabled",
    "read_events",
    "reset",
    "snapshot",
    "snapshot_and_reset",
    "span",
    "trace_log_path",
    "write_metrics",
]
