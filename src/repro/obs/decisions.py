"""The unified per-run decision trace (decision-level provenance).

Every consequential choice the pipeline makes — an engine declining a
launch (megawarp skip or bail-to-serial, dedup
opt-out), a cache hit or miss, the linear analyzer demoting an
instruction out of the affine domain — is recorded as one typed
:class:`DecisionEvent` in the process-wide :data:`repro.obs.DECISIONS`
trace.  The trace rides the same process-pool snapshot/merge protocol
as the counter registry, appears as a ``"decisions"`` section in
``obs.snapshot()`` / ``--metrics-out run.json``, and backs the
``python -m repro explain`` report.

Events deduplicate by identity key (engine, decision, kernel, reason,
pc, cause_pc): repeats bump a ``count`` and accumulate the unit totals
instead of growing the trace, so a thousand-launch run stays a few
dozen entries.  Collection is gated by ``R2D2_PROVENANCE`` (default
on); disabling it turns :func:`repro.obs.decision` into a no-op for
overhead-sensitive sweeps (the ``compare.py`` provenance-overhead gate
keeps the default under 5%).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

ENV_PROVENANCE = "R2D2_PROVENANCE"

#: Distinct decision keys kept before the trace starts dropping (a
#: run-away guard; real runs stay orders of magnitude below this).
MAX_DECISION_KEYS = 10000

#: Reserved key that counts events dropped past the cap.
_OVERFLOW_KEY = ("obs", "decision-overflow", None, "trace-full", None, None)


def provenance_enabled() -> bool:
    """The ``R2D2_PROVENANCE`` knob (default on)."""
    raw = os.environ.get(ENV_PROVENANCE, "1").strip().lower()
    return raw not in ("0", "off", "false", "no")


@dataclass(frozen=True)
class DecisionEvent:
    """One engine/analyzer decision.

    ``engine`` names the deciding subsystem (``vector``, ``timing``,
    ``dedup``, ``cache``, ``analyzer``); ``decision`` is
    what it decided (``skip``, ``bail``, ``engage``, ``hit``, ``miss``,
    ``demote``, ``promote``, ``retract``); ``reason`` is the
    machine-readable slug shared with the counter labels and event log.
    ``pc``/``cause_pc`` carry instruction provenance for analyzer
    demotions; ``units_total``/``units_taken`` carry work volume for
    engine engagements (blocks, warps).
    """

    engine: str
    decision: str
    kernel: Optional[str] = None
    reason: str = ""
    detail: str = ""
    pc: Optional[int] = None
    cause_pc: Optional[int] = None
    units_total: int = 0
    units_taken: int = 0

    def key(self) -> Tuple:
        return (
            self.engine, self.decision, self.kernel, self.reason,
            self.pc, self.cause_pc,
        )

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "engine": self.engine,
            "decision": self.decision,
        }
        if self.kernel is not None:
            doc["kernel"] = self.kernel
        if self.reason:
            doc["reason"] = self.reason
        if self.detail:
            doc["detail"] = self.detail
        if self.pc is not None:
            doc["pc"] = self.pc
        if self.cause_pc is not None:
            doc["cause_pc"] = self.cause_pc
        if self.units_total:
            doc["units_total"] = self.units_total
        if self.units_taken:
            doc["units_taken"] = self.units_taken
        return doc


class DecisionTrace:
    """Thread-safe, capped, dedup-by-key collection of decisions.

    Mirrors the counter registry's cross-process protocol: workers
    :meth:`snapshot` (a JSON-ready list) and the parent :meth:`merge`
    it; identical keys fold by summing ``count`` and the unit fields,
    so serial and parallel runs produce identical decision totals.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # key -> [first event dict, count, units_total, units_taken]
        self._events: "OrderedDict[Tuple, list]" = OrderedDict()

    # ------------------------------------------------------------------
    def record(self, event: DecisionEvent) -> None:
        self._fold(
            event.key(), event.to_dict(), 1,
            event.units_total, event.units_taken,
        )

    def _fold(self, key: Tuple, doc: Dict[str, object], count: int,
              units_total: int, units_taken: int) -> None:
        with self._lock:
            slot = self._events.get(key)
            if slot is not None:
                slot[1] += count
                slot[2] += units_total
                slot[3] += units_taken
                return
            if (
                len(self._events) >= MAX_DECISION_KEYS
                and key != _OVERFLOW_KEY
            ):
                self._fold_overflow(count)
                return
            self._events[key] = [doc, count, units_total, units_taken]

    def _fold_overflow(self, count: int) -> None:
        slot = self._events.get(_OVERFLOW_KEY)
        if slot is not None:
            slot[1] += count
        else:
            self._events[_OVERFLOW_KEY] = [
                {"engine": "obs", "decision": "decision-overflow",
                 "reason": "trace-full"},
                count, 0, 0,
            ]

    # ------------------------------------------------------------------
    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-ready list of decision dicts, insertion-ordered, each
        carrying a ``count`` (and accumulated unit totals)."""
        with self._lock:
            out = []
            for doc, count, units_total, units_taken in (
                self._events.values()
            ):
                entry = dict(doc)
                entry["count"] = count
                if units_total:
                    entry["units_total"] = units_total
                if units_taken:
                    entry["units_taken"] = units_taken
                out.append(entry)
            return out

    def merge(self, entries) -> None:
        """Fold a snapshot from another process into this one."""
        for entry in entries or ():
            if not isinstance(entry, dict):
                continue
            doc = dict(entry)
            count = int(doc.pop("count", 1) or 1)
            key = (
                doc.get("engine"), doc.get("decision"),
                doc.get("kernel"), doc.get("reason", ""),
                doc.get("pc"), doc.get("cause_pc"),
            )
            self._fold(
                key, doc, count,
                int(doc.get("units_total", 0) or 0),
                int(doc.get("units_taken", 0) or 0),
            )

    def reset(self) -> None:
        with self._lock:
            self._events.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)
