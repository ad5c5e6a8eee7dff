"""Set-associative LRU cache models for L1 (per SM) and L2 (shared).

Each set is one dict whose insertion order is its LRU order, least
recently used first: a hit deletes the line and re-inserts it at the
back, and a fill into a full set evicts ``next(iter(set))``.  Every
transaction is probed one line at a time: plain dicts measured faster
than numpy tag/stamp arrays with a vectorized all-hit probe on every
benchmark workload, multi-line records included (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .config import CacheConfig


@dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.accesses += other.accesses
        self.hits += other.hits


class Cache:
    """A set-associative LRU cache over line addresses.

    ``access`` returns True on hit.  Write allocation matches the GPU
    model we target: global stores write through and allocate (L2) /
    no-allocate (L1) — controlled by the caller.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._line_bytes = config.line_bytes
        #: per set, its resident lines in LRU order (values unused)
        self._sets: List[Dict[int, None]] = [
            {} for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()

    def access(self, line_addr: int, allocate: bool = True) -> bool:
        """Probe one line; on miss optionally fill it. Returns hit."""
        stats = self.stats
        stats.accesses += 1
        lines = self._sets[(line_addr // self._line_bytes) % self.num_sets]
        if line_addr in lines:
            stats.hits += 1
            del lines[line_addr]
            lines[line_addr] = None
            return True
        if allocate:
            if len(lines) >= self.ways:
                del lines[next(iter(lines))]
            lines[line_addr] = None
        return False

    # ------------------------------------------------------------------
    # Snapshot support (used by the event-driven timing engine to roll
    # back probe accesses when an SM-clone attempt turns out not to be
    # exact, and by ``TimingSimulator.run_verify`` to replay from the
    # same L2 state).
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """Capture the full replacement state and statistics."""
        return (
            [lines.copy() for lines in self._sets],
            self.stats.accesses,
            self.stats.hits,
        )

    def restore(self, snap: tuple) -> None:
        """Return to a previously captured :meth:`snapshot` state.  The
        sets are copied again, so one snapshot can be restored more than
        once."""
        sets, accesses, hits = snap
        self._sets = [lines.copy() for lines in sets]
        self.stats.accesses = accesses
        self.stats.hits = hits


@dataclass
class MemoryAccessResult:
    """Latency and event counts for one coalesced global access."""

    latency: int
    l1_hits: int = 0
    l2_hits: int = 0
    dram_accesses: int = 0


class MemoryHierarchy:
    """L1 (per SM) in front of a shared L2 in front of DRAM."""

    def __init__(self, l1: Cache, l2: Cache, latencies) -> None:
        self.l1 = l1
        self.l2 = l2
        self.lat = latencies

    def access(self, lines, is_store: bool = False) -> MemoryAccessResult:
        """Probe all transactions of one warp memory instruction; the
        instruction's latency is that of its slowest transaction."""
        lat = self.lat
        l1_access, l2_access = self.l1.access, self.l2.access
        allocate = not is_store
        worst = lat.l1_hit
        l1_hits = l2_hits = dram = 0
        for line in lines:
            if l1_access(line, allocate):
                l1_hits += 1
            elif l2_access(line, True):
                l2_hits += 1
                worst = max(worst, lat.l2_hit)
            else:
                dram += 1
                worst = max(worst, lat.dram)
        return MemoryAccessResult(worst, l1_hits, l2_hits, dram)
