"""Set-associative LRU cache models for L1 (per SM) and L2 (shared).

Replacement state is array-backed: per set, a row of line tags and a row
of monotonically increasing last-touch stamps (a global counter), plus a
``line -> way`` dict mirror for O(1) scalar probes.  The stamps are a
total order of touches, so ``argmin`` over a full set's row is exactly
the head of the per-set ``OrderedDict`` this storage replaced, and a
multi-line probe can be answered with one vectorized tag compare
(:meth:`Cache.probe_many`) instead of a per-line Python loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from .config import CacheConfig

#: Minimum transaction count before ``MemoryHierarchy.access`` tries the
#: vectorized all-hit fast path; below this the per-line loop is cheaper
#: than assembling the index arrays.
_BATCH_MIN = 4


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
        self._tags = np.full((self.num_sets, self.ways), -1, dtype=np.int64)
        self._stamp = np.zeros((self.num_sets, self.ways), dtype=np.int64)
        self._clock = 0
        #: per-set ``line -> way`` mirror of ``_tags``.  Invariant: ways
        #: ``0..len(d)-1`` of a set are filled (initial fills go in way
        #: order; evictions replace in place), so ``len(d)`` is the next
        #: free way while the set is not full.
        self._way_of: List[Dict[int, int]] = [
            {} for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()

    def access(self, line_addr: int, allocate: bool = True) -> bool:
        """Probe one line; on miss optionally fill it. Returns hit."""
        self.stats.accesses += 1
        index = (line_addr // self.config.line_bytes) % self.num_sets
        ways = self._way_of[index]
        way = ways.get(line_addr)
        self._clock += 1
        if way is not None:
            self.stats.hits += 1
            self._stamp[index, way] = self._clock
            return True
        if allocate:
            if len(ways) >= self.ways:
                row = self._stamp[index]
                way = int(row.argmin())
                del ways[int(self._tags[index, way])]
            else:
                way = len(ways)
            self._tags[index, way] = line_addr
            self._stamp[index, way] = self._clock
            ways[line_addr] = way
        return False

    def probe_many(self, lines: np.ndarray, sets: np.ndarray) -> np.ndarray:
        """Vectorized membership test for distinct lines; no state
        change.  ``sets`` must be the set index of each line."""
        return (self._tags[sets] == lines[:, None]).any(axis=1)

    def touch_hits(self, lines: np.ndarray, sets: np.ndarray) -> None:
        """Commit a :meth:`probe_many` result that was all hits: bump
        stats and refresh the LRU stamps in line order.  Pure hits never
        move tags, so the batched scatter reproduces the sequential
        outcome exactly."""
        n = len(lines)
        self.stats.accesses += n
        self.stats.hits += n
        hit_ways = np.argmax(self._tags[sets] == lines[:, None], axis=1)
        self._stamp[sets, hit_ways] = np.arange(
            self._clock + 1, self._clock + n + 1, dtype=np.int64
        )
        self._clock += n

    def flush(self) -> None:
        self._tags.fill(-1)
        self._stamp.fill(0)
        self._clock = 0
        for ways in self._way_of:
            ways.clear()

    # ------------------------------------------------------------------
    # Snapshot support (used by the event-driven timing engine to roll
    # back probe accesses when an SM-clone attempt turns out not to be
    # exact, and by ``TimingSimulator.run_verify`` to replay from the
    # same L2 state).
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """Capture the full replacement state and statistics."""
        return (
            self._tags.copy(),
            self._stamp.copy(),
            self._clock,
            [ways.copy() for ways in self._way_of],
            self.stats.accesses,
            self.stats.hits,
        )

    def restore(self, snap: tuple) -> None:
        """Return to a previously captured :meth:`snapshot` state."""
        tags, stamp, clock, way_of, accesses, hits = snap
        self._tags = tags.copy()
        self._stamp = stamp.copy()
        self._clock = clock
        self._way_of = [ways.copy() for ways in way_of]
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
        n = len(lines)
        if n >= _BATCH_MIN:
            # ``coalesce()`` guarantees distinct line addresses, so one
            # vectorized L1 tag compare answers the whole record when
            # every transaction hits (the common case for reuse-heavy
            # kernels); probing mutates nothing, so a partial hit just
            # falls through to the exact per-line loop below.
            arr = np.fromiter(lines, dtype=np.int64, count=n)
            l1 = self.l1
            sets = (arr // l1.config.line_bytes) % l1.num_sets
            if l1.probe_many(arr, sets).all():
                l1.touch_hits(arr, sets)
                return MemoryAccessResult(latency=self.lat.l1_hit, l1_hits=n)
        worst = self.lat.l1_hit
        result = MemoryAccessResult(latency=self.lat.l1_hit)
        for line in lines:
            if self.l1.access(line, allocate=not is_store):
                result.l1_hits += 1
                continue
            if self.l2.access(line, allocate=True):
                result.l2_hits += 1
                worst = max(worst, self.lat.l2_hit)
                continue
            result.dram_accesses += 1
            worst = max(worst, self.lat.dram)
        result.latency = worst
        return result
