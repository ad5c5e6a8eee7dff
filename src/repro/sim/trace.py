"""Execution traces: the interface between functional execution and the
timing/architecture models.

The functional executor runs each kernel once and records one row per
executed warp instruction.  Rows are stored column-wise: each
:class:`KernelTrace` holds one :class:`TraceColumns` table of parallel
numpy arrays, with every warp's rows contiguous in block/warp order and
each :class:`WarpTrace` naming its ``[start, stop)`` row range.
Architecture variants (baseline, DAC, DARSIE, R2D2, the ideal machines)
then replay or analyze these columns without re-executing the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import chain
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..isa.kernel import Kernel, LaunchConfig


@dataclass
class TraceColumns:
    """One launch's records as parallel columns (row ``i`` of every
    column describes the same warp instruction).

    Attributes:
        pc: Static instruction index in the kernel (int32).
        active: Number of active lanes (uint8).
        uniform: All active lanes read identical source values (a
            *scalar* warp instruction — the WP machines' target).
        affine: Destination values form an affine sequence in lane index
            (the DAC machine's target).
        hashed: The row carries a source hash; False for instructions
            that are not skippable (stores, atomics, control).
        src_hash: uint64 hash of (pc, mask, source values) for DARSIE's
            redundant-warp-instruction detection; 0 where not ``hashed``
            (a hashed row may also hash to 0).
        shared: True for shared-memory accesses.
        bank_conflict: For shared-memory accesses, the worst-case number
            of lanes hitting the same 4-byte-interleaved bank (1 = no
            conflict); the LSU serializes conflicting lanes (uint8).
        line_off: ``n + 1`` int32 offsets: row ``i``'s coalesced 128-byte
            global-memory lines are ``lines[line_off[i]:line_off[i+1]]``
            (a launch holds far fewer than 2**31 lines: each takes a
            global-memory record of its own).
        lines: Flat int64 line addresses of every row, in row order.
    """

    pc: np.ndarray
    active: np.ndarray
    uniform: np.ndarray
    affine: np.ndarray
    hashed: np.ndarray
    src_hash: np.ndarray
    shared: np.ndarray
    bank_conflict: np.ndarray
    line_off: np.ndarray
    lines: np.ndarray

    def __len__(self) -> int:
        return len(self.pc)

    @property
    def n_lines(self) -> np.ndarray:
        return np.diff(self.line_off)

    @classmethod
    def from_arrays(cls, pc, active, uniform, affine, hashed, src_hash,
                    shared, bank_conflict, n_lines, lines) -> "TraceColumns":
        """Columns with the canonical dtypes; ``n_lines`` gives each
        row's line count (``lines`` is already flat in row order)."""
        line_off = np.zeros(len(pc) + 1, dtype=np.int32)
        np.cumsum(n_lines, out=line_off[1:])
        return cls(
            pc=np.asarray(pc, dtype=np.int32),
            active=np.asarray(active, dtype=np.uint8),
            uniform=np.asarray(uniform, dtype=bool),
            affine=np.asarray(affine, dtype=bool),
            hashed=np.asarray(hashed, dtype=bool),
            src_hash=np.asarray(src_hash, dtype=np.uint64),
            shared=np.asarray(shared, dtype=bool),
            bank_conflict=np.asarray(bank_conflict, dtype=np.uint8),
            line_off=line_off,
            lines=np.asarray(lines, dtype=np.int64),
        )

    @classmethod
    def from_rows(cls, rows: Sequence[tuple]) -> "TraceColumns":
        """Columns from per-record tuples ``(pc, active, uniform, affine,
        src_hash, shared, bank_conflict, lines)``, where ``src_hash`` is
        ``None`` for unhashed rows and ``lines`` a tuple or ``None``."""
        if not rows:
            return cls.empty()
        pc, act, uni, aff, hsh, sh, bank, lns = zip(*rows)
        return cls.from_arrays(
            pc, act, uni, aff,
            [h is not None for h in hsh],
            np.fromiter((h or 0 for h in hsh), dtype=np.uint64,
                        count=len(hsh)),
            sh, bank,
            [len(x) if x else 0 for x in lns],
            np.fromiter(chain.from_iterable(x for x in lns if x),
                        dtype=np.int64),
        )

    @classmethod
    def empty(cls) -> "TraceColumns":
        return cls.from_arrays(*([()] * 10))

    @classmethod
    def concat(cls, parts: Sequence["TraceColumns"]) -> "TraceColumns":
        out = {
            f.name: np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(cls)
            if f.name != "line_off"
        }
        return cls.from_arrays(
            n_lines=np.concatenate([p.n_lines for p in parts]), **out
        )

    def take(self, order: np.ndarray) -> "TraceColumns":
        """Rows reordered (or selected) by ``order``, line segments
        included."""
        n_lines = self.n_lines[order]
        total = int(n_lines.sum())
        # Gather each row's line segment: positions run from its old
        # start, laid out at its new start.
        new_off = np.zeros(len(order) + 1, dtype=np.int32)
        np.cumsum(n_lines, out=new_off[1:])
        src = (
            np.repeat(self.line_off[:-1][order] - new_off[:-1], n_lines)
            + np.arange(total, dtype=np.int64)
        )
        out = {
            f.name: getattr(self, f.name)[order]
            for f in fields(self)
            if f.name not in ("line_off", "lines")
        }
        return TraceColumns(line_off=new_off, lines=self.lines[src], **out)

    def row_lines(self, i: int) -> Tuple[int, ...]:
        return tuple(
            self.lines[self.line_off[i]:self.line_off[i + 1]].tolist()
        )


@dataclass
class WarpTrace:
    """One warp's records: rows ``[start, stop)`` of the launch's
    :class:`TraceColumns`."""

    block_linear_id: int
    warp_in_block: int
    start: int = 0
    stop: int = 0

    def __len__(self) -> int:
        return self.stop - self.start


@dataclass
class BlockTrace:
    """Per-thread-block traces, in warp order."""

    block_linear_id: int
    block_xyz: Tuple[int, int, int]
    warps: List[WarpTrace] = field(default_factory=list)

    def warp_instruction_count(self) -> int:
        return sum(len(w) for w in self.warps)


@dataclass
class WitnessVerdict:
    """Outcome of the operand witness on one launch of an original
    kernel (see :class:`~repro.sim.executor.Witness`): ``rows`` warp
    instructions at rewritten pcs were checked, and ``failure`` names
    the first lane disagreement (empty when every lane agreed; checking
    stops there)."""

    rows: int = 0
    failure: str = ""

    @property
    def ok(self) -> bool:
        return not self.failure


@dataclass
class KernelTrace:
    """The full trace of one kernel launch."""

    kernel: Kernel
    launch: LaunchConfig
    blocks: List[BlockTrace] = field(default_factory=list)
    cols: TraceColumns = field(default_factory=TraceColumns.empty)
    #: Always ``None``: the block-trace extrapolator that filled it is
    #: gone, and the field stays only for readers that still check it.
    extrapolation: Optional[object] = None
    #: Outcome of the megawarp vectorization attempt for this launch
    #: (a ``VectorReport``); ``None`` when the serial interpreter ran
    #: alone (``run_reference``, or an executor subclass, which never
    #: attempts the megawarp).
    vector: Optional[object] = None
    #: The operand witness's :class:`WitnessVerdict` when the launch ran
    #: with one (the baseline launches R2D2 derives its traces from);
    #: ``None`` otherwise.
    witness: Optional[WitnessVerdict] = None

    # ------------------------------------------------------------------
    def warp_instruction_count(self) -> int:
        return len(self.cols)

    def thread_instruction_count(self) -> int:
        return int(self.cols.active.sum(dtype=np.int64))

    def set_rows(self, warp_rows: Sequence[Sequence[tuple]]) -> None:
        """Adopt per-warp record tuples (see
        :meth:`TraceColumns.from_rows`), one list per warp of
        ``self.blocks`` in block/warp order."""
        pos = 0
        for warp, rows in zip(
            (w for b in self.blocks for w in b.warps), warp_rows
        ):
            warp.start = pos
            pos += len(rows)
            warp.stop = pos
        self.cols = TraceColumns.from_rows(
            [r for rows in warp_rows for r in rows]
        )

    def derive(self, kernel: Kernel, new_pc: np.ndarray) -> "KernelTrace":
        """The trace of this launch run as ``kernel``, a copy of this
        trace's kernel with some pcs removed: ``new_pc[pc]`` is a kept
        pc's index in ``kernel``, -1 a removed one's.  Rows at removed
        pcs are dropped, every other column is kept as is (``src_hash``
        still hashes the original pc and operands), and each warp's row
        range is re-cut."""
        mapped = new_pc[self.cols.pc]
        keep = mapped >= 0
        rows = np.flatnonzero(keep)
        cols = self.cols.take(rows)
        cols.pc = mapped[rows].astype(np.int32)
        pos = np.zeros(len(keep) + 1, dtype=np.int64)
        np.cumsum(keep, out=pos[1:])
        pos = pos.tolist()
        blocks = [
            BlockTrace(b.block_linear_id, b.block_xyz, [
                WarpTrace(w.block_linear_id, w.warp_in_block,
                          pos[w.start], pos[w.stop])
                for w in b.warps
            ])
            for b in self.blocks
        ]
        return KernelTrace(kernel, self.launch, blocks, cols)

    def row_blocks(self) -> np.ndarray:
        """Per row: the index into ``self.blocks`` of its block."""
        sizes = [b.warp_instruction_count() for b in self.blocks]
        return np.repeat(
            np.arange(len(sizes), dtype=np.int64), sizes
        )


#: Record columns :func:`trace_differences` compares; ``lines`` is
#: compared per row.
RECORD_FIELDS = (
    "pc", "active", "uniform", "affine", "hashed", "src_hash", "shared",
    "bank_conflict",
)


def trace_differences(xblocks: List[BlockTrace], xcols: TraceColumns,
                      sblocks: List[BlockTrace], scols: TraceColumns,
                      fields: Sequence[str] = RECORD_FIELDS) -> List[str]:
    """Up to a few dozen human-readable differences between two traces
    of one launch: block identities, warp row ranges, and every
    ``fields`` column plus ``lines``, row by row (``s`` is the
    reference side)."""
    if len(xblocks) != len(sblocks):
        return [f"block count {len(xblocks)} != {len(sblocks)}"]
    diffs: List[str] = []
    for xb, sb in zip(xblocks, sblocks):
        where = f"block {sb.block_linear_id}"
        if (xb.block_linear_id, xb.block_xyz) != (
            sb.block_linear_id, sb.block_xyz
        ):
            diffs.append(f"{where}: identity mismatch")
        elif [(w.warp_in_block, w.start, w.stop) for w in xb.warps] != [
            (w.warp_in_block, w.start, w.stop) for w in sb.warps
        ]:
            diffs.append(
                f"{where}: warp row ranges "
                f"{[len(w) for w in xb.warps]} != "
                f"{[len(w) for w in sb.warps]} records"
            )
        if len(diffs) > 8:
            return diffs
    if diffs or len(xcols) != len(scols):
        return diffs or [f"{len(xcols)} records != {len(scols)}"]
    # Rows line up: find every differing (row, column).
    bad = np.zeros(len(scols), dtype=bool)
    for f in fields:
        bad |= getattr(xcols, f) != getattr(scols, f)
    bad |= xcols.n_lines != scols.n_lines
    if not bad.any():
        # Equal line counts: the flat lines align position by position.
        pos = np.flatnonzero(xcols.lines != scols.lines)
        bad[np.searchsorted(scols.line_off, pos, side="right") - 1] = True
    warps = [w for b in sblocks for w in b.warps]
    for i in np.flatnonzero(bad)[:8].tolist():
        warp = next(w for w in warps if w.start <= i < w.stop)
        head = (
            f"block {warp.block_linear_id} warp {warp.warp_in_block} "
            f"record {i - warp.start}"
        )
        for f in fields + ("lines",):
            if f == "lines":
                a, b = xcols.row_lines(i), scols.row_lines(i)
            else:
                a, b = getattr(xcols, f)[i], getattr(scols, f)[i]
            if a != b:
                diffs.append(f"{head} ({f}): {a!r} != {b!r}")
    return diffs


def bank_conflict_degree(addrs, n_banks: int = 32,
                         bank_bytes: int = 4) -> int:
    """Worst-case lanes mapping to one shared-memory bank (broadcast of
    the exact same word does not conflict, as on real hardware)."""
    if len(addrs) == 0:
        return 1
    words = np.asarray(addrs) // bank_bytes
    banks = words % n_banks
    worst = 1
    for bank in np.unique(banks):
        distinct_words = np.unique(words[banks == bank])
        worst = max(worst, len(distinct_words))
    return int(worst)


#: Global-memory coalescing granularity: one transaction per line.
LINE_BYTES = 128


def coalesce(addrs) -> Tuple[int, ...]:
    """Unique memory-line addresses touched by the active lanes, in
    ascending order — the global-memory transactions of this access."""
    if len(addrs) == 0:
        return ()
    lines = np.unique(np.asarray(addrs) // LINE_BYTES)
    return tuple(int(x) * LINE_BYTES for x in lines)
