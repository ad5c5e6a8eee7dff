"""Execution traces: the interface between functional execution and the
timing/architecture models.

The functional engines run each kernel once and record one row per
executed warp instruction.  Rows are stored column-wise: each
:class:`KernelTrace` holds one :class:`TraceColumns` table of parallel
numpy arrays, with every warp's rows contiguous in block/warp order and
each :class:`WarpTrace` naming its ``[start, stop)`` row range.
Architecture variants (baseline, DAC, DARSIE, R2D2, the ideal machines)
then replay or analyze these columns without re-executing the program.

Both engines derive the columns here, a PC group at a time: the row
functions (:func:`uniform_cols`, :func:`affine_cols`,
:func:`hash_source_rows`, :func:`coalesce_rows`,
:func:`bank_conflict_rows`) classify a group's raw operands in
:func:`classify_rows`, and :func:`step_columns` and :func:`warp_blocks`
assemble a launch's groups in warp and program order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..isa.kernel import Kernel, LaunchConfig
from ..isa.opcodes import Opcode

WARP_SIZE = 32


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


# ----------------------------------------------------------------------
# Row functions: the derived columns of one PC group
# ----------------------------------------------------------------------
# ``active`` is an ``(R, 32)`` lane mask, one row per warp instruction.
# A source is a python scalar or ``(32,)`` vector shared by every row,
# an ``(R, 1)`` per-row scalar column, or an ``(R, 32)`` per-row lane
# matrix; a memory access's addresses are a full-lane ``(R, 32)``
# matrix whose inactive lanes are ignored.

def uniform_cols(srcs, active: np.ndarray) -> np.ndarray:
    """Per row: every lane-vector source holds one value on all active
    lanes (a *scalar* warp instruction, the WP machines' target).
    Scalars and per-row scalar columns are uniform, as is a row with at
    most one active lane."""
    out = np.ones(active.shape[0], dtype=bool)
    idx0 = every = inactive = None
    for s in srcs:
        if np.ndim(s) == 0:
            continue
        mat = np.asarray(s)
        if mat.ndim == 2 and mat.shape[1] == 1:
            continue
        if idx0 is None:
            idx0 = active.argmax(axis=1)
            every = np.arange(active.shape[0])
            inactive = ~active
        first = mat[idx0] if mat.ndim == 1 else mat[every, idx0]
        same = (mat == first[:, None]) | inactive
        if mat.dtype.kind == "f":
            same[every, idx0] = True  # a lone NaN lane is one value
        out &= same.all(axis=1)
    return out


def affine_cols(result, instr, active: np.ndarray,
                n_act: np.ndarray) -> np.ndarray:
    """Per row: an integer instruction's destination values form an
    affine sequence across its active lanes (the DAC machine's target).

    Requires at least three active lanes: one- or two-lane results are
    vacuously "affine" but carry no exploitable structure, and letting
    them through would let the DAC model lift arbitrary divergent
    computation.  A scalar result is affine on three lanes or more.
    """
    R = active.shape[0]
    if result is None or not instr.dtype.is_integer:
        return np.zeros(R, dtype=bool)
    mat = np.asarray(result)
    if mat.ndim == 0 or (mat.ndim == 2 and mat.shape[1] == 1):
        return n_act >= 3
    if mat.ndim == 1:
        mat = np.broadcast_to(mat, active.shape)
    # Fast path: all rows share one active pattern (full warps, or a
    # group-uniform boundary guard).
    if bool((active == active[0]).all()):
        cols = np.flatnonzero(active[0])
        if cols.size < 3:
            return np.zeros(R, dtype=bool)
        sub = mat if cols.size == WARP_SIZE else mat[:, cols]
        diffs = np.diff(sub, axis=1)
        return (diffs == diffs[:, :1]).all(axis=1)
    # Varying masks: compress each row's active lanes to the front with
    # a stable argsort (False sorts before True on ~active), then a
    # single vectorized diff; positions past a row's active count are
    # padded as matching.
    order = np.argsort(~active, axis=1, kind="stable")
    diffs = np.diff(np.take_along_axis(mat, order, axis=1), axis=1)
    pad = np.arange(diffs.shape[1])[None, :] >= (n_act[:, None] - 1)
    return ((diffs == diffs[:, :1]) | pad).all(axis=1) & (n_act >= 3)


#: Sort key of inactive lanes: past every real line or word.
_NO_ADDR = np.iinfo(np.int64).max


def _distinct_rows(keys: np.ndarray,
                   active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's active ``keys`` sorted ascending (inactive lanes
    last), plus a mask of the first lane of every distinct value."""
    keys = np.where(active, keys, _NO_ADDR)
    keys.sort(axis=1)
    first = np.ones(keys.shape, dtype=bool)
    first[:, 1:] = keys[:, 1:] != keys[:, :-1]
    first &= keys != _NO_ADDR
    return keys, first


#: Global-memory coalescing granularity: one transaction per line.
LINE_BYTES = 128


def coalesce_rows(addrs: np.ndarray,
                  active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The global-memory transactions of each row's access: per-row
    counts of the distinct 128-byte lines its active lanes touch, and
    every row's lines in ascending order, flattened in row order."""
    keys, first = _distinct_rows(addrs // LINE_BYTES, active)
    return first.sum(axis=1), keys[first] * LINE_BYTES


def bank_conflict_rows(addrs: np.ndarray, active: np.ndarray,
                       n_banks: int = 32,
                       bank_bytes: int = 4) -> np.ndarray:
    """Per row: the most distinct 4-byte words any one shared-memory bank
    serves (at least 1); a broadcast of one word does not conflict, as
    on real hardware."""
    words, first = _distinct_rows(addrs // bank_bytes, active)
    R = words.shape[0]
    row = np.broadcast_to(
        np.arange(R, dtype=np.int64)[:, None], words.shape
    )[first]
    per_bank = np.bincount(
        row * n_banks + words[first] % n_banks, minlength=R * n_banks
    ).reshape(R, n_banks)
    return np.maximum(per_bank.max(axis=1), 1)


# ----------------------------------------------------------------------
# Source hashing
# ----------------------------------------------------------------------
# DARSIE's value-based skip detection keys rows on a hash of (pc, active
# mask, source values).  The scheme is a deterministic multiply-sum
# digest over uint64 lane bits: unlike ``hash(bytes)`` it is stable
# across processes, and it vectorizes over the row axis.

_MASK64 = (1 << 64) - 1
_H_PC = 0x9E3779B97F4A7C15
_H_ACT = 0xC2B2AE3D27D4EB4F
_H_SRC = 0x165667B19E3779F9    # per-source chain multiplier
_H_LEN = 0x27D4EB2F165667C5
_H_SCALAR = 0x85EBCA77C2B2AE63
_H_BOOL = 0xD6E8FEB86659FD93


def _make_hash_weights() -> np.ndarray:
    # splitmix64 finalizer over the lane index; |1 keeps weights odd.
    x = np.arange(1, WARP_SIZE + 1, dtype=np.uint64)
    x = x * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x | np.uint64(1)


_H_W = _make_hash_weights()


def _scalar_bits(s) -> int:
    """The 64 bits a scalar source hashes as."""
    if isinstance(s, float):
        return int(np.float64(s).view(np.uint64))
    return int(s) & _MASK64


def _digest_vector(vals: np.ndarray) -> int:
    """Digest of one 1-D lane vector (or active-compressed address
    array)."""
    if vals.dtype == np.bool_:
        packed = int.from_bytes(
            np.packbits(vals, bitorder="little").tobytes(), "little"
        )
        return (packed * _H_BOOL + (vals.size + 64) * _H_LEN) & _MASK64
    if not vals.flags.c_contiguous:
        vals = np.ascontiguousarray(vals)
    u = (
        vals.view(np.uint64)
        if vals.dtype.itemsize == 8
        else vals.astype(np.uint64)
    )
    k = u.size
    acc = int((u * _H_W[:k]).sum(dtype=np.uint64))
    return (acc + (k + 1) * _H_LEN) & _MASK64


def _rows_u64(mat: np.ndarray) -> np.ndarray:
    if not mat.flags.c_contiguous:
        mat = np.ascontiguousarray(mat)
    if mat.dtype.itemsize == 8:
        return mat.view(np.uint64)
    return mat.astype(np.uint64)


def hash_source_rows(pc: int, active: np.ndarray, srcs,
                     addrs: bool = False) -> np.ndarray:
    """Per row: the uint64 hash of (pc, active mask, source values).

    A scalar (shared or a per-row column) hashes its 64 bits and a lane
    vector all 32 lanes; with ``addrs``, ``srcs[0]`` is an address
    matrix hashed per row over its active lanes only, compressed to the
    front."""
    active = np.ascontiguousarray(active)
    packed = (
        np.packbits(active, axis=1, bitorder="little")
        .view(np.uint32)[:, 0]
        .astype(np.uint64)
    )
    h = packed * np.uint64(_H_ACT)
    h ^= np.uint64((_H_PC * (pc + 1)) & _MASK64)
    chain = np.uint64(_H_SRC)
    for i, s in enumerate(srcs):
        if addrs and i == 0:
            counts = active.sum(axis=1, dtype=np.uint64)
            ranks = np.cumsum(active, axis=1) - 1
            w = _H_W[ranks] * active
            d = (_rows_u64(s) * w).sum(axis=1, dtype=np.uint64)
            d += (counts + np.uint64(1)) * np.uint64(_H_LEN)
        elif np.ndim(s) == 0:
            d = np.uint64((_scalar_bits(s) * _H_SCALAR) & _MASK64)
        else:
            vals = np.asarray(s)
            if vals.ndim == 1:
                d = np.uint64(_digest_vector(vals))
            elif vals.shape[1] == 1:
                d = _rows_u64(vals)[:, 0] * np.uint64(_H_SCALAR)
            elif vals.dtype == np.bool_:
                pk = (
                    np.packbits(
                        np.ascontiguousarray(vals), axis=1,
                        bitorder="little",
                    )
                    .view(np.uint32)[:, 0]
                    .astype(np.uint64)
                )
                d = pk * np.uint64(_H_BOOL) + np.uint64(
                    ((vals.shape[1] + 64) * _H_LEN) & _MASK64
                )
            else:
                # uint64 matmul wraps like the multiply-sum it computes
                d = _rows_u64(vals) @ _H_W
                d += np.uint64(((WARP_SIZE + 1) * _H_LEN) & _MASK64)
        h = h * chain + d
    return h


# ----------------------------------------------------------------------
# PC-group steps and their assembly
# ----------------------------------------------------------------------
def classify_rows(rows: np.ndarray, pc: int, instr, active: np.ndarray,
                  result, srcs, n_act: Optional[np.ndarray] = None
                  ) -> tuple:
    """One PC group's step: the derived columns of its warp instructions.

    ``rows`` names each row's warp, ``result`` holds the destination
    values (``None`` for none) and ``srcs`` the source values, a memory
    access's address matrix first.  Returns ``(rows, pc, active counts,
    uniform, affine, source hashes or None, shared, bank conflicts or
    None, (line counts, flat lines) or None)``, the layout
    :func:`step_columns` reads.  Stores, atomics and control carry no
    source hash (they are never skipped)."""
    if n_act is None:
        n_act = active.sum(axis=1)
    addressed = instr.is_global_memory or instr.is_shared_memory
    hashes = bank = lines = None
    if not instr.is_control and (instr.is_load or not addressed):
        hashes = hash_source_rows(pc, active, srcs, addrs=addressed)
    if instr.is_global_memory:
        lines = coalesce_rows(srcs[0], active)
    elif addressed and instr.opcode is not Opcode.ATOM_SHARED:
        bank = bank_conflict_rows(srcs[0], active)
    return (
        rows, pc, n_act, uniform_cols(srcs, active),
        affine_cols(result, instr, active, n_act), hashes,
        instr.is_shared_memory, bank, lines,
    )


def step_columns(steps: Sequence[tuple], n_warps: int,
                 seq: Optional[np.ndarray] = None
                 ) -> Tuple[TraceColumns, np.ndarray]:
    """The rows of :func:`classify_rows` steps as columns in warp order,
    plus each of the ``n_warps`` warps' row counts.  Each warp's rows
    keep step order, or ``seq`` order when given: one position per row,
    in step order, for steps that can hold a warp more than once."""
    if not steps:
        return TraceColumns.empty(), np.zeros(n_warps, dtype=np.int64)
    sizes = [len(st[0]) for st in steps]

    def per_row(i: int) -> np.ndarray:
        return np.repeat([st[i] for st in steps], sizes)

    def cat(i: int, fill, dtype) -> np.ndarray:
        return np.concatenate([
            st[i] if st[i] is not None else np.full(n, fill, dtype)
            for st, n in zip(steps, sizes)
        ])

    rows = np.concatenate([st[0] for st in steps])
    lines = [st[8] for st in steps if st[8] is not None]
    cols = TraceColumns.from_arrays(
        pc=per_row(1),
        active=np.concatenate([st[2] for st in steps]),
        uniform=np.concatenate([st[3] for st in steps]),
        affine=np.concatenate([st[4] for st in steps]),
        hashed=np.repeat([st[5] is not None for st in steps], sizes),
        src_hash=cat(5, 0, np.uint64),
        shared=per_row(6),
        bank_conflict=cat(7, 1, np.int64),
        n_lines=np.concatenate([
            st[8][0] if st[8] is not None
            else np.zeros(n, dtype=np.int64)
            for st, n in zip(steps, sizes)
        ]),
        lines=np.concatenate(
            [ln[1] for ln in lines] or [np.zeros(0, np.int64)]
        ),
    )
    order = (
        np.argsort(rows, kind="stable") if seq is None
        else np.lexsort((seq, rows))
    )
    return cols.take(order), np.bincount(rows, minlength=n_warps)


def warp_blocks(grid, lo: int, wpb: int, counts: np.ndarray,
                base: int) -> List[BlockTrace]:
    """Blocks ``lo, lo + 1, ...`` of ``wpb`` warps each, one per ``wpb``
    entries of ``counts``, whose warps own consecutive row ranges of
    ``counts`` rows from row ``base`` on."""
    stops = (base + np.cumsum(counts)).tolist()
    starts = [base] + stops[:-1]
    return [
        BlockTrace(lo + b, grid.linear_to_xyz(lo + b), [
            WarpTrace(lo + b, w, starts[r], stops[r])
            for w, r in enumerate(range(b * wpb, (b + 1) * wpb))
        ])
        for b in range(len(counts) // wpb)
    ]
