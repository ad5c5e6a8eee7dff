"""Per-record reference implementations of the columnar trace code.

Each function walks one record at a time, the way the serial interpreter
classified its records and the architecture models analyzed them before
records became numpy columns.  Tests compare the production array code
against these loops on real and random traces; nothing under ``src/``
imports this module.
"""

from itertools import chain
from types import SimpleNamespace
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.isa.opcodes import Opcode
from repro.linear.analyzer import LinearKind
from repro.sim.trace import (
    _H_ACT,
    _H_PC,
    _H_SCALAR,
    _H_SRC,
    _MASK64,
    LINE_BYTES,
    WARP_SIZE,
    TraceColumns,
    _digest_vector,
    _scalar_bits,
)

_AFFINE_UNIT_OPS = frozenset(
    {
        Opcode.MOV,
        Opcode.CVT,
        Opcode.ADD,
        Opcode.SUB,
        Opcode.MUL,
        Opcode.MAD,
        Opcode.SHL,
        Opcode.LD_PARAM,
    }
)


# ----------------------------------------------------------------------
# One record's derived columns (the row functions' references)
# ----------------------------------------------------------------------
# A record's sources are python scalars or 32-lane vectors; a memory
# access's address slot holds its active-compressed addresses.

def is_uniform(srcs, active: np.ndarray) -> bool:
    """All active lanes of every vector source hold one value."""
    for s in srcs:
        if np.ndim(s) == 0:
            continue
        vals = np.asarray(s)
        if vals.shape[0] == WARP_SIZE:
            sub = vals[active]
        else:
            sub = vals  # already active-compressed (addresses)
        if sub.size > 1 and not (sub == sub.flat[0]).all():
            return False
    return True


def is_affine(result, active: np.ndarray, instr) -> bool:
    """An integer instruction's destination values form an affine
    sequence across at least three active lanes."""
    if result is None or not instr.dtype.is_integer:
        return False
    vals = np.asarray(result)
    if vals.ndim == 0:
        return bool(active.sum() >= 3)
    sub = vals[active] if vals.shape[0] == WARP_SIZE else vals
    if sub.size < 3:
        return False
    diffs = np.diff(sub)
    return bool((diffs == diffs[0]).all())


def hash_sources(pc: int, active: np.ndarray, srcs) -> int:
    """Hash of one record's (pc, active mask, source values)."""
    packed = int.from_bytes(
        np.packbits(active, bitorder="little").tobytes(), "little"
    )
    h = ((_H_PC * (pc + 1)) ^ (packed * _H_ACT)) & _MASK64
    for s in srcs:
        if np.ndim(s) == 0:
            d = (_scalar_bits(s) * _H_SCALAR) & _MASK64
        else:
            d = _digest_vector(np.asarray(s))
        h = (h * _H_SRC + d) & _MASK64
    return h


def coalesce(addrs) -> Tuple[int, ...]:
    """Unique memory-line addresses touched by the active lanes, in
    ascending order: the global-memory transactions of this access."""
    if len(addrs) == 0:
        return ()
    lines = np.unique(np.asarray(addrs) // LINE_BYTES)
    return tuple(int(x) * LINE_BYTES for x in lines)


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


def record(pc: int, instr, active: np.ndarray, result, srcs) -> tuple:
    """One executed warp instruction's record tuple (the
    :func:`columns_from_rows` layout), classified as the serial
    interpreter once did: a memory access's ``srcs[0]`` holds its
    full-lane addresses, of which the record keeps the active ones;
    stores, atomics and control carry no source hash."""
    addressed = instr.is_global_memory or instr.is_shared_memory
    lines, bank = None, 1
    if addressed:
        addrs = np.asarray(srcs[0])[active]
        srcs = [addrs, *srcs[1:]]
        if instr.is_global_memory:
            lines = coalesce(addrs)
        elif instr.opcode is not Opcode.ATOM_SHARED:
            bank = bank_conflict_degree(addrs)
    src_hash = None
    if not instr.is_control and (instr.is_load or not addressed):
        src_hash = hash_sources(pc, active, srcs)
    return (
        pc, int(active.sum()), is_uniform(srcs, active),
        is_affine(result, active, instr), src_hash,
        instr.is_shared_memory, bank, lines,
    )


# ----------------------------------------------------------------------
# Traces from per-record tuples
# ----------------------------------------------------------------------
def columns_from_rows(rows: Sequence[tuple]) -> TraceColumns:
    """Columns from per-record tuples ``(pc, active, uniform, affine,
    src_hash, shared, bank_conflict, lines)``, where ``src_hash`` is
    ``None`` for unhashed rows and ``lines`` a tuple or ``None``."""
    if not rows:
        return TraceColumns.empty()
    pc, act, uni, aff, hsh, sh, bank, lns = zip(*rows)
    return TraceColumns.from_arrays(
        pc, act, uni, aff,
        [h is not None for h in hsh],
        np.fromiter((h or 0 for h in hsh), dtype=np.uint64,
                    count=len(hsh)),
        sh, bank,
        [len(x) if x else 0 for x in lns],
        np.fromiter(chain.from_iterable(x for x in lns if x),
                    dtype=np.int64),
    )


def set_rows(trace, warp_rows: Sequence[Sequence[tuple]]) -> None:
    """Give ``trace`` per-warp record tuples (see
    :func:`columns_from_rows`), one list per warp of ``trace.blocks`` in
    block/warp order."""
    pos = 0
    for warp, rows in zip(
        (w for b in trace.blocks for w in b.warps), warp_rows
    ):
        warp.start = pos
        pos += len(rows)
        warp.stop = pos
    trace.cols = columns_from_rows([r for rows in warp_rows for r in rows])


# ----------------------------------------------------------------------
# Records of a trace
# ----------------------------------------------------------------------
def warp_records(trace, warp) -> List[SimpleNamespace]:
    """One warp's rows as per-record objects (``src_hash`` is ``None``
    for unhashed rows, ``lines`` a tuple or ``None``)."""
    cols = trace.cols
    out = []
    for i in range(warp.start, warp.stop):
        out.append(SimpleNamespace(
            pc=int(cols.pc[i]),
            active=int(cols.active[i]),
            uniform=bool(cols.uniform[i]),
            affine=bool(cols.affine[i]),
            src_hash=int(cols.src_hash[i]) if cols.hashed[i] else None,
            lines=cols.row_lines(i) or None,
            shared=bool(cols.shared[i]),
            bank_conflict=int(cols.bank_conflict[i]),
        ))
    return out


def records(trace):
    """``(block, warp, record)`` for every record, in row order."""
    for block in trace.blocks:
        for warp in block.warps:
            for record in warp_records(trace, warp):
                yield block, warp, record


def _per_row(trace, per_warp) -> np.ndarray:
    out = np.zeros(len(trace.cols), dtype=bool)
    for block in trace.blocks:
        for warp in block.warps:
            for idx in per_warp(block, warp):
                out[warp.start + idx] = True
    return out


# ----------------------------------------------------------------------
# DARSIE
# ----------------------------------------------------------------------
def compute_skips(trace, block, store_fence: bool = True
                  ) -> Dict[int, Set[int]]:
    """Per warp-in-block: indices of records skipped by memoization,
    with the load memo invalidated by stores/atomics to its lines."""
    instrs = trace.kernel.instructions
    skips: Dict[int, Set[int]] = {}
    seen: Set[int] = set()
    #: load hash -> lines the original load covered
    seen_loads: Dict[int, frozenset] = {}
    stored_lines: Set[int] = set()
    for warp in block.warps:
        warp_skips: Set[int] = set()
        for idx, record in enumerate(warp_records(trace, warp)):
            instr = instrs[record.pc]
            if record.src_hash is None:
                if (
                    instr.is_store
                    or instr.opcode.value.startswith("atom")
                ) and record.lines:
                    stored_lines.update(record.lines)
                continue
            if instr.is_load and instr.is_global_memory:
                lines = frozenset(record.lines or ())
                prior = seen_loads.get(record.src_hash)
                clean = not (store_fence and (lines & stored_lines))
                if prior is not None and prior == lines and clean:
                    warp_skips.add(idx)
                elif clean:
                    seen_loads[record.src_hash] = lines
                continue
            if record.src_hash in seen:
                warp_skips.add(idx)
            else:
                seen.add(record.src_hash)
        skips[warp.warp_in_block] = warp_skips
    return skips


def darsie_skip_rows(trace) -> np.ndarray:
    skips = {
        block.block_linear_id: compute_skips(trace, block)
        for block in trace.blocks
    }
    return _per_row(
        trace,
        lambda b, w: skips[b.block_linear_id].get(w.warp_in_block, ()),
    )


def darsie_counts(trace, with_scalar: bool) -> Tuple[int, int]:
    """(warp, thread) instructions DARSIE(+Scalar) executes."""
    instrs = trace.kernel.instructions
    skip = darsie_skip_rows(trace)
    warp_instrs = thread_instrs = 0
    for row, (_b, _w, record) in enumerate(records(trace)):
        if skip[row]:
            continue
        warp_instrs += 1
        instr = instrs[record.pc]
        if (
            with_scalar
            and record.uniform
            and not instr.is_memory
            and not instr.is_control
        ):
            thread_instrs += 1
        else:
            thread_instrs += record.active
    return warp_instrs, thread_instrs


# ----------------------------------------------------------------------
# DAC
# ----------------------------------------------------------------------
def warp_lift_flags(trace, warp) -> List[bool]:
    """Per-record affine-unit lift decision for one warp."""
    instrs = trace.kernel.instructions
    tuple_regs: Set[str] = set()
    flags: List[bool] = []
    for record in warp_records(trace, warp):
        instr = instrs[record.pc]
        lift = (
            instr.opcode in _AFFINE_UNIT_OPS
            and instr.dst is not None
            and instr.dtype.is_integer
            and instr.pred is None
            and record.affine
        )
        if lift:
            for reg in instr.source_regs():
                if reg.name not in tuple_regs:
                    lift = False
                    break
        if instr.dst is not None:
            if lift:
                tuple_regs.add(instr.dst.name)
            else:
                tuple_regs.discard(instr.dst.name)
        flags.append(lift)
    return flags


def dac_lift_rows(trace) -> np.ndarray:
    return _per_row(
        trace,
        lambda b, w: [
            i for i, f in enumerate(warp_lift_flags(trace, w)) if f
        ],
    )


# ----------------------------------------------------------------------
# Ideal machines and R2D2's uniform records
# ----------------------------------------------------------------------
def wp_counts(trace) -> Tuple[int, int]:
    warp_instrs = thread_instrs = 0
    for _block, _warp, record in records(trace):
        warp_instrs += 1
        thread_instrs += 1 if record.uniform else record.active
    return warp_instrs, thread_instrs


def tb_counts(trace) -> Tuple[int, int]:
    warp_instrs = thread_instrs = 0
    for block in trace.blocks:
        seen: Set[int] = set()
        for warp in block.warps:
            for record in warp_records(trace, warp):
                h = record.src_hash
                if h is not None and h in seen:
                    continue  # redundant warp instruction: skipped
                if h is not None:
                    seen.add(h)
                warp_instrs += 1
                thread_instrs += record.active
    return warp_instrs, thread_instrs


def ln_counts(trace, kinds) -> Tuple[int, int]:
    """LN's (warp, thread) instructions given the analyzer's
    ``kind_by_pc``."""
    pc_blocks: Dict[int, Set[int]] = {}
    pc_active: Dict[int, int] = {}
    pc_first_block_active: Dict[int, int] = {}
    pc_count: Dict[int, int] = {}
    pc_wp_cost: Dict[int, int] = {}
    first_block = trace.blocks[0].block_linear_id if trace.blocks else 0
    for block, _warp, record in records(trace):
        pc = record.pc
        pc_blocks.setdefault(pc, set()).add(block.block_linear_id)
        pc_active[pc] = pc_active.get(pc, 0) + record.active
        pc_count[pc] = pc_count.get(pc, 0) + 1
        pc_wp_cost[pc] = pc_wp_cost.get(pc, 0) + (
            1 if record.uniform else record.active
        )
        if block.block_linear_id == first_block:
            pc_first_block_active[pc] = (
                pc_first_block_active.get(pc, 0) + record.active
            )
    thread_instrs = warp_instrs = 0
    for pc in pc_active:
        kind = kinds.get(pc, LinearKind.NONLINEAR)
        n_blocks = len(pc_blocks[pc])
        if kind is LinearKind.SCALAR:
            thread_instrs += 1
            warp_instrs += 1
        elif kind is LinearKind.THREAD:
            per_kernel = pc_first_block_active.get(pc, 32)
            thread_instrs += per_kernel
            warp_instrs += max(1, per_kernel // 32)
        elif kind is LinearKind.BLOCK:
            thread_instrs += n_blocks
            warp_instrs += n_blocks
        elif kind is LinearKind.UNIFORM_UPDATE:
            per_block = max(1, pc_count[pc] // max(1, n_blocks))
            thread_instrs += n_blocks * per_block
            warp_instrs += n_blocks * per_block
        elif kind is LinearKind.FULL:
            pass
        else:
            thread_instrs += pc_wp_cost[pc]
            warp_instrs += pc_count[pc]
    return warp_instrs, thread_instrs


def r2d2_uniform_counts(trace, uniform_pcs) -> Tuple[int, int]:
    """(records, lanes) at pcs promoted to the uniform datapath."""
    n_records = n_lanes = 0
    for _b, _w, record in records(trace):
        if record.pc in uniform_pcs:
            n_records += 1
            n_lanes += record.active
    return n_records, n_lanes
