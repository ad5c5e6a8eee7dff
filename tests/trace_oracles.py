"""Per-record reference implementations of the columnar trace analyses.

Each function walks a trace one record at a time, the way the
architecture models did before records became numpy columns.  Tests
compare the production array code against these loops on real and
random traces; nothing under ``src/`` imports this module.
"""

from types import SimpleNamespace
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.isa.opcodes import Opcode
from repro.linear.analyzer import LinearKind

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
