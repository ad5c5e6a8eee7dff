"""Decoupled Affine Computation (Wang & Lin, ISCA'17), modeled as the
paper models it: "an optimistically working DAC by computing all warp
instructions producing consecutive affine values with a single warp
instruction without any overhead".

An instruction is lifted onto the (free) affine unit when

- its opcode is one the affine unit implements on (base, stride) tuples
  (the strength-reducible set: mov/cvt/add/sub/mul/mad/shl + parameter
  loads),
- its destination values form an affine sequence across the active
  lanes, and
- every register source is itself an affine tuple (produced by a lifted
  instruction): the affine unit has no path to read vector registers, so
  a value loaded from memory — even one that happens to be affine —
  forces the computation back onto the SIMD pipeline.

Memory and control instructions stay put — DAC decouples computation,
not memory traffic.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from ..isa.opcodes import Opcode
from ..sim.config import GPUConfig
from ..sim.timing import IssueMode, IssuePolicy, TimingSimulator
from ..sim.trace import KernelTrace
from .base import ArchStats, Architecture

#: Operations the affine unit executes on (base, stride) tuples.
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


def _lift_flags(pcs: List[int], affine: List[bool], instrs) -> List[bool]:
    """Per-record affine-unit lift decision for one warp's stream.

    Walks the records in order, tracking which registers currently hold
    affine tuples; an instruction lifts only if its register sources are
    all tuples and its destination came out affine.
    """
    tuple_regs: Set[str] = set()
    flags: List[bool] = []
    for pc, is_affine in zip(pcs, affine):
        instr = instrs[pc]
        lift = (
            instr.opcode in _AFFINE_UNIT_OPS
            and instr.dst is not None
            and instr.dtype.is_integer
            and instr.pred is None
            and is_affine
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


def lifted_rows(trace: KernelTrace) -> np.ndarray:
    """Per row of ``trace.cols``: lifted onto the affine unit.

    A warp's flags depend only on its (pc, affine) stream, so they are
    computed once per distinct stream."""
    cols = trace.cols
    instrs = trace.kernel.instructions
    stream = cols.pc.astype(np.int32) * 2 + cols.affine
    lifted = np.zeros(len(cols), dtype=bool)
    memo: Dict[bytes, np.ndarray] = {}
    for block in trace.blocks:
        for warp in block.warps:
            lo, hi = warp.start, warp.stop
            key = stream[lo:hi].tobytes()
            flags = memo.get(key)
            if flags is None:
                flags = memo[key] = np.array(_lift_flags(
                    cols.pc[lo:hi].tolist(), cols.affine[lo:hi].tolist(),
                    instrs,
                ), dtype=bool)
            lifted[lo:hi] = flags
    return lifted


class _DACPolicy(IssuePolicy):
    """Skips the lifted rows of the trace it was built for."""

    name = "dac"

    def __init__(self, trace: KernelTrace) -> None:
        self.lifted = lifted_rows(trace)

    def plan(self, trace: KernelTrace):
        modes = np.where(self.lifted, IssueMode.SKIP, IssueMode.SIMD)
        return modes.astype(np.int8), np.zeros(len(modes), dtype=np.int32)


class DACArch(Architecture):
    name = "dac"

    def process_trace(
        self, trace: KernelTrace, config: GPUConfig, stats: ArchStats, l2=None
    ) -> None:
        stats.launches += 1
        policy = _DACPolicy(trace)
        kept = ~policy.lifted
        stats.warp_instructions += int(kept.sum())
        stats.thread_instructions += int(
            trace.cols.active[kept].sum(dtype=np.int64)
        )

        timing = TimingSimulator(config, trace, policy=policy, l2=l2).run()
        stats.add_timing(timing)
