"""The ideal machines of Figure 4: WP, TB, and LN.

These are instruction-count-only models (the paper reports no timing for
them): each quantifies how many dynamic *thread* instructions an ideal
eliminator of one redundancy class would execute.

- **WP** removes redundant thread instructions within a warp: a warp
  instruction whose active lanes all read identical source values costs
  one thread instruction instead of ``active``.  (The paper's WP
  "ideally skips all scalar computations, even if the computations
  require runtime information".)
- **TB** removes redundant warp instructions within a thread block: a
  warp instruction identical (same PC, same source values) to one
  already executed by an earlier warp of the same block costs nothing.
- **LN** exploits the linearity of SIMT: scalar computations run once
  per kernel, thread-index computations once per kernel (by one block),
  block-index computations once per block, and fully-linear values are
  never computed at all (they live as thread/block tuples).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..linear.analyzer import AnalysisResult, LinearKind, analyze_kernel
from ..sim.config import GPUConfig
from ..sim.trace import KernelTrace
from .base import ArchStats, Architecture, repeats_in_block


def _wp_cost(trace: KernelTrace) -> np.ndarray:
    """Per row: thread instructions WP pays (one for a uniform warp
    instruction, ``active`` otherwise)."""
    cols = trace.cols
    return np.where(cols.uniform, 1, cols.active.astype(np.int64))


class IdealWP(Architecture):
    name = "wp"

    def process_trace(
        self, trace: KernelTrace, config: GPUConfig, stats: ArchStats, l2=None
    ) -> None:
        stats.launches += 1
        stats.warp_instructions += len(trace.cols)
        stats.thread_instructions += int(_wp_cost(trace).sum())


class IdealTB(Architecture):
    name = "tb"

    def process_trace(
        self, trace: KernelTrace, config: GPUConfig, stats: ArchStats, l2=None
    ) -> None:
        stats.launches += 1
        cols = trace.cols
        # Redundant warp instructions (a hashed row repeating an earlier
        # hash of its block) are skipped.
        rows = np.flatnonzero(cols.hashed)
        kept = np.ones(len(cols), dtype=bool)
        kept[rows] = ~repeats_in_block(
            trace.row_blocks()[rows], cols.src_hash[rows]
        )
        stats.warp_instructions += int(kept.sum())
        stats.thread_instructions += int(
            cols.active[kept].sum(dtype=np.int64)
        )


class IdealLN(Architecture):
    """Uses the R2D2 analyzer's classification to cost each static
    instruction at its ideal multiplicity."""

    name = "ln"

    def __init__(self) -> None:
        self._analysis_cache: Dict[int, AnalysisResult] = {}

    def _analysis(self, trace: KernelTrace) -> AnalysisResult:
        key = id(trace.kernel)
        cached = self._analysis_cache.get(key)
        if cached is None:
            cached = analyze_kernel(trace.kernel)
            self._analysis_cache[key] = cached
        return cached

    def process_trace(
        self, trace: KernelTrace, config: GPUConfig, stats: ArchStats, l2=None
    ) -> None:
        stats.launches += 1
        analysis = self._analysis(trace)
        kinds = analysis.kind_by_pc

        # Aggregate dynamic behaviour per static pc.
        cols = trace.cols
        pc = cols.pc.astype(np.int64)
        n_pc = len(trace.kernel.instructions)
        blocks = trace.row_blocks()

        def per_pc(weights=None, rows=slice(None)) -> list:
            w = None if weights is None else weights[rows]
            return np.bincount(
                pc[rows], weights=w, minlength=n_pc
            ).astype(np.int64).tolist()

        active = cols.active.astype(np.int64)
        pc_count = per_pc()
        # "The redundancy addressed by WP ... is also incurred by the
        # linearity" (Section 2.2): LN never pays more than WP for a
        # record it cannot classify statically.
        pc_wp_cost = per_pc(_wp_cost(trace))
        first = blocks == 0
        pc_first_count = per_pc(rows=first)
        pc_first_block_active = per_pc(active, first)
        n_blocks_all = max(1, len(trace.blocks))
        pc_blocks = np.bincount(
            np.unique(pc * n_blocks_all + blocks) // n_blocks_all,
            minlength=n_pc,
        ).tolist()

        thread_instrs = 0
        warp_instrs = 0
        for pc in np.flatnonzero(pc_count).tolist():
            kind = kinds.get(pc, LinearKind.NONLINEAR)
            n_blocks = pc_blocks[pc]
            if kind is LinearKind.SCALAR:
                thread_instrs += 1
                warp_instrs += 1
            elif kind is LinearKind.THREAD:
                per_kernel = (
                    pc_first_block_active[pc] if pc_first_count[pc] else 32
                )
                thread_instrs += per_kernel
                warp_instrs += max(1, per_kernel // 32)
            elif kind in (LinearKind.BLOCK, LinearKind.UNIFORM_UPDATE):
                # once per block (block part), or one scalar update per
                # loop iteration per block for promoted uniform updates.
                if kind is LinearKind.BLOCK:
                    thread_instrs += n_blocks
                    warp_instrs += n_blocks
                else:
                    per_block = max(1, pc_count[pc] // max(1, n_blocks))
                    thread_instrs += n_blocks * per_block
                    warp_instrs += n_blocks * per_block
            elif kind is LinearKind.FULL:
                # held as (thread, block) tuples; never computed directly
                pass
            elif kind is LinearKind.MOV_REPLACED:
                thread_instrs += pc_wp_cost[pc]
                warp_instrs += pc_count[pc]
            else:
                # Not statically linear: LN still subsumes WP's dynamic
                # scalar coverage (uniform executions cost one thread op).
                thread_instrs += pc_wp_cost[pc]
                warp_instrs += pc_count[pc]
        stats.warp_instructions += warp_instrs
        stats.thread_instructions += thread_instrs
