"""Architecture-variant interface and result container.

Every comparison point in the paper's evaluation is an ``Architecture``:

- ``baseline`` — the Table 1 GPU (with a scalar pipeline for constant
  operations, as the paper's baseline includes);
- ``wp`` / ``tb`` / ``ln`` — the ideal machines of Figure 4 (instruction
  counts only, no timing);
- ``dac`` / ``darsie`` / ``darsie+scalar`` — prior work, modeled
  optimistically exactly as the paper does (Section 5);
- ``r2d2`` — the proposed design, running transformed kernels.

Every variant consumes the baseline's traces.  R2D2 replays each one
derived to its transformed kernel (produced by
:func:`repro.transform.r2d2_transform`), which a translation check and
an operand witness prove equal to executing it — bit-identical memory
outputs included; it executes the transformed kernels only when that
proof fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..sim.config import GPUConfig
from ..sim.timing import EnergyBreakdown, TimingResult
from ..sim.trace import KernelTrace


@dataclass
class ArchStats:
    """Aggregated results of one architecture over a workload's launches."""

    name: str
    warp_instructions: int = 0
    thread_instructions: int = 0
    cycles: int = 0
    linear_warp_instructions: int = 0
    linear_coef_instructions: int = 0
    linear_thread_instructions: int = 0
    linear_block_instructions: int = 0
    linear_cycles: int = 0
    scalar_instructions: int = 0
    skipped_instructions: int = 0
    energy_pj: float = 0.0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    fallback_launches: int = 0
    launches: int = 0
    sms_used: int = 1

    def add_timing(self, timing: TimingResult) -> None:
        self.cycles += timing.cycles
        self.linear_cycles += timing.prologue_cycles
        self.scalar_instructions += timing.issued_scalar
        self.skipped_instructions += timing.skipped
        self.sms_used = max(self.sms_used, timing.sms_used)
        self.energy.merge(timing.energy)
        self.energy_pj = self.energy.total()

    # Convenience ratios against a baseline --------------------------------
    def instruction_reduction(self, baseline: "ArchStats") -> float:
        """Fractional dynamic warp-instruction reduction (Figure 12)."""
        if baseline.warp_instructions == 0:
            return 0.0
        return 1.0 - self.warp_instructions / baseline.warp_instructions

    def thread_instruction_reduction(self, baseline: "ArchStats") -> float:
        """Fractional dynamic thread-instruction reduction (Figure 4)."""
        if baseline.thread_instructions == 0:
            return 0.0
        return 1.0 - self.thread_instructions / baseline.thread_instructions

    def speedup(self, baseline: "ArchStats") -> float:
        """End-to-end speedup over the baseline (Figure 13)."""
        if self.cycles == 0:
            return 1.0
        return baseline.cycles / self.cycles

    def energy_reduction(self, baseline: "ArchStats") -> float:
        """Fractional total-energy reduction (Figure 16)."""
        if baseline.energy_pj == 0:
            return 0.0
        return 1.0 - self.energy_pj / baseline.energy_pj


def repeats_in_block(blocks: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Per element (given in row order): an earlier element has the same
    block and key.  ``np.lexsort`` is stable, so the first row of every
    (block, key) run is its earliest."""
    order = np.lexsort((keys, blocks))
    b, k = blocks[order], keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (b[1:] != b[:-1]) | (k[1:] != k[:-1])
    out = np.empty(len(order), dtype=bool)
    out[order] = ~first
    return out


class Architecture:
    """Base class; subclasses override one or both hooks."""

    name = "abstract"

    def process_trace(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: ArchStats,
        l2=None,
    ) -> None:
        """Consume one baseline kernel trace and update ``stats``."""
        raise NotImplementedError

    def make_stats(self) -> ArchStats:
        return ArchStats(name=self.name)
