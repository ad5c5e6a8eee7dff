"""DARSIE (Yeh, Green & Rogers, ASPLOS'20), modeled as the paper models
it: redundant warp instructions within a thread block are skipped with no
overhead.  A warp instruction is redundant when an earlier warp of the
same block already executed the same PC with identical source values
(including redundant loads, which DARSIE can skip when no memory
dependency intervenes — our trace hashes capture the loaded-from address
values, so a store in between changes nothing about the *address* hash;
we conservatively never skip across an intervening store to global
memory).

``DARSIE+Scalar`` additionally routes non-skipped uniform warp
instructions through the scalar pipeline (energy benefit, freed SIMD
lanes), matching the paper's third comparison point.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..sim.config import GPUConfig
from ..sim.timing import IssueMode, IssuePolicy, TimingSimulator
from ..sim.trace import KernelTrace
from .base import ArchStats, Architecture, repeats_in_block


def skipped_rows(trace: KernelTrace) -> np.ndarray:
    """Per row of ``trace.cols``: skipped by memoization.

    Warps execute in warp order for memoization purposes (DARSIE detects
    redundancy at kernel launch time from thread-hierarchy analysis; our
    dynamic-value model is strictly more permissive, which matches the
    paper's optimistic treatment), and a block's rows are stored in that
    order.  A hashed row that is not a global load repeats when an
    earlier such row of its block has the same hash.  Global loads also
    need the same lines, and the store fence enforces the paper's "no
    memory dependency problems" condition at memory-line granularity: a
    memoized load is invalidated once any warp of the block stores or
    atomically updates one of the lines it covers.  Only global loads,
    stores and atomics are walked for that.
    """
    cols = trace.cols
    instrs = trace.kernel.instructions
    gload = np.array(
        [i.is_load and i.is_global_memory for i in instrs], dtype=bool
    )[cols.pc]
    writes = np.array(
        [i.is_store or i.opcode.value.startswith("atom") for i in instrs],
        dtype=bool,
    )[cols.pc]
    blocks = trace.row_blocks()
    skip = np.zeros(len(cols), dtype=bool)
    rows = np.flatnonzero(cols.hashed & ~gload)
    skip[rows] = repeats_in_block(blocks[rows], cols.src_hash[rows])

    rows = np.flatnonzero(
        (cols.hashed & gload)
        | (~cols.hashed & writes & (cols.n_lines > 0))
    )
    off = cols.line_off[rows].tolist()
    end = cols.line_off[rows + 1].tolist()
    lines = cols.lines
    hashed = cols.hashed[rows].tolist()
    hashes = cols.src_hash[rows].tolist()
    block = None
    for j, (r, b) in enumerate(zip(rows.tolist(), blocks[rows].tolist())):
        if b != block:
            block = b
            #: load hash -> lines the original load covered
            seen_loads: Dict[int, frozenset] = {}
            stored_lines: set = set()
        row_lines = lines[off[j]:end[j]].tolist()
        if not hashed[j]:
            stored_lines.update(row_lines)
            continue
        row_lines = frozenset(row_lines)
        prior = seen_loads.get(hashes[j])
        clean = not (row_lines & stored_lines)
        if prior is not None and prior == row_lines and clean:
            skip[r] = True
        elif clean:
            seen_loads[hashes[j]] = row_lines
    return skip


class _DARSIEPolicy(IssuePolicy):
    """Issue modes for the trace it was built for.  ``skip`` (default
    :func:`skipped_rows`) lets DARSIE+Scalar and DARSIE share one skip
    pass."""

    def __init__(self, trace: KernelTrace, with_scalar: bool,
                 skip: Optional[np.ndarray] = None) -> None:
        cols = trace.cols
        self.skip = skipped_rows(trace) if skip is None else skip
        # DARSIE+Scalar: non-skipped uniform warp instructions run on the
        # scalar pipeline (energy benefit only: it shares the issue slot,
        # paper Section 2.2)
        self.inline = np.zeros(len(cols), dtype=bool)
        if with_scalar:
            scalar_op = np.array(
                [not i.is_memory and not i.is_control
                 for i in trace.kernel.instructions],
                dtype=bool,
            )
            self.inline = cols.uniform & scalar_op[cols.pc] & ~self.skip

    def plan(self, trace: KernelTrace):
        modes = np.full(len(self.skip), IssueMode.SIMD, dtype=np.int8)
        modes[self.inline] = IssueMode.SCALAR_INLINE
        modes[self.skip] = IssueMode.SKIP
        return modes, np.zeros(len(modes), dtype=np.int32)


def _add_launch(stats: ArchStats, trace: KernelTrace,
                policy: _DARSIEPolicy, timing) -> None:
    """Count one launch replayed under ``policy`` into ``stats``."""
    stats.launches += 1
    simd = ~policy.skip & ~policy.inline
    stats.warp_instructions += len(trace.cols) - int(policy.skip.sum())
    stats.thread_instructions += int(policy.inline.sum()) + int(
        trace.cols.active[simd].sum(dtype=np.int64)
    )
    stats.add_timing(timing)


class DARSIEArch(Architecture):
    """``with_scalar=True`` gives the paper's DARSIE+Scalar variant.

    DARSIE+Scalar given ``darsie`` stats also costs DARSIE, from the
    same skip pass and timing replay, into them.  Its inline scalar ops
    keep the SIMD issue slot and latency, so the two replay cycle for
    cycle alike and differ only in energy and issue counters
    (``TimingSimulator(ledgers=...)``); the stats come out equal to two
    separate runs."""

    def __init__(self, with_scalar: bool = False,
                 darsie: Optional[ArchStats] = None) -> None:
        self.with_scalar = with_scalar
        self.darsie = darsie
        self.name = "darsie+scalar" if with_scalar else "darsie"

    def process_trace(
        self, trace: KernelTrace, config: GPUConfig, stats: ArchStats, l2=None
    ) -> None:
        policy = _DARSIEPolicy(trace, self.with_scalar)
        ledgers = ()
        if self.darsie is not None:
            ledgers = (_DARSIEPolicy(trace, False, skip=policy.skip),)
        timing = TimingSimulator(
            config, trace, policy=policy, l2=l2, ledgers=ledgers,
        ).run()
        _add_launch(stats, trace, policy, timing)
        if ledgers:
            _add_launch(self.darsie, trace, ledgers[0], timing.ledgers[0])
