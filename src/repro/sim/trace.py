"""Execution traces: the interface between functional execution and the
timing/architecture models.

The functional executor runs each kernel once and records, per warp, a
compact :class:`TraceRecord` per executed warp instruction.  Architecture
variants (baseline, DAC, DARSIE, R2D2, the ideal machines) then replay or
analyze these traces without re-executing the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.kernel import Dim3, Kernel, LaunchConfig


class TraceRecord:
    """One executed warp instruction.

    Attributes:
        pc: Static instruction index in the kernel.
        active: Number of active lanes.
        uniform: All active lanes read identical source values (a *scalar*
            warp instruction — the WP machines' target).
        affine: Destination values form an affine sequence in lane index
            (the DAC machine's target).
        src_hash: Hash of (pc, mask, source values) for DARSIE's
            redundant-warp-instruction detection; ``None`` when the
            instruction is not skippable (stores, atomics, control).
        lines: Coalesced 128-byte line addresses for global accesses.
        shared: True for shared-memory accesses.
        bank_conflict: For shared-memory accesses, the worst-case number
            of lanes hitting the same 4-byte-interleaved bank (1 = no
            conflict); the LSU serializes conflicting lanes.
        issue_tag: Free-form tag set by architecture models ("linear.coef",
            "linear.thread", "linear.block" for R2D2's decoupled blocks).
    """

    __slots__ = (
        "pc",
        "active",
        "uniform",
        "affine",
        "src_hash",
        "lines",
        "shared",
        "bank_conflict",
        "issue_tag",
    )

    def __init__(
        self,
        pc: int,
        active: int,
        uniform: bool = False,
        affine: bool = False,
        src_hash: Optional[int] = None,
        lines: Optional[Tuple[int, ...]] = None,
        shared: bool = False,
        bank_conflict: int = 1,
        issue_tag: str = "",
    ) -> None:
        self.pc = pc
        self.active = active
        self.uniform = uniform
        self.affine = affine
        self.src_hash = src_hash
        self.lines = lines
        self.shared = shared
        self.bank_conflict = bank_conflict
        self.issue_tag = issue_tag

    def static_issue_key(self) -> Tuple[int, int, bool, int, int]:
        """The timing-relevant static profile of this record.

        Two records with equal keys (and equal issue-plan mode/extra) cost
        the timing model the same in every situation except the global
        memory hierarchy, whose outcome depends on the actual ``lines``.
        The event-driven timing engine's signature pass
        (:mod:`repro.sim.timing_fast`) groups warps whose record streams
        agree on this key.
        """
        lines = self.lines
        return (
            self.pc,
            self.active,
            self.shared,
            self.bank_conflict,
            len(lines) if lines else 0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f
            for f, on in (("U", self.uniform), ("A", self.affine))
            if on
        )
        return f"<pc={self.pc} act={self.active} {flags}>"


@dataclass
class WarpTrace:
    """All instructions executed by one warp."""

    block_linear_id: int
    warp_in_block: int
    records: List[TraceRecord] = field(default_factory=list)
    #: Interned tuple of ``static_issue_key()``s, set by the megawarp
    #: engine; lets the timing engine's signature pass group warps by
    #: identity comparison instead of re-walking every record.
    sig_base: Optional[Tuple] = field(
        default=None, compare=False, repr=False
    )

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class BlockTrace:
    """Per-thread-block traces, in warp order."""

    block_linear_id: int
    block_xyz: Tuple[int, int, int]
    warps: List[WarpTrace] = field(default_factory=list)

    def warp_instruction_count(self) -> int:
        return sum(len(w) for w in self.warps)


@dataclass
class KernelTrace:
    """The full trace of one kernel launch."""

    kernel: Kernel
    launch: LaunchConfig
    blocks: List[BlockTrace] = field(default_factory=list)
    #: Set by the R2D2 transform: decoupled linear-phase instruction
    #: streams (see repro.arch.r2d2).
    linear_phase: Optional[object] = None
    #: Always ``None``: the block-trace extrapolator that filled it is
    #: gone, and the field stays only for readers that still check it.
    extrapolation: Optional[object] = None
    #: Outcome of the megawarp vectorization attempt for this launch
    #: (a ``VectorReport``); ``None`` for traces produced before the
    #: vector engine existed (old cache pickles).
    vector: Optional[object] = None

    # ------------------------------------------------------------------
    def warp_instruction_count(self) -> int:
        return sum(b.warp_instruction_count() for b in self.blocks)

    def thread_instruction_count(self) -> int:
        return sum(
            r.active for b in self.blocks for w in b.warps for r in w.records
        )

    def records(self):
        for block in self.blocks:
            for warp in block.warps:
                for record in warp.records:
                    yield block, warp, record

    @property
    def warps_per_block(self) -> int:
        wsz = 32
        return (self.launch.threads_per_block + wsz - 1) // wsz


def bank_conflict_degree(addrs, n_banks: int = 32,
                         bank_bytes: int = 4) -> int:
    """Worst-case lanes mapping to one shared-memory bank (broadcast of
    the exact same word does not conflict, as on real hardware)."""
    import numpy as np

    if len(addrs) == 0:
        return 1
    words = np.asarray(addrs) // bank_bytes
    banks = words % n_banks
    worst = 1
    for bank in np.unique(banks):
        distinct_words = np.unique(words[banks == bank])
        worst = max(worst, len(distinct_words))
    return int(worst)


def coalesce(addrs, line_bytes: int = 128) -> Tuple[int, ...]:
    """Unique memory-line addresses touched by the active lanes, in
    ascending order — the global-memory transactions of this access."""
    import numpy as np

    if len(addrs) == 0:
        return ()
    lines = np.unique(np.asarray(addrs) // line_bytes)
    return tuple(int(x) * line_bytes for x in lines)
