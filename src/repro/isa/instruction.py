"""Instruction representation for the virtual ISA."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Tuple

from .opcodes import (
    CONTROL_OPCODES,
    GLOBAL_MEMORY_OPCODES,
    MEMORY_OPCODES,
    SHARED_MEMORY_OPCODES,
    STORE_OPCODES,
    AtomOp,
    CmpOp,
    DType,
    Opcode,
)
from .operands import (
    Imm,
    MemRef,
    Operand,
    ParamRef,
    Reg,
    SpecialReg,
)


@dataclass
class Instruction:
    """A single virtual-ISA instruction.

    Attributes:
        opcode: The operation.
        dtype: The operation data type (element width for memory ops).
        dst: Destination register, or ``None`` for stores/branches/etc.
        srcs: Source operands in PTX order.
        pred: Optional guard predicate register — the instruction executes
            only in lanes where the predicate holds.
        pred_negated: If True the guard is ``@!p`` instead of ``@p``.
        target: Branch target label (``BRA`` only).
        cmp: Comparison operator (``SETP`` only).
        atom: Atomic operator (``ATOM_*`` only).
        comment: Free-form annotation used in disassembly output.
    """

    opcode: Opcode
    dtype: DType = DType.S32
    dst: Optional[Reg] = None
    srcs: Tuple[Operand, ...] = ()
    pred: Optional[Reg] = None
    pred_negated: bool = False
    target: Optional[str] = None
    cmp: Optional[CmpOp] = None
    atom: Optional[AtomOp] = None
    comment: str = ""

    # ------------------------------------------------------------------
    # Classification helpers
    # ------------------------------------------------------------------
    @property
    def is_memory(self) -> bool:
        return self.opcode in MEMORY_OPCODES

    @property
    def is_global_memory(self) -> bool:
        return self.opcode in GLOBAL_MEMORY_OPCODES

    @property
    def is_shared_memory(self) -> bool:
        return self.opcode in SHARED_MEMORY_OPCODES

    @property
    def is_store(self) -> bool:
        return self.opcode in STORE_OPCODES

    @property
    def is_load(self) -> bool:
        return self.opcode in (
            Opcode.LD_GLOBAL,
            Opcode.LD_SHARED,
            Opcode.LD_PARAM,
        )

    @property
    def is_control(self) -> bool:
        return self.opcode in CONTROL_OPCODES

    @property
    def is_branch(self) -> bool:
        return self.opcode is Opcode.BRA

    @property
    def is_conditional_branch(self) -> bool:
        return self.opcode is Opcode.BRA and self.pred is not None

    @property
    def is_barrier(self) -> bool:
        return self.opcode is Opcode.BAR

    # ------------------------------------------------------------------
    # Register accessors
    # ------------------------------------------------------------------
    def source_regs(self) -> List[Reg]:
        """All virtual registers read by this instruction (including memory
        base registers and the guard predicate)."""
        regs: List[Reg] = []
        for op in self.srcs:
            if isinstance(op, Reg):
                regs.append(op)
            elif isinstance(op, MemRef):
                regs.append(op.base)
        if self.pred is not None:
            regs.append(self.pred)
        return regs

    def dest_regs(self) -> List[Reg]:
        """Registers written by this instruction."""
        return [self.dst] if self.dst is not None else []

    def with_srcs(self, srcs: Iterable[Operand]) -> "Instruction":
        """Copy of this instruction with replaced source operands."""
        return replace(self, srcs=tuple(srcs))

    # ------------------------------------------------------------------
    # Disassembly
    # ------------------------------------------------------------------
    def __str__(self) -> str:  # pragma: no cover - cosmetic
        guard = ""
        if self.pred is not None and self.opcode is not Opcode.BRA:
            bang = "!" if self.pred_negated else ""
            guard = f"@{bang}{self.pred.name} "
        mnem = self.opcode.value
        if self.cmp is not None:
            mnem += f".{self.cmp.value}"
        if self.atom is not None:
            mnem += f".{self.atom.value}"
        if self.opcode not in (Opcode.BRA, Opcode.BAR, Opcode.EXIT):
            mnem += f".{self.dtype.value}"
        parts: List[str] = []
        if self.dst is not None:
            parts.append(self.dst.name)
        parts.extend(str(s) for s in self.srcs)
        if self.opcode is Opcode.BRA:
            if self.pred is not None:
                bang = "!" if self.pred_negated else ""
                guard = f"@{bang}{self.pred.name} "
            parts.append(self.target or "?")
        text = f"{guard}{mnem} " + ", ".join(parts)
        if self.comment:
            text += f"  // {self.comment}"
        return text.rstrip()
