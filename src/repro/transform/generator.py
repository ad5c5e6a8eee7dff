"""The R2D2 linear-instruction generator (paper Section 3.2, Figure 9).

From a :class:`~repro.linear.tables.DecouplePlan` it emits the three
decoupled instruction blocks:

1. *Coefficients* — computed once per SM by the first warp on the scalar
   pipeline: ``ld.param``/``mov`` of launch-time values followed by the
   arithmetic that builds each symbolic coefficient (e.g. ``4*(P1+1)``).
   Concrete integer coefficients generate no instructions (Section
   3.2.1).
2. *Thread-index parts* — computed once per kernel by every warp of the
   SM's first thread block: ``mov`` of the needed ``%tid`` specials plus
   one ``mad.tr`` per non-zero coefficient.
3. *Block-index parts* — computed once per thread block by its first
   warp; 16 block-index values are computed lane-parallel per warp
   (Section 3.2.3), so a batch of up to 16 entries costs ``mov.br`` plus
   the *maximum* number of ``mad.br`` steps among the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.instruction import Instruction
from ..isa.opcodes import DType, Opcode
from ..isa.operands import Imm, ParamRef, Reg, SpecialReg
from ..linear.symbols import LinExpr
from ..linear.tables import DecouplePlan

_DIM_SPECIALS = {
    "NTID_X": SpecialReg.NTID_X,
    "NTID_Y": SpecialReg.NTID_Y,
    "NTID_Z": SpecialReg.NTID_Z,
    "NCTAID_X": SpecialReg.NCTAID_X,
    "NCTAID_Y": SpecialReg.NCTAID_Y,
    "NCTAID_Z": SpecialReg.NCTAID_Z,
}

_TID_SPECIALS = (SpecialReg.TID_X, SpecialReg.TID_Y, SpecialReg.TID_Z)
_CTAID_SPECIALS = (
    SpecialReg.CTAID_X,
    SpecialReg.CTAID_Y,
    SpecialReg.CTAID_Z,
)

#: Block-index values computed lane-parallel per warp (Section 3.2.3).
BLOCK_BATCH = 16


@dataclass
class LinearBlocks:
    """The decoupled linear instruction streams plus static counts."""

    coef_instrs: List[Instruction] = field(default_factory=list)
    thread_instrs: List[Instruction] = field(default_factory=list)
    #: warp-instruction cost of the block-index phase for ONE thread block
    block_instrs: List[Instruction] = field(default_factory=list)
    block_phase_warp_instrs: int = 0
    total_coefficient_registers: int = 0

    @property
    def n_coef(self) -> int:
        return len(self.coef_instrs)

    @property
    def n_thread(self) -> int:
        return len(self.thread_instrs)

    @property
    def n_block(self) -> int:
        return self.block_phase_warp_instrs

    def disassemble(self) -> str:
        lines = ["// linear instructions for coefficients (scalar pipeline)"]
        lines += [f"  {i}" for i in self.coef_instrs]
        lines.append("// linear instructions for thread-index parts")
        lines += [f"  {i}" for i in self.thread_instrs]
        lines.append("// linear instructions for block-index parts")
        lines += [f"  {i}" for i in self.block_instrs]
        return "\n".join(lines)


class _CoefCodegen:
    """Emits scalar instructions materializing symbolic expressions."""

    def __init__(self, scalar_recipes: Optional[Dict[str, object]] = None
                 ) -> None:
        self.instrs: List[Instruction] = []
        self._symbol_regs: Dict[str, Reg] = {}
        self._expr_regs: Dict[LinExpr, Reg] = {}
        self._next_cr = 0
        self._recipes = scalar_recipes or {}

    def _new_cr(self) -> Reg:
        self._next_cr += 1
        return Reg(f"%cg{self._next_cr}", DType.S64)

    def _symbol_reg(self, name: str) -> Reg:
        reg = self._symbol_regs.get(name)
        if reg is not None:
            return reg
        if name.startswith("_S"):
            reg = self._emit_recipe(name)
            self._symbol_regs[name] = reg
            return reg
        reg = self._new_cr()
        if name.startswith("P"):
            index = int(name[1:])
            self.instrs.append(
                Instruction(
                    Opcode.LD_PARAM,
                    dtype=DType.S64,
                    dst=reg,
                    srcs=(ParamRef(index),),
                    comment=name,
                )
            )
        else:
            self.instrs.append(
                Instruction(
                    Opcode.MOV,
                    dtype=DType.S64,
                    dst=reg,
                    srcs=(_DIM_SPECIALS[name],),
                )
            )
        self._symbol_regs[name] = reg
        return reg

    def _emit_recipe(self, name: str) -> Reg:
        """Materialize an opaque scalar (e.g. ``shr cols, 1``) by
        evaluating its source expressions and emitting its opcode."""
        recipe = self._recipes[name]
        operands = []
        for expr in recipe.sources:
            if expr.is_constant:
                operands.append(Imm(expr.constant_value))
            else:
                operands.append(self.materialize(expr))
        reg = self._new_cr()
        self.instrs.append(
            Instruction(
                recipe.opcode,
                dtype=DType.S64,
                dst=reg,
                srcs=tuple(operands),
                comment=name,
            )
        )
        return reg

    def materialize(self, expr: LinExpr,
                    comment: str = "") -> Optional[Reg]:
        """Emit instructions computing ``expr``.

        Returns ``None`` for concrete constants — they ride as immediates
        and need no instruction (Section 3.2.1).  Common subexpressions
        (including shared symbols) are emitted once.
        """
        if expr.is_constant:
            return None
        cached = self._expr_regs.get(expr)
        if cached is not None:
            return cached

        acc: Optional[Reg] = None
        const_term = 0
        for monomial, coeff in sorted(
            expr.terms.items(), key=lambda kv: (len(kv[0]), kv[0])
        ):
            if monomial == ():
                const_term = coeff
                continue
            term_reg = self._symbol_reg(monomial[0])
            for sym in monomial[1:]:
                product = self._new_cr()
                self.instrs.append(
                    Instruction(
                        Opcode.MUL,
                        dtype=DType.S64,
                        dst=product,
                        srcs=(term_reg, self._symbol_reg(sym)),
                    )
                )
                term_reg = product
            if acc is None:
                if coeff == 1:
                    acc = term_reg
                else:
                    acc2 = self._new_cr()
                    self.instrs.append(
                        Instruction(
                            Opcode.MUL,
                            dtype=DType.S64,
                            dst=acc2,
                            srcs=(term_reg, Imm(coeff)),
                        )
                    )
                    acc = acc2
            else:
                acc2 = self._new_cr()
                self.instrs.append(
                    Instruction(
                        Opcode.MAD,
                        dtype=DType.S64,
                        dst=acc2,
                        srcs=(term_reg, Imm(coeff), acc),
                    )
                )
                acc = acc2
        assert acc is not None
        if const_term:
            dst = self._new_cr()
            self.instrs.append(
                Instruction(
                    Opcode.ADD,
                    dtype=DType.S64,
                    dst=dst,
                    srcs=(acc, Imm(const_term)),
                    comment=comment,
                )
            )
        else:
            dst = acc
        self._expr_regs[expr] = dst
        return dst


def generate_linear_blocks(plan: DecouplePlan) -> LinearBlocks:
    """Emit the three decoupled instruction blocks for ``plan``."""
    blocks = LinearBlocks()
    cg = _CoefCodegen(plan.scalar_recipes)

    # ------------------------------------------------------------- (1)
    # Coefficients: scalar demands, grouped deltas, then every symbolic
    # coefficient of the thread- and block-index parts.
    for entry in plan.scalars:
        cg.materialize(entry.expr, comment=f"scalar %cr{entry.cr_id}")
    for cr_id, delta in sorted(plan.delta_exprs.items()):
        cg.materialize(delta, comment=f"delta %cr{cr_id}")

    thread_coef_regs: List[Tuple[Optional[Reg], ...]] = []
    for part in plan.thread_parts:
        thread_coef_regs.append(
            tuple(
                cg.materialize(c) if not c.is_zero else None for c in part
            )
        )
    block_coef_regs = []
    block_const_regs = []
    for entry in plan.entries:
        block_coef_regs.append(
            tuple(
                cg.materialize(c) if not c.is_zero else None
                for c in entry.block_part
            )
        )
        block_const_regs.append(cg.materialize(entry.block_const))
    blocks.coef_instrs = cg.instrs
    blocks.total_coefficient_registers = (
        len(plan.scalars) + len(plan.delta_exprs) + cg._next_cr
    )

    # ------------------------------------------------------------- (2)
    # Thread-index parts: one mad.tr per non-zero coefficient.
    tid_regs: Dict[int, Reg] = {}
    for tr_id, part in enumerate(plan.thread_parts):
        tr = Reg(f"%tr{tr_id}", DType.S64)
        acc_src: object = Imm(0)
        for axis, coeff in enumerate(part):
            if coeff.is_zero:
                continue
            tid_reg = tid_regs.get(axis)
            if tid_reg is None:
                tid_reg = Reg(f"%t{axis}", DType.S32)
                blocks.thread_instrs.append(
                    Instruction(
                        Opcode.MOV,
                        dtype=DType.S32,
                        dst=tid_reg,
                        srcs=(_TID_SPECIALS[axis],),
                    )
                )
                tid_regs[axis] = tid_reg
            coeff_src: object
            coef_reg = thread_coef_regs[tr_id][axis]
            if coef_reg is not None:
                coeff_src = coef_reg
            else:
                coeff_src = Imm(coeff.constant_value)
            blocks.thread_instrs.append(
                Instruction(
                    Opcode.MAD,
                    dtype=DType.S64,
                    dst=tr,
                    srcs=(tid_reg, coeff_src, acc_src),
                    comment=f"thread-index part {tr_id}",
                )
            )
            acc_src = tr

    # ------------------------------------------------------------- (3)
    # Block-index parts, batched 16 entries per warp: the warp executes
    # mov.br plus the max number of mad.br steps within the batch.
    ctaid_regs: Dict[int, Reg] = {}
    total_block_warp_instrs = 0
    for batch_start in range(0, len(plan.entries), BLOCK_BATCH):
        batch = plan.entries[batch_start:batch_start + BLOCK_BATCH]
        br = Reg(f"%br{batch_start // BLOCK_BATCH}", DType.S64)
        blocks.block_instrs.append(
            Instruction(
                Opcode.MOV,
                dtype=DType.S64,
                dst=br,
                srcs=(Imm(0),),
                comment=f"block consts lr{batch[0].lr_id}..",
            )
        )
        steps = 0
        for axis in range(3):
            needed = [
                e
                for i, e in enumerate(batch)
                if not e.block_part[axis].is_zero
            ]
            if not needed:
                continue
            ctaid_reg = ctaid_regs.get(axis)
            if ctaid_reg is None:
                ctaid_reg = Reg(f"%b{axis}", DType.S32)
                blocks.block_instrs.append(
                    Instruction(
                        Opcode.MOV,
                        dtype=DType.S32,
                        dst=ctaid_reg,
                        srcs=(_CTAID_SPECIALS[axis],),
                    )
                )
            blocks.block_instrs.append(
                Instruction(
                    Opcode.MAD,
                    dtype=DType.S64,
                    dst=br,
                    srcs=(ctaid_reg, Reg("%crv", DType.S64), br),
                    comment=f"block-index axis {axis} x{len(needed)}",
                )
            )
            steps += 1
        total_block_warp_instrs = len(blocks.block_instrs)
    blocks.block_phase_warp_instrs = total_block_warp_instrs
    return blocks
