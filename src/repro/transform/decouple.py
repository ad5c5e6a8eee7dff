"""Kernel rewriting and instruction decoupling — producing the
:class:`R2D2Kernel` that the R2D2 architecture model executes.

Pipeline (paper Sections 3.1–3.3):

1. run the analyzer and build the grouping plan;
2. rewrite the instruction stream: boundary reads of linear registers
   become ``%lr``/``%cr`` operands, divergent linear definitions become
   moves from ``%lr``, loop self-updates are tagged for the scalar
   (uniform-register) pipeline;
3. dead-code-eliminate the now-unused address-generation chains;
4. generate the decoupled linear instruction blocks;
5. account register usage and decide the register-pressure fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from ..isa.instruction import Instruction
from ..isa.kernel import Kernel
from ..isa.opcodes import DType, Opcode
from ..isa.regalloc import allocated_registers
from ..isa.operands import (
    CoeffRegOperand,
    LinearRef,
    LinearRegOperand,
    MemRef,
    Reg,
)
from ..linear.analyzer import AnalysisResult, LinearKind, analyze_kernel
from ..linear.tables import (
    AssignKind,
    Assignment,
    DecouplePlan,
    build_plan,
)
from .generator import LinearBlocks, generate_linear_blocks
from .registers import RegisterUsage, compute_register_usage
from .translation import TranslationError, check_translation, has_side_effect


@dataclass
class R2D2Kernel:
    """A kernel compiled for R2D2: rewritten non-linear stream plus the
    decoupled linear blocks and their metadata."""

    original: Kernel
    transformed: Kernel
    plan: DecouplePlan
    analysis: AnalysisResult
    linear_blocks: LinearBlocks
    register_usage: RegisterUsage
    #: PCs (in the *transformed* kernel) of loop updates promoted to the
    #: uniform-register/scalar pipeline.
    uniform_pcs: Set[int] = field(default_factory=set)
    #: Static instructions removed from the original stream.
    removed_static: int = 0
    #: PCs (in the *original* kernel) of the removed instructions —
    #: the per-instruction attribution behind ``repro explain``.
    removed_pcs: Tuple[int, ...] = ()
    #: :meth:`translation`'s outcome once computed.
    _translation: object = field(default=None, repr=False, compare=False)

    @property
    def static_reduction(self) -> float:
        n = len(self.original.instructions)
        return self.removed_static / n if n else 0.0

    def fits(self, config, threads_per_block: int) -> bool:
        """Register-pressure check; False → run the original binary."""
        return self.register_usage.fits(config, threads_per_block)

    def translation(self):
        """:func:`~repro.transform.translation.check_translation` of this
        kernel, checked once: its
        :class:`~repro.transform.translation.Translation`, or its
        ``TranslationError`` raised again on every call."""
        if self._translation is None:
            try:
                self._translation = check_translation(self)
            except TranslationError as exc:
                self._translation = exc
        if isinstance(self._translation, TranslationError):
            raise self._translation
        return self._translation


def r2d2_transform(
    kernel: Kernel,
    max_entries: int = 16,
    group_shared_parts: bool = True,
) -> R2D2Kernel:
    """Apply the full R2D2 software pipeline to ``kernel``."""
    analysis = analyze_kernel(kernel)
    plan = build_plan(
        analysis,
        max_entries=max_entries,
        group_shared_parts=group_shared_parts,
    )

    rewritten, uniform_pcs_old = _rewrite(kernel, analysis, plan)
    kept_flags = _dead_code_eliminate(
        kernel, rewritten, analysis, uniform_pcs_old
    )
    transformed, uniform_pcs_new = _compact(
        kernel, rewritten, kept_flags, uniform_pcs_old
    )

    blocks = generate_linear_blocks(plan)
    usage = compute_register_usage(
        original_regs=_regs_per_thread(kernel),
        transformed_regs=_regs_per_thread(transformed),
        n_thread_registers=plan.num_thread_registers,
        n_linear_entries=plan.num_linear_registers,
        blocks=blocks,
    )
    removed = len(kernel.instructions) - len(transformed.instructions)
    removed_pcs = tuple(
        pc for pc, kept in enumerate(kept_flags) if not kept
    )
    return R2D2Kernel(
        original=kernel,
        transformed=transformed,
        plan=plan,
        analysis=analysis,
        linear_blocks=blocks,
        register_usage=usage,
        uniform_pcs=uniform_pcs_new,
        removed_static=removed,
        removed_pcs=removed_pcs,
    )


def _regs_per_thread(kernel: Kernel) -> int:
    return allocated_registers(kernel)


# ----------------------------------------------------------------------
# Step 2: operand rewriting
# ----------------------------------------------------------------------
def _operand_for(assign: Assignment, as_address: bool, disp: int = 0,
                 plan: Optional[DecouplePlan] = None):
    if assign.kind is AssignKind.SCALAR:
        if plan is not None:
            expr = plan.scalars[assign.cr_id].expr
            if expr.is_constant and not as_address:
                from ..isa.operands import Imm
                return Imm(expr.constant_value)
        if as_address:
            # scalar (kernel-uniform) address: %cr + displacement
            return LinearRef(None, assign.cr_id, disp)
        return CoeffRegOperand(assign.cr_id)
    if as_address:
        return LinearRef(
            assign.lr_id, assign.cr_id, disp + assign.disp_delta
        )
    return LinearRegOperand(assign.lr_id, assign.cr_id, assign.disp_delta)


def _rewrite(
    kernel: Kernel, analysis: AnalysisResult, plan: DecouplePlan
) -> Tuple[List[Optional[Instruction]], Set[int]]:
    """Per-pc rewritten instructions (None = left verbatim)."""
    rejected = set(plan.rejected)
    removable = {
        LinearKind.SCALAR,
        LinearKind.THREAD,
        LinearKind.BLOCK,
        LinearKind.FULL,
    }
    out: List[Optional[Instruction]] = [None] * len(kernel.instructions)
    uniform_pcs: Set[int] = set()

    for pc, instr in enumerate(kernel.instructions):
        kind = analysis.kind_by_pc.get(pc, LinearKind.NONLINEAR)
        if kind is LinearKind.UNIFORM_UPDATE:
            uniform_pcs.add(pc)
            continue
        if kind is LinearKind.MOV_REPLACED:
            demand_name = f"{instr.dst.name}@{pc}"
            assign = plan.assignment.get(demand_name)
            if assign is None:
                continue  # rejected by capacity: keep the original def
            out[pc] = Instruction(
                Opcode.MOV,
                dtype=instr.dtype,
                dst=instr.dst,
                srcs=(_operand_for(assign, as_address=False),),
                pred=instr.pred,
                pred_negated=instr.pred_negated,
                comment="r2d2: divergent linear def",
            )
            continue
        if kind in removable:
            continue  # producer: DCE decides whether it dies

        # Non-linear instruction: rewrite linear-register reads.
        new_srcs = []
        changed = False
        for op in instr.srcs:
            if isinstance(op, Reg) and op.name in plan.assignment:
                new_srcs.append(
                    _operand_for(
                        plan.assignment[op.name], as_address=False,
                        plan=plan,
                    )
                )
                changed = True
            elif (
                isinstance(op, MemRef)
                and op.base.name in plan.assignment
            ):
                new_srcs.append(
                    _operand_for(
                        plan.assignment[op.base.name],
                        as_address=True,
                        disp=op.disp,
                        plan=plan,
                    )
                )
                changed = True
            else:
                new_srcs.append(op)
        if changed:
            out[pc] = instr.with_srcs(new_srcs)
    return out, uniform_pcs


# ----------------------------------------------------------------------
# Step 3: dead-code elimination
# ----------------------------------------------------------------------
def _dead_code_eliminate(
    kernel: Kernel,
    rewritten: List[Optional[Instruction]],
    analysis: AnalysisResult,
    uniform_pcs: Set[int],
) -> List[bool]:
    """Flow-insensitive iterative DCE over the rewritten stream.

    An instruction survives if it has side effects (memory writes,
    control, barriers), is a promoted uniform update, or defines a
    register that some surviving instruction still reads.
    """
    n = len(kernel.instructions)
    kept = [True] * n

    def effective(pc: int) -> Instruction:
        return rewritten[pc] or kernel.instructions[pc]

    changed = True
    while changed:
        changed = False
        read: Set[str] = set()
        for pc in range(n):
            if not kept[pc]:
                continue
            for reg in effective(pc).source_regs():
                read.add(reg.name)
        for pc in range(n):
            if not kept[pc] or pc in uniform_pcs:
                continue
            instr = effective(pc)
            if has_side_effect(instr):
                continue
            if instr.dst.name not in read:
                kept[pc] = False
                changed = True
    return kept


# ----------------------------------------------------------------------
# Step 4: stream compaction with label remapping
# ----------------------------------------------------------------------
def _compact(
    kernel: Kernel,
    rewritten: List[Optional[Instruction]],
    kept: List[bool],
    uniform_pcs_old: Set[int],
) -> Tuple[Kernel, Set[int]]:
    new_instrs: List[Instruction] = []
    new_pc_of: List[int] = []
    for pc, keep in enumerate(kept):
        new_pc_of.append(len(new_instrs))
        if keep:
            new_instrs.append(rewritten[pc] or kernel.instructions[pc])
    new_pc_of.append(len(new_instrs))

    new_labels = {
        name: new_pc_of[old_pc] for name, old_pc in kernel.labels.items()
    }
    transformed = Kernel(
        kernel.name + ".r2d2",
        kernel.params,
        new_instrs,
        new_labels,
        shared_mem_bytes=kernel.shared_mem_bytes,
    )
    uniform_new = {
        new_pc_of[pc] for pc in uniform_pcs_old if kept[pc]
    }
    return transformed, uniform_new
