"""The translation check: a transformed kernel is its original with the
removed pcs dropped.

R2D2 deletes only instructions whose values are exact functions of
``tid``/``ctaid`` and rewrites their uses into ``%lr``/``%cr`` operands
(paper Sections 3.1–3.3).  :func:`check_translation` proves the static
half of "the transformed kernel T runs the original K's surviving
instructions on the same values":

- every kept instruction of K is T's instruction at its compacted pc,
  equal in every field but sources rewritten to ``%lr``/``%cr``/an
  immediate (a register) or a :class:`LinearRef` (a memory base), or it
  is a linear definition turned into a move of one such operand;
- every label maps to the compacted pc of its K pc (the next kept one),
  so branches and reconvergence keep their targets;
- every removed instruction has no side effect (it writes a register and
  is no store, atomic, branch, barrier or exit), and no instruction of T
  reads a removed destination, guard predicates and memory bases
  included.

The dynamic half is the operand witness
(:class:`~repro.sim.executor.Witness`): at each :class:`WitnessSite`,
both functional engines evaluate T's operand on K's warp state exactly
as T's launch would, and compare it with K's operand on every active
lane.  Together the two make T's execution K's with the removed rows
left out, so T's trace is K's trace taken through :attr:`new_pc`
(:meth:`~repro.sim.trace.KernelTrace.derive`) in every column but
``src_hash``, and T's memory effects are K's.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, NamedTuple, Optional

import numpy as np

from ..isa.instruction import Instruction
from ..isa.opcodes import Opcode
from ..isa.operands import (
    CoeffRegOperand,
    Imm,
    LinearRef,
    LinearRegOperand,
    MemRef,
    Reg,
)
from ..sim.executor import WitnessSite
from ..sim.trace import RECORD_FIELDS

#: Operands a register source may be rewritten to.
_VALUE_FORMS = (LinearRegOperand, CoeffRegOperand, Imm)

#: The trace columns a derived trace reproduces: all but ``src_hash``,
#: which hashes the pc and the operands as written.
DERIVED_FIELDS = tuple(f for f in RECORD_FIELDS if f != "src_hash")


class TranslationError(AssertionError):
    """The transformed kernel is not its original with the removed pcs
    dropped — a transform bug; the harness then executes it instead."""


class DerivationMismatch(AssertionError):
    """Under ``R2D2_VERIFY=1``: an executed transformed launch left a
    trace other than the derived one, or outputs other than the
    baseline's — the proof's premises or its checks are wrong."""


class Translation(NamedTuple):
    """What :func:`check_translation` proved about one transformed
    kernel."""

    #: Per original pc: its pc in the transformed kernel, -1 if removed.
    new_pc: np.ndarray
    #: Original pc -> the rewritten operands the witness checks there.
    sites: Dict[int, WitnessSite]


def has_side_effect(instr: Instruction) -> bool:
    """Writes memory, changes control, waits at a barrier, or writes no
    register — what dead-code elimination never removes."""
    return (
        instr.is_store
        or instr.opcode in (Opcode.ATOM_GLOBAL, Opcode.ATOM_SHARED)
        or instr.is_control
        or instr.dst is None
    )


def check_translation(rkernel) -> Translation:
    """Check that ``rkernel.transformed`` is ``rkernel.original`` with
    ``rkernel.removed_pcs`` dropped (module docstring); raise
    :class:`TranslationError` naming the first discrepancy."""
    k_kernel, t_kernel = rkernel.original, rkernel.transformed
    k_instrs, t_instrs = k_kernel.instructions, t_kernel.instructions
    n = len(k_instrs)
    removed = set(rkernel.removed_pcs)
    kept = [pc for pc in range(n) if pc not in removed]

    def fail(msg: str):
        raise TranslationError(f"{t_kernel.name}: {msg}")

    if len(kept) != len(t_instrs):
        fail(f"{len(t_instrs)} instructions, the original keeps "
             f"{len(kept)}")
    if (t_kernel.params != k_kernel.params
            or t_kernel.shared_mem_bytes != k_kernel.shared_mem_bytes):
        fail("parameters or shared memory differ from the original's")
    new_pc = np.full(n, -1, dtype=np.int64)
    new_pc[kept] = np.arange(len(kept))
    # A label at a removed pc lands on the next kept instruction.
    compacted = np.searchsorted(kept, np.arange(n + 1)).tolist()
    if set(t_kernel.labels) != set(k_kernel.labels):
        fail("label names differ from the original's")
    for name, pc in k_kernel.labels.items():
        if t_kernel.labels[name] != compacted[pc]:
            fail(f"label {name!r} at pc {t_kernel.labels[name]}, "
                 f"expected {compacted[pc]}")

    reads = {r.name for t in t_instrs for r in t.source_regs()}
    for pc in sorted(removed):
        k = k_instrs[pc]
        if has_side_effect(k):
            fail(f"removed pc {pc} ({k}) has a side effect")
        if k.dst.name in reads:
            fail(f"removed pc {pc} defines {k.dst.name}, which the "
                 "transformed kernel reads")

    sites: Dict[int, WitnessSite] = {}
    for pc in kept:
        site = _site(pc, k_instrs[pc], t_instrs[new_pc[pc]])
        if site is not None:
            sites[pc] = site
    return Translation(new_pc=new_pc, sites=sites)


def _site(pc: int, k: Instruction, t: Instruction) -> Optional[WitnessSite]:
    """The witness site of kept original pc ``pc`` (``None`` when ``t``
    is ``k``, comments aside), or raise."""
    if replace(t, srcs=k.srcs, comment=k.comment) == k and len(
        t.srcs
    ) == len(k.srcs):
        operands = []
        for slot, (a, b) in enumerate(zip(k.srcs, t.srcs)):
            if a == b:
                continue
            if isinstance(a, Reg) and isinstance(b, _VALUE_FORMS):
                operands.append((slot, b))
            elif (isinstance(a, MemRef) and isinstance(b, LinearRef)
                  and slot == 0
                  and (k.is_global_memory or k.is_shared_memory)):
                operands.append((slot, b))
            else:
                raise TranslationError(
                    f"pc {pc}: source {slot} {a} became {b}, not a "
                    "linear operand"
                )
        return WitnessSite(operands=tuple(operands)) if operands else None
    if (
        t.opcode is Opcode.MOV
        and len(t.srcs) == 1
        and isinstance(t.srcs[0], _VALUE_FORMS)
        and (t.dst, t.dtype, t.pred, t.pred_negated)
        == (k.dst, k.dtype, k.pred, k.pred_negated)
        and not has_side_effect(k)
        and not (k.is_global_memory or k.is_shared_memory)
    ):
        return WitnessSite(move=t.srcs[0])
    raise TranslationError(f"pc {pc}: {k} became {t}")
