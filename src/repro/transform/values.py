"""Launch-time resolution of %lr/%cr operands.

The functional executor never *runs* the decoupled linear instructions —
their results are exactly the coefficient-vector decomposition, so
:class:`R2D2Values` evaluates thread-index parts, block-index parts, and
coefficients directly from the plan (this is the semantics the hardware
computes; the timing model charges for the instructions separately).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..isa.kernel import LaunchConfig
from ..isa.opcodes import DType, Opcode
from ..isa.operands import CoeffRegOperand, Imm
from ..linear.coeffvec import wrap_i64, wrap_to_dtype
from ..linear.symbols import launch_env
from ..linear.tables import DecouplePlan


def _apply_scalar_op(
    opcode: Opcode, args, dtype: DType = DType.S64
) -> int:
    """Integer semantics matching the functional executor exactly:
    operands and results live in 64-bit two's complement lanes, division
    truncates, and ``cvt`` narrows to ``dtype`` the way ``_convert``
    does.  Inputs wrap (not raise) when a symbolic evaluation overflows
    int64 — the executor's lanes would have wrapped at every step."""
    a = [wrap_i64(int(x)) for x in args]
    if opcode is Opcode.MOV:
        return a[0]
    if opcode is Opcode.CVT:
        return wrap_to_dtype(a[0], dtype)
    if opcode is Opcode.ADD:
        return wrap_i64(a[0] + a[1])
    if opcode is Opcode.SUB:
        return wrap_i64(a[0] - a[1])
    if opcode is Opcode.MUL:
        return wrap_i64(a[0] * a[1])
    if opcode is Opcode.MAD:
        return wrap_i64(a[0] * a[1] + a[2])
    if opcode is Opcode.SHL:
        return wrap_i64(a[0] << max(0, min(a[1], 63)))
    if opcode is Opcode.SHR:
        return a[0] >> max(0, min(a[1], 63))
    if opcode is Opcode.DIV:
        if a[1] == 0:
            return 0
        q = abs(a[0]) // abs(a[1])
        return wrap_i64(q * (1 if (a[0] >= 0) == (a[1] >= 0) else -1))
    if opcode is Opcode.REM:
        return wrap_i64(
            a[0] - _apply_scalar_op(Opcode.DIV, a) * a[1]
        )
    if opcode is Opcode.MIN:
        return min(a[0], a[1])
    if opcode is Opcode.MAX:
        return max(a[0], a[1])
    if opcode is Opcode.AND:
        return a[0] & a[1]
    if opcode is Opcode.OR:
        return a[0] | a[1]
    if opcode is Opcode.XOR:
        return a[0] ^ a[1]
    if opcode is Opcode.NOT:
        return ~a[0]
    if opcode is Opcode.ABS:
        return wrap_i64(abs(a[0]))
    if opcode is Opcode.NEG:
        return wrap_i64(-a[0])
    raise ValueError(f"no scalar semantics for {opcode}")


class R2D2Values:
    """A :class:`~repro.sim.executor.LinearValueProvider` for one launch:
    :meth:`operand` resolves every R2D2 operand form for a stack of
    warps."""

    def __init__(self, plan: DecouplePlan, launch: LaunchConfig) -> None:
        self.plan = plan
        self.launch = launch
        params = {
            i: int(v)
            for i, v in enumerate(launch.args)
            if isinstance(v, (int, np.integer))
        }
        self.env = launch_env(
            params, tuple(launch.block), tuple(launch.grid)
        )
        # Opaque scalars (definition order: recipes only reference
        # earlier symbols).
        for name, recipe in plan.scalar_recipes.items():
            args = [expr.evaluate(self.env) for expr in recipe.sources]
            self.env[name] = _apply_scalar_op(
                recipe.opcode, args, getattr(recipe, "dtype", DType.S64)
            )
        # Concrete coefficient values, wrapped to the executor's int64
        # register width (an unwrapped Python int above 2**63 would both
        # diverge from the SIMT lanes and crash numpy broadcasting).
        self._thread_coeffs = [
            tuple(
                0 if c.is_zero else wrap_i64(c.evaluate(self.env))
                for c in part
            )
            for part in plan.thread_parts
        ]
        self._block_coeffs = [
            tuple(
                0 if c.is_zero else wrap_i64(c.evaluate(self.env))
                for c in e.block_part
            )
            for e in plan.entries
        ]
        self._block_consts = [
            wrap_i64(e.block_const.evaluate(self.env))
            for e in plan.entries
        ]
        self._cr: Dict[int, int] = {}
        for entry in plan.scalars:
            self._cr[entry.cr_id] = wrap_i64(entry.expr.evaluate(self.env))
        for cr_id, delta in plan.delta_exprs.items():
            self._cr[cr_id] = wrap_i64(delta.evaluate(self.env))

    # ------------------------------------------------------------------
    def operand(self, op: object, tid: Sequence[np.ndarray],
                ctaid: Sequence[np.ndarray]):
        """R2D2 operand ``op`` as a transformed instruction reads it in
        ``R`` warps, given their ``(R, 32)`` ``tid.x/y/z`` lanes and
        their blocks' ``(R, 1)`` ``ctaid.x/y/z`` values: an immediate or
        a ``%cr`` as a Python scalar, a ``%lr`` register or a
        :class:`LinearRef` address as ``(R, 32)`` int64 lanes.  A linear
        register is its thread part plus its block part, in int64 lanes
        (both wrap exactly as the removed instructions' lanes would);
        its displacement plus its ``%cr`` offset is then added as one
        Python int."""
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, CoeffRegOperand):
            return self._cr[op.cr_id]
        offset = op.disp
        if op.cr_id is not None:
            offset = offset + self._cr[op.cr_id]
        if op.lr_id is None:
            return np.full(np.shape(tid[0]), offset, dtype=np.int64)
        cx, cy, cz = self._block_coeffs[op.lr_id]
        values = (self._block_consts[op.lr_id] + cx * ctaid[0]
                  + cy * ctaid[1] + cz * ctaid[2])
        tr_id = self.plan.entries[op.lr_id].tr_id
        if tr_id is None:
            values = np.repeat(values, np.shape(tid[0])[1], axis=1)
        else:
            cx, cy, cz = self._thread_coeffs[tr_id]
            values = cx * tid[0] + cy * tid[1] + cz * tid[2] + values
        return values + offset if offset else values
