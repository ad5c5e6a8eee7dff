"""Soundness invariants for the linearity analyzer.

The oracle deliberately re-derives everything it checks instead of
trusting the analyzer's own bookkeeping, and carries its own 64-bit
wrap helpers so the same checks run unmodified against historical trees
that predate the wrap fixes (that is how corpus counterexamples are
demonstrated to fail before a fix and pass after it).

Checked invariants:

``static`` — an instruction the transform may delete or scalarize
(SCALAR/THREAD/BLOCK/FULL/MOV_REPLACED/UNIFORM_UPDATE) must be
unpredicated: under a guard, inactive lanes keep their old register
value, so no launch-time expression describes all lanes.

``promotion`` — a register with a promoted uniform update must never be
written under a predicate (checked statically), and every write that is
neither linear-tracked (mov-replaced) nor an update must actually
produce a warp-uniform value (checked dynamically: the analyzer accepts
such writes only when they constant-fold to a kernel-uniform value, e.g.
``sub r, p, p``).  Anything else leaves per-lane state that "per-thread
base + warp-uniform running offset" cannot describe.

``value`` — for every removable pc, the coefficient-vector evaluation
(wrapped to the executor's int64 register width) must equal the value
the functional executor actually computed, bit for bit, on every active
lane of every warp.

``update`` — at every promoted update, the per-lane change since the
register's previous write must be identical across the warp's active
lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..isa.kernel import Kernel, LaunchConfig
from ..isa.opcodes import DType, Opcode
from ..linear.analyzer import AnalysisResult, LinearKind
from ..linear.symbols import launch_env
from ..sim.executor import FunctionalExecutor, WarpContext

_U64_MASK = (1 << 64) - 1
_I64_BIAS = 1 << 63

#: Kinds whose instructions the transform may remove entirely.
REMOVABLE_KINDS = frozenset(
    {
        LinearKind.SCALAR,
        LinearKind.THREAD,
        LinearKind.BLOCK,
        LinearKind.FULL,
        LinearKind.MOV_REPLACED,
    }
)


def _wrap64(value: int) -> int:
    return ((value + _I64_BIAS) & _U64_MASK) - _I64_BIAS


def _narrow(value: int, dtype) -> int:
    if dtype is DType.S32:
        return ((value + (1 << 31)) & 0xFFFFFFFF) - (1 << 31)
    if dtype is DType.U32:
        return value & 0xFFFFFFFF
    return _wrap64(value)


@dataclass
class Violation:
    """One soundness violation found by the oracle."""

    kind: str
    detail: str
    pc: Optional[int] = None

    def __str__(self) -> str:
        where = f" @pc {self.pc}" if self.pc is not None else ""
        return f"[{self.kind}]{where} {self.detail}"


# ======================================================================
# Probing executor
# ======================================================================
class WarpProbe:
    """Everything captured about one warp's execution."""

    __slots__ = ("tid", "ctaid", "base_mask", "samples", "stream")

    def __init__(self, warp: WarpContext) -> None:
        self.tid = (
            warp.tid_x.copy(), warp.tid_y.copy(), warp.tid_z.copy()
        )
        self.ctaid = warp.block_xyz
        self.base_mask = warp.base_mask.copy()
        #: (pc, active-mask copy, full 32-lane register copy) per integer
        #: destination write, in execution order.
        self.samples: List[Tuple[int, np.ndarray, np.ndarray]] = []
        #: (opcode, dtype, active-lane addresses) per observable memory
        #: write (stores + atomics).  Loads are deliberately excluded:
        #: dead-load elimination is legal, so only the write stream must
        #: survive the transform bit-for-bit.
        self.stream: List[Tuple[str, str, Tuple[int, ...]]] = []


class ProbeExecutor(FunctionalExecutor):
    """Functional executor that records per-warp register writes and the
    observable memory-write address stream."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.probes: Dict[Tuple[Tuple[int, int, int], int], WarpProbe] = {}

    def _probe_for(self, warp: WarpContext) -> WarpProbe:
        key = (warp.block_xyz, warp.warp_in_block)
        probe = self.probes.get(key)
        if probe is None:
            probe = WarpProbe(warp)
            self.probes[key] = probe
        return probe

    def _execute_instruction(self, warp, wrows, pc, instr, active,
                             shared) -> None:
        probe = self._probe_for(warp)
        if (instr.is_global_memory or instr.is_shared_memory) and (
            instr.is_store
            or instr.opcode in (Opcode.ATOM_GLOBAL, Opcode.ATOM_SHARED)
        ):
            addrs = self._address(warp, instr.srcs[0], active)
            probe.stream.append(
                (
                    instr.opcode.value,
                    instr.dtype.value,
                    tuple(int(a) for a in addrs),
                )
            )
        super()._execute_instruction(warp, wrows, pc, instr, active,
                                     shared)
        dst = instr.dst
        if (
            dst is not None
            and not dst.dtype.is_float
            and dst.dtype is not DType.PRED
        ):
            values = warp.regs.get(dst.name)
            if values is not None and values.dtype == np.int64:
                probe.samples.append((pc, active.copy(), values.copy()))


# ======================================================================
# Symbol environment (parameters, dims, opaque scalar recipes)
# ======================================================================
def _scalar_op(opcode: Opcode, args: List[int], dtype) -> int:
    """Executor-faithful integer semantics for opaque scalar recipes,
    independent of the tree under test."""
    a = [_wrap64(int(x)) for x in args]
    if opcode is Opcode.MOV:
        return a[0]
    if opcode is Opcode.CVT:
        return _narrow(a[0], dtype)
    if opcode is Opcode.ADD:
        return _wrap64(a[0] + a[1])
    if opcode is Opcode.SUB:
        return _wrap64(a[0] - a[1])
    if opcode is Opcode.MUL:
        return _wrap64(a[0] * a[1])
    if opcode is Opcode.MAD:
        return _wrap64(a[0] * a[1] + a[2])
    if opcode is Opcode.SHL:
        return _wrap64(a[0] << max(0, min(a[1], 63)))
    if opcode is Opcode.SHR:
        return a[0] >> max(0, min(a[1], 63))
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
        return _wrap64(abs(a[0]))
    if opcode is Opcode.NEG:
        return _wrap64(-a[0])
    if opcode is Opcode.DIV:
        if a[1] == 0:
            return 0
        q = abs(a[0]) // abs(a[1])
        return _wrap64(q if (a[0] >= 0) == (a[1] >= 0) else -q)
    if opcode is Opcode.REM:
        return _wrap64(a[0] - _scalar_op(Opcode.DIV, a, dtype) * a[1])
    raise ValueError(f"no scalar semantics for {opcode}")


def symbol_env(analysis: AnalysisResult,
               launch: LaunchConfig) -> Dict[str, int]:
    """Launch symbols plus the analysis' opaque scalar recipe values."""
    params = {
        i: int(v)
        for i, v in enumerate(launch.args)
        if isinstance(v, (int, np.integer))
    }
    env = launch_env(params, tuple(launch.block), tuple(launch.grid))
    for name, recipe in analysis.scalar_recipes.items():
        args = [expr.evaluate(env) for expr in recipe.sources]
        env[name] = _scalar_op(
            recipe.opcode, args, getattr(recipe, "dtype", None)
        )
    return env


def _eval_vec_lanes(vec, env: Dict[str, int], probe: WarpProbe) -> np.ndarray:
    """Per-lane wrapped evaluation of a coefficient vector (local
    semantics; does not call ``CoeffVec.evaluate`` so the checker stays
    meaningful on trees whose evaluate lacks the int64 wrap)."""
    coeffs = [int(e.evaluate(env)) if not e.is_zero else 0
              for e in vec.elems]
    cx, cy, cz = probe.ctaid
    const = coeffs[0] + coeffs[4] * cx + coeffs[5] * cy + coeffs[6] * cz
    out = np.empty(32, dtype=np.int64)
    for lane in range(32):
        total = (
            const
            + coeffs[1] * int(probe.tid[0][lane])
            + coeffs[2] * int(probe.tid[1][lane])
            + coeffs[3] * int(probe.tid[2][lane])
        )
        out[lane] = _wrap64(total)
    return out


# ======================================================================
# The invariant checks
# ======================================================================
def check_static(kernel: Kernel,
                 analysis: AnalysisResult) -> List[Violation]:
    """Invariants that need no execution."""
    violations: List[Violation] = []
    for pc, kind in sorted(analysis.kind_by_pc.items()):
        if kind not in REMOVABLE_KINDS and kind is not LinearKind.UNIFORM_UPDATE:
            continue
        instr = kernel.instructions[pc]
        if instr.pred is not None:
            violations.append(
                Violation(
                    "predicated-linear",
                    f"{instr} classified {kind.value} but carries a "
                    f"predicate; inactive lanes keep their old value",
                    pc=pc,
                )
            )

    # Independent re-derivation of the uniform-update promotion gate.
    promoted = {}
    for pc in analysis.uniform_updates:
        dst = kernel.instructions[pc].dst
        if dst is not None:
            promoted.setdefault(dst.name, []).append(pc)
    for name, pcs in sorted(promoted.items()):
        for pc, instr in enumerate(kernel.instructions):
            if instr.dst is None or instr.dst.name != name:
                continue
            if instr.pred is not None:
                violations.append(
                    Violation(
                        "promotion-predicated-write",
                        f"register {name} has promoted updates at "
                        f"{sorted(pcs)} but a predicated write at pc "
                        f"{pc}: per-lane state diverges from any "
                        f"(base + uniform offset) decomposition",
                        pc=pc,
                    )
                )
                continue
    return violations


def _uniform_base_pcs(kernel: Kernel,
                      analysis: AnalysisResult) -> Dict[int, str]:
    """pcs writing a promoted register that the analyzer must believe
    produce a warp-uniform value.  Linear-tracked writes (MOV_REPLACED)
    and the updates themselves decompose differently and are excluded;
    everything else — trivial immediate movs, but also folded constants
    like ``sub r, p, p`` — is only sound if every active lane computes
    the same value, which :func:`check_dynamic` verifies directly."""
    promoted = {
        kernel.instructions[pc].dst.name
        for pc in analysis.uniform_updates
        if kernel.instructions[pc].dst is not None
    }
    out: Dict[int, str] = {}
    for pc, instr in enumerate(kernel.instructions):
        if (
            instr.dst is not None
            and instr.dst.name in promoted
            and instr.pred is None
            and analysis.kind_by_pc.get(pc)
            not in (LinearKind.MOV_REPLACED, LinearKind.UNIFORM_UPDATE)
        ):
            out[pc] = instr.dst.name
    return out


def check_dynamic(
    kernel: Kernel,
    analysis: AnalysisResult,
    launch: LaunchConfig,
    probes: Dict[Tuple[Tuple[int, int, int], int], WarpProbe],
    max_violations: int = 8,
) -> List[Violation]:
    """Compare classified values against captured execution."""
    violations: List[Violation] = []
    env = symbol_env(analysis, launch)
    vec_pcs = {
        pc: analysis.vec_by_pc[pc]
        for pc, kind in analysis.kind_by_pc.items()
        if kind in REMOVABLE_KINDS and pc in analysis.vec_by_pc
        and not kernel.instructions[pc].dtype.is_float
    }
    update_pcs = set(analysis.uniform_updates)
    base_pcs = _uniform_base_pcs(kernel, analysis)

    for key in sorted(probes):
        probe = probes[key]
        expected_cache: Dict[int, np.ndarray] = {}
        #: last observed full 32-lane value per register (for updates)
        prev_value: Dict[str, np.ndarray] = {}
        for pc, active, values in probe.samples:
            if len(violations) >= max_violations:
                return violations
            instr = kernel.instructions[pc]
            vec = vec_pcs.get(pc)
            if vec is not None:
                expected = expected_cache.get(pc)
                if expected is None:
                    expected = _eval_vec_lanes(vec, env, probe)
                    expected_cache[pc] = expected
                if not np.array_equal(expected[active], values[active]):
                    lanes = np.nonzero(expected != values)[0]
                    lane = int(lanes[0]) if len(lanes) else 0
                    violations.append(
                        Violation(
                            "classification-mismatch",
                            f"warp {key}: {instr} classified "
                            f"{analysis.kind_by_pc[pc].value}, vector "
                            f"predicts {int(expected[lane])} on lane "
                            f"{lane} but the executor computed "
                            f"{int(values[lane])}",
                            pc=pc,
                        )
                    )
            elif pc in base_pcs and active.any():
                lanes = values[active]
                if len(set(int(v) for v in lanes)) > 1:
                    violations.append(
                        Violation(
                            "promotion-nonuniform-base",
                            f"warp {key}: {instr} writes register "
                            f"{base_pcs[pc]} (which has promoted "
                            f"uniform updates) with lane-varying "
                            f"values {sorted(set(int(v) for v in lanes))[:4]}",
                            pc=pc,
                        )
                    )
            elif pc in update_pcs and instr.dst is not None:
                prev = prev_value.get(instr.dst.name)
                if prev is not None and active.any():
                    deltas = (values[active].astype(np.int64)
                              - prev[active].astype(np.int64))
                    if len(set(int(d) for d in deltas)) > 1:
                        violations.append(
                            Violation(
                                "nonuniform-update",
                                f"warp {key}: promoted update {instr} "
                                f"applied lane-varying deltas "
                                f"{sorted(set(int(d) for d in deltas))}",
                                pc=pc,
                            )
                        )
            if instr.dst is not None:
                prev_value[instr.dst.name] = values
    return violations
