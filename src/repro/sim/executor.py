"""Functional SIMT execution with trace collection.

Each warp runs the kernel with a classic immediate-post-dominator
reconvergence stack (the GPGPU-Sim model); lanes are numpy vectors of
width 32.  Warps of a block execute round-robin between barriers, so
shared-memory producer/consumer patterns with ``bar.sync`` behave as on
real hardware.

This serial interpreter records each executed warp instruction as a raw
row (warp, pc, active mask, result, sources) in a bounded buffer, and
classifies the buffer per pc with the megawarp's row functions
(:func:`~repro.sim.trace.classify_rows`) when it is full and when the
launch ends; the launch's columns are assembled like the megawarp's.

The executor is shared by every architecture variant: the baseline runs
original kernels, R2D2 runs transformed kernels whose ``%lr``/``%cr``
operands are resolved through a :class:`LinearValueProvider`, each warp
as one row.  Transformed kernels execute only here, never on the
megawarp; both engines check R2D2's operand witness on original
launches with one function (:func:`witness_holds`).
All variants must produce bit-identical memory contents — the integration
tests enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Protocol, Sequence, Tuple,
)

import numpy as np

from ..isa.cfg import ControlFlowGraph
from ..isa.instruction import Instruction
from ..isa.kernel import Kernel, LaunchConfig
from ..isa.opcodes import CmpOp, DType, Opcode
from ..isa.operands import (
    CoeffRegOperand,
    Imm,
    LinearRef,
    LinearRegOperand,
    MemRef,
    ParamRef,
    Reg,
    SpecialReg,
)
from .config import verify_enabled
from .memory import GlobalMemory, SharedMemory
from .trace import (
    WARP_SIZE,
    KernelTrace,
    WitnessVerdict,
    _scalar_bits,
    classify_rows,
    step_columns,
    uniform_cols,
    warp_blocks,
)

_LANES = np.arange(WARP_SIZE, dtype=np.int64)

#: Raw rows the serial interpreter buffers before classifying them: it
#: bounds the lane vectors a long launch holds at once.
ROW_CAP = 1024


class ExecutionError(RuntimeError):
    """Raised on runaway kernels or malformed runtime state."""


class LinearValueProvider(Protocol):
    """Resolves R2D2 register-table operands at execution time."""

    def operand(self, op: object, tid: Sequence[np.ndarray],
                ctaid: Sequence[np.ndarray]):
        """``op`` (an immediate, ``%cr``, ``%lr`` or :class:`LinearRef`)
        in ``R`` warps with ``(R, 32)`` ``tid.x/y/z`` lanes and ``(R, 1)``
        ``ctaid.x/y/z`` values: a Python scalar or ``(R, 32)`` lanes."""


class WitnessSite(NamedTuple):
    """One pc of an original kernel whose transformed instruction differs
    from it: ``operands`` pairs source slots with the transformed
    operand read there (``%lr``/``%cr``/immediate for a register,
    :class:`LinearRef` for a memory base), and ``move`` is the operand a
    linear definition became a move of (``None`` otherwise)."""

    operands: Tuple[Tuple[int, object], ...] = ()
    move: Optional[object] = None


class Witness(NamedTuple):
    """The operand witness of one launch of an original kernel: at every
    site, both engines evaluate the transformed operands through
    ``values`` — the method the transformed launch executes with on the
    serial interpreter — on the original warps, and compare them with
    the original operands on every active lane (:func:`witness_holds`).
    The verdict lands on the trace
    (:class:`~repro.sim.trace.WitnessVerdict`)."""

    values: LinearValueProvider
    sites: Dict[int, WitnessSite]


def lanes_agree(a, b, active: np.ndarray) -> bool:
    """``a`` and ``b`` (scalars, lane vectors or matrices broadcastable
    to ``active``) hold values of one kind that are equal on every
    active lane."""
    try:
        a, b = np.asarray(a), np.asarray(b)
        if a.dtype.kind != b.dtype.kind:
            return False
        return not ((a != b) & active).any()
    except (OverflowError, TypeError, ValueError):
        return False


def witness_holds(site: WitnessSite, instr: Instruction,
                  active: np.ndarray, srcs: list, result,
                  operand: Callable[[object], object],
                  compute: Callable[[Instruction, list], object]) -> bool:
    """The operand witness at ``site`` over ``R`` rows of the original
    ``instr``: ``active`` is their ``(R, 32)`` mask, ``srcs`` and
    ``result`` what they read and wrote (a memory access's address slot
    holds its full-lane addresses), ``operand`` evaluates a transformed
    operand on the same rows (:meth:`LinearValueProvider.operand`) and
    ``compute`` is the ALU.  A linear definition turned into a move must
    write the original result with the same ``uniform`` flag; otherwise
    every rewritten source must equal the original one, and all-scalar
    sources must compute the original result (they compute in Python
    ints, which do not wrap like the original's int64 lanes)."""
    if site.move is not None:
        value = operand(site.move)
        return lanes_agree(
            result, FunctionalExecutor._coerce_result(value, instr.dtype),
            active,
        ) and np.array_equal(
            uniform_cols([value], active), uniform_cols(srcs, active)
        )
    tsrcs = list(srcs)
    for slot, op in site.operands:
        tsrcs[slot] = operand(op)
        if not lanes_agree(srcs[slot], tsrcs[slot], active):
            return False
    if result is None or any(np.ndim(s) for s in tsrcs):
        return True
    return lanes_agree(result, compute(instr, tsrcs), active)


@dataclass
class _StackEntry:
    reconv_pc: int
    mask: np.ndarray  # bool (32,)
    pc: int


class _RegFile:
    """Dict-compatible register file backed by an index-slotted list.

    Register names resolve to integer slots through a map shared by
    every warp of a launch (built once per kernel by the executor), so
    the hot ``read``/``write`` path replaces a string hash per access
    with a list index.  The map may keep growing after a warp's file was
    created — ``get`` treats out-of-range slots as unwritten.
    """

    __slots__ = ("_slot_map", "_slots")

    def __init__(self, slot_map: Dict[str, int]) -> None:
        self._slot_map = slot_map
        self._slots: List[Optional[np.ndarray]] = [None] * len(slot_map)

    def get(self, name: str, default=None):
        i = self._slot_map.get(name)
        if i is None or i >= len(self._slots):
            return default
        values = self._slots[i]
        return default if values is None else values

    def __getitem__(self, name: str) -> np.ndarray:
        values = self.get(name)
        if values is None:
            raise KeyError(name)
        return values

    def __setitem__(self, name: str, values) -> None:
        i = self._slot_map.setdefault(name, len(self._slot_map))
        slots = self._slots
        if i >= len(slots):
            slots.extend([None] * (i + 1 - len(slots)))
        slots[i] = values

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None


class WarpContext:
    """Register state and lane geometry for one warp."""

    __slots__ = (
        "warp_in_block",
        "block_xyz",
        "tid_x",
        "tid_y",
        "tid_z",
        "base_mask",
        "regs",
        "stack",
        "exited",
        "done",
        "at_barrier",
        "zero_pool",
    )

    def __init__(
        self,
        warp_in_block: int,
        block_xyz: Tuple[int, int, int],
        block_dim: Tuple[int, int, int],
        n_instructions: int,
        slot_map: Optional[Dict[str, int]] = None,
        geometry: Optional[Tuple[np.ndarray, ...]] = None,
        zero_pool: Optional[Dict[str, np.ndarray]] = None,
    ) -> None:
        self.warp_in_block = warp_in_block
        self.block_xyz = block_xyz
        if geometry is not None:
            # Hoisted by the executor: lane ids depend only on
            # warp_in_block, not the block, so they are shared (frozen)
            # across all blocks of a launch.
            self.tid_x, self.tid_y, self.tid_z, self.base_mask = geometry
        else:
            bx, by, bz = block_dim
            flat = warp_in_block * WARP_SIZE + _LANES
            self.tid_x = flat % bx
            self.tid_y = (flat // bx) % by
            self.tid_z = flat // (bx * by)
            self.base_mask = flat < (bx * by * bz)
        self.zero_pool = zero_pool
        self.regs = _RegFile(slot_map if slot_map is not None else {})
        self.stack: List[_StackEntry] = [
            _StackEntry(n_instructions, self.base_mask.copy(), 0)
        ]
        self.exited = np.zeros(WARP_SIZE, dtype=bool)
        self.done = False
        self.at_barrier = False

    def read(self, reg: Reg) -> np.ndarray:
        values = self.regs.get(reg.name)
        if values is None:
            # Reading a never-written register: deliver zeros (real
            # hardware would deliver garbage; zeros keep runs repeatable).
            # The pooled arrays are frozen; every consumer copies or
            # builds a new array before writing lanes.
            pool = self.zero_pool
            if reg.dtype.is_float:
                values = pool["f"] if pool is not None else np.zeros(
                    WARP_SIZE, dtype=np.float64
                )
            elif reg.dtype is DType.PRED:
                values = pool["p"] if pool is not None else np.zeros(
                    WARP_SIZE, dtype=bool
                )
            else:
                values = pool["i"] if pool is not None else np.zeros(
                    WARP_SIZE, dtype=np.int64
                )
            self.regs[reg.name] = values
        return values

    def write(self, reg: Reg, values: np.ndarray, mask: np.ndarray) -> None:
        current = self.read(reg)
        self.regs[reg.name] = np.where(mask, values, current)


class FunctionalExecutor:
    """Executes one kernel launch and produces a :class:`KernelTrace`."""

    def __init__(
        self,
        kernel: Kernel,
        launch: LaunchConfig,
        memory: GlobalMemory,
        linear_values: Optional[LinearValueProvider] = None,
        max_warp_instructions: int = 20_000_000,
        witness: Optional[Witness] = None,
        bailed: Optional[Dict[Kernel, str]] = None,
    ) -> None:
        self.kernel = kernel
        self.launch = launch
        self.memory = memory
        self.witness = witness
        self.linear_values = linear_values
        self._sites: Dict[int, WitnessSite] = (
            witness.sites if witness is not None else {}
        )
        self._verdict: Optional[WitnessVerdict] = None
        #: Kernel -> reason of its first megawarp memory-conflict bail on
        #: this device (``Device``'s memo); ``run_fast`` sends a memoized
        #: kernel straight to the serial interpreter.
        self.bailed = bailed
        self.max_warp_instructions = max_warp_instructions
        self.cfg = ControlFlowGraph(kernel)
        self._executed = 0
        if len(launch.args) != len(kernel.params):
            raise ExecutionError(
                f"kernel {kernel.name} takes {len(kernel.params)} args, "
                f"got {len(launch.args)}"
            )
        # Register-name -> slot map shared by every warp of the launch
        # (the register file is index-slotted; see _RegFile).
        self._slot_map: Dict[str, int] = {}
        for instr in kernel.instructions:
            for reg in instr.dest_regs() + instr.source_regs():
                self._slot_map.setdefault(reg.name, len(self._slot_map))
        # Lane geometry per warp_in_block (block-independent) and frozen
        # zero-fill arrays, both shared across all blocks of the launch.
        self._warp_geometry: Dict[int, Tuple[np.ndarray, ...]] = {}
        self._zero_pool: Dict[str, np.ndarray] = {}
        for key, arr in (
            ("f", np.zeros(WARP_SIZE, dtype=np.float64)),
            ("p", np.zeros(WARP_SIZE, dtype=bool)),
            ("i", np.zeros(WARP_SIZE, dtype=np.int64)),
        ):
            arr.setflags(write=False)
            self._zero_pool[key] = arr
        self._reset_rows()

    def _reset_rows(self) -> None:
        #: Raw rows ``(warp, pc, mask, result, sources)`` not classified
        #: yet; a memory access's first source is its full-lane address
        #: vector.
        self._raw: List[tuple] = []
        #: Classified steps (:func:`~repro.sim.trace.classify_rows`) and
        #: each step's rows' positions in execution order.
        self._steps: List[tuple] = []
        self._seqs: List[np.ndarray] = []
        self._n_classified = 0

    # ------------------------------------------------------------------
    def run(self) -> KernelTrace:
        """Execute the launch on the production engine
        (:meth:`run_fast`), or on both engines under ``R2D2_VERIFY=1``
        (:meth:`run_verify`)."""
        return self.run_verify() if verify_enabled() else self.run_fast()

    def run_fast(self) -> KernelTrace:
        """The megawarp (:mod:`repro.sim.vector`), with the serial
        interpreter for the launches it skips or bails on.  Only this
        class vectorizes: subclasses (probes, tests) override pieces of
        the interpreter the megawarp would bypass, so they always run
        serially."""
        trace = KernelTrace(self.kernel, self.launch)
        if type(self) is FunctionalExecutor:
            from .vector import attempt_vectorization

            if attempt_vectorization(self, trace):
                return trace
        self._run_serial(trace)
        return trace

    def run_reference(self) -> KernelTrace:
        """The serial interpreter alone: the oracle the megawarp must
        match bit for bit."""
        trace = KernelTrace(self.kernel, self.launch)
        self._run_serial(trace)
        return trace

    def run_verify(self) -> KernelTrace:
        """Run the megawarp on a fork of device memory and the serial
        interpreter on the device itself, raise
        :class:`~repro.sim.vector.VectorMismatch` on any difference in
        memory or trace columns, and return the serial trace."""
        if type(self) is not FunctionalExecutor:
            return self.run_reference()
        from .vector import verify_vectorization

        return verify_vectorization(self)

    def _run_serial(self, trace: KernelTrace) -> None:
        """Run every block of the launch, in order, into ``trace``.
        Raw rows are buffered as warps execute (warps of a block
        interleave between barriers) and become the launch's columns,
        in warp and program order, once every block has run."""
        grid = self.launch.grid
        wpb = (self.launch.threads_per_block + WARP_SIZE - 1) // WARP_SIZE
        self._reset_rows()
        if self.witness is not None:
            self._verdict = trace.witness = WitnessVerdict()
        # Inactive lanes compute on zero-filled registers, which can
        # overflow or divide by zero without affecting any visible state.
        with np.errstate(over="ignore", invalid="ignore",
                         divide="ignore"):
            for block_id in range(grid.count):
                self._run_block(block_id, grid.linear_to_xyz(block_id))
            self._flush_rows()
        trace.cols, counts = step_columns(
            self._steps, grid.count * wpb,
            np.concatenate(self._seqs) if self._seqs else None,
        )
        trace.blocks.extend(warp_blocks(grid, 0, wpb, counts, 0))
        self._reset_rows()

    # ------------------------------------------------------------------
    def _make_warp(
        self, warp_in_block: int, block_xyz: Tuple[int, int, int]
    ) -> WarpContext:
        geometry = self._warp_geometry.get(warp_in_block)
        warp = WarpContext(
            warp_in_block,
            block_xyz,
            tuple(self.launch.block),
            len(self.kernel.instructions),
            slot_map=self._slot_map,
            geometry=geometry,
            zero_pool=self._zero_pool,
        )
        if geometry is None:
            for arr in (warp.tid_x, warp.tid_y, warp.tid_z,
                        warp.base_mask):
                arr.setflags(write=False)
            self._warp_geometry[warp_in_block] = (
                warp.tid_x, warp.tid_y, warp.tid_z, warp.base_mask
            )
        return warp

    # ------------------------------------------------------------------
    def _run_block(
        self, block_id: int, block_xyz: Tuple[int, int, int]
    ) -> None:
        n_threads = self.launch.threads_per_block
        n_warps = (n_threads + WARP_SIZE - 1) // WARP_SIZE
        shared = SharedMemory(self.kernel.shared_mem_bytes)

        warps = [
            self._make_warp(w, block_xyz) for w in range(n_warps)
        ]
        wid0 = block_id * n_warps

        while True:
            progressed = False
            for w, warp in enumerate(warps):
                if warp.done or warp.at_barrier:
                    continue
                self._run_warp_until_break(warp, wid0 + w, shared)
                progressed = True
            live = [w for w in warps if not w.done]
            if not live:
                break
            if all(w.at_barrier for w in live):
                for w in live:
                    w.at_barrier = False
            elif not progressed:
                raise ExecutionError(
                    f"deadlock in block {block_id} of {self.kernel.name}"
                )

    # ------------------------------------------------------------------
    def _run_warp_until_break(
        self, warp: WarpContext, wid: int, shared: SharedMemory
    ) -> None:
        """Run until the warp hits a barrier or finishes, recording its
        rows as launch warp ``wid``."""
        instrs = self.kernel.instructions
        while warp.stack:
            entry = warp.stack[-1]
            if entry.pc >= entry.reconv_pc:
                warp.stack.pop()
                continue
            mask = entry.mask & ~warp.exited
            if not mask.any():
                warp.stack.pop()
                continue
            instr = instrs[entry.pc]

            self._executed += 1
            if self._executed > self.max_warp_instructions:
                raise ExecutionError(
                    f"kernel {self.kernel.name} exceeded "
                    f"{self.max_warp_instructions} warp instructions "
                    "(infinite loop?)"
                )

            if instr.opcode is Opcode.BRA:
                self._record(wid, entry.pc, mask, None, [])
                self._execute_branch(warp, entry, instr, mask)
                continue
            if instr.opcode is Opcode.EXIT:
                active = self._guard_mask(warp, instr, mask)
                warp.exited |= active
                entry.pc += 1
                continue
            if instr.opcode is Opcode.BAR:
                self._record(wid, entry.pc, mask, None, [])
                entry.pc += 1
                warp.at_barrier = True
                return

            active = self._guard_mask(warp, instr, mask)
            if active.any():
                self._execute_instruction(
                    warp, wid, entry.pc, instr, active, shared
                )
            entry.pc += 1

        warp.done = True

    def _guard_mask(
        self, warp: WarpContext, instr: Instruction, mask: np.ndarray
    ) -> np.ndarray:
        if instr.pred is None:
            return mask
        pvals = warp.read(instr.pred)
        if instr.pred_negated:
            return mask & ~pvals
        return mask & pvals

    # ------------------------------------------------------------------
    def _execute_branch(
        self,
        warp: WarpContext,
        entry: _StackEntry,
        instr: Instruction,
        mask: np.ndarray,
    ) -> None:
        target = self.kernel.label_pc(instr.target)
        if instr.pred is None:
            entry.pc = target
            return
        pvals = warp.read(instr.pred)
        taken_cond = ~pvals if instr.pred_negated else pvals
        taken = mask & taken_cond
        not_taken = mask & ~taken_cond
        branch_pc = entry.pc
        if not taken.any():
            entry.pc = branch_pc + 1
        elif not not_taken.any():
            entry.pc = target
        else:
            rpc = self.cfg.reconvergence_pc(branch_pc)
            entry.pc = rpc
            warp.stack.append(_StackEntry(rpc, not_taken, branch_pc + 1))
            warp.stack.append(_StackEntry(rpc, taken, target))

    # ------------------------------------------------------------------
    # Operand fetch
    # ------------------------------------------------------------------
    def _fetch(self, warp: WarpContext, op: object):
        if isinstance(op, Reg):
            return warp.read(op)
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, SpecialReg):
            return self._special(warp, op)
        if isinstance(op, (CoeffRegOperand, LinearRegOperand)):
            return self._linear(self._provider(), warp, op)
        raise ExecutionError(f"cannot fetch operand {op!r}")

    def _provider(self) -> LinearValueProvider:
        if self.linear_values is None:
            raise ExecutionError(
                "kernel uses %lr/%cr operands but no LinearValueProvider "
                "was supplied"
            )
        return self.linear_values

    @staticmethod
    def _linear(values: LinearValueProvider, warp: WarpContext,
                op: object):
        """R2D2 operand ``op`` resolved by ``values`` for ``warp`` as one
        row: a scalar or the warp's 32 lanes."""
        value = values.operand(
            op, (warp.tid_x[None], warp.tid_y[None], warp.tid_z[None]),
            np.array(warp.block_xyz, dtype=np.int64).reshape(3, 1, 1),
        )
        return value[0] if np.ndim(value) else value

    def _special(self, warp: WarpContext, sreg: SpecialReg) -> object:
        if sreg is SpecialReg.TID_X:
            return warp.tid_x
        if sreg is SpecialReg.TID_Y:
            return warp.tid_y
        if sreg is SpecialReg.TID_Z:
            return warp.tid_z
        bx, by, bz = warp.block_xyz
        if sreg is SpecialReg.CTAID_X:
            return bx
        if sreg is SpecialReg.CTAID_Y:
            return by
        if sreg is SpecialReg.CTAID_Z:
            return bz
        block = self.launch.block
        grid = self.launch.grid
        mapping = {
            SpecialReg.NTID_X: block.x,
            SpecialReg.NTID_Y: block.y,
            SpecialReg.NTID_Z: block.z,
            SpecialReg.NCTAID_X: grid.x,
            SpecialReg.NCTAID_Y: grid.y,
            SpecialReg.NCTAID_Z: grid.z,
        }
        return mapping[sreg]

    def _address(self, warp: WarpContext, op: object) -> np.ndarray:
        """Full-lane addresses of memory operand ``op`` (callers select
        the active lanes)."""
        if isinstance(op, MemRef):
            return warp.read(op.base) + op.disp
        if isinstance(op, LinearRef):
            return self._linear(self._provider(), warp, op)
        raise ExecutionError(f"not a memory operand: {op!r}")

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------
    def _execute_instruction(
        self,
        warp: WarpContext,
        wid: int,
        pc: int,
        instr: Instruction,
        active: np.ndarray,
        shared: SharedMemory,
    ) -> None:
        op = instr.opcode
        if op in (Opcode.LD_GLOBAL, Opcode.LD_SHARED):
            self._execute_load(warp, wid, pc, instr, active, shared)
            return
        if op in (Opcode.ST_GLOBAL, Opcode.ST_SHARED):
            self._execute_store(warp, wid, pc, instr, active, shared)
            return
        if op in (Opcode.ATOM_GLOBAL, Opcode.ATOM_SHARED):
            self._execute_atomic(warp, wid, pc, instr, active, shared)
            return
        if op is Opcode.LD_PARAM:
            ref = instr.srcs[0]
            assert isinstance(ref, ParamRef)
            value = self.launch.args[ref.index]
            values = np.full(
                WARP_SIZE,
                value,
                dtype=np.float64 if instr.dtype.is_float else np.int64,
            )
            warp.write(instr.dst, values, active)
            self._record(wid, pc, active, values, [value])
            if pc in self._sites:
                self._witness(warp, pc, instr, active, [value], values)
            return

        srcs = [self._fetch(warp, s) for s in instr.srcs]
        result = self._compute(instr, srcs)
        if instr.dst is not None:
            warp.write(instr.dst, np.broadcast_to(
                np.asarray(result), (WARP_SIZE,)
            ).copy() if np.ndim(result) == 0 else result, active)
        self._record(wid, pc, active, result, srcs)
        if pc in self._sites:
            self._witness(warp, pc, instr, active, srcs, result)

    def _witness(self, warp: WarpContext, pc: int, instr: Instruction,
                 active: np.ndarray, srcs: list, result) -> None:
        """:func:`witness_holds` at witness site ``pc`` on this warp
        instruction, as one row."""
        verdict = self._verdict
        if verdict.failure:
            return
        verdict.rows += 1
        values = self.witness.values
        if not witness_holds(
            self._sites[pc], instr, active[None], srcs, result,
            lambda op: self._linear(values, warp, op), self._compute,
        ):
            verdict.failure = (
                f"pc {pc} ({instr.opcode.value}), block "
                f"{warp.block_xyz} warp {warp.warp_in_block}"
            )

    def _compute(self, instr: Instruction, srcs: list):
        op = instr.opcode
        dtype = instr.dtype
        if op is Opcode.MOV:
            value = srcs[0]
            return self._coerce_result(value, dtype)
        if op is Opcode.CVT:
            return self._convert(srcs[0], dtype)
        if op is Opcode.ADD:
            return self._round(srcs[0] + srcs[1], dtype)
        if op is Opcode.SUB:
            return self._round(srcs[0] - srcs[1], dtype)
        if op is Opcode.MUL:
            return self._round(np.multiply(srcs[0], srcs[1]), dtype)
        if op in (Opcode.MAD, Opcode.FMA):
            return self._round(
                np.multiply(srcs[0], srcs[1]) + srcs[2], dtype
            )
        if op is Opcode.DIV:
            return self._divide(srcs[0], srcs[1], dtype)
        if op is Opcode.REM:
            return self._remainder(srcs[0], srcs[1], dtype)
        if op is Opcode.MIN:
            return np.minimum(srcs[0], srcs[1])
        if op is Opcode.MAX:
            return np.maximum(srcs[0], srcs[1])
        if op is Opcode.ABS:
            return np.abs(srcs[0])
        if op is Opcode.NEG:
            return -np.asarray(srcs[0])
        if op is Opcode.AND:
            return np.bitwise_and(srcs[0], srcs[1])
        if op is Opcode.OR:
            return np.bitwise_or(srcs[0], srcs[1])
        if op is Opcode.XOR:
            return np.bitwise_xor(srcs[0], srcs[1])
        if op is Opcode.NOT:
            return np.bitwise_not(np.asarray(srcs[0], dtype=np.int64))
        if op is Opcode.SHL:
            return self._shift(srcs[0], srcs[1], left=True)
        if op is Opcode.SHR:
            return self._shift(srcs[0], srcs[1], left=False)
        if op is Opcode.SETP:
            return self._compare(instr.cmp, srcs[0], srcs[1])
        if op is Opcode.SELP:
            return np.where(srcs[2], srcs[0], srcs[1])
        if op is Opcode.RCP:
            return self._round(self._safe_div(1.0, srcs[0]), dtype)
        if op is Opcode.SQRT:
            return self._round(np.sqrt(np.maximum(srcs[0], 0.0)), dtype)
        if op is Opcode.RSQRT:
            return self._round(
                self._safe_div(1.0, np.sqrt(np.maximum(srcs[0], 1e-300))),
                dtype,
            )
        if op is Opcode.EX2:
            return self._round(np.exp2(srcs[0]), dtype)
        if op is Opcode.LG2:
            return self._round(np.log2(np.maximum(srcs[0], 1e-300)), dtype)
        if op is Opcode.SIN:
            return self._round(np.sin(srcs[0]), dtype)
        if op is Opcode.COS:
            return self._round(np.cos(srcs[0]), dtype)
        raise ExecutionError(f"unimplemented opcode {op}")

    # ------------------------------------------------------------------
    @staticmethod
    def _safe_div(a, b):
        b = np.asarray(b, dtype=np.float64)
        return np.divide(a, np.where(b == 0.0, 1e-300, b))

    @staticmethod
    def _round(value, dtype: DType):
        """F32 operations round through float32 so results match a real
        single-precision pipeline regardless of our float64 storage."""
        if dtype is DType.F32:
            return np.asarray(value, dtype=np.float32).astype(np.float64)
        return value

    @staticmethod
    def _coerce_result(value, dtype: DType):
        if dtype.is_float:
            return FunctionalExecutor._round(
                np.asarray(value, dtype=np.float64), dtype
            )
        if dtype is DType.PRED:
            return np.asarray(value, dtype=bool)
        return np.asarray(value, dtype=np.int64)

    @staticmethod
    def _convert(value, dtype: DType):
        arr = np.asarray(value)
        if dtype.is_float:
            return FunctionalExecutor._round(
                arr.astype(np.float64), dtype
            )
        if arr.dtype.kind == "f":
            arr = np.trunc(arr)
        arr = arr.astype(np.int64)
        if dtype in (DType.S32, DType.U32):
            arr = arr.astype(np.int32).astype(np.int64)
            if dtype is DType.U32:
                arr = arr & 0xFFFFFFFF
        return arr

    @staticmethod
    def _divide(a, b, dtype: DType):
        if dtype.is_float:
            return FunctionalExecutor._round(
                FunctionalExecutor._safe_div(a, b), dtype
            )
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        safe_b = np.where(b == 0, 1, b)
        q = np.abs(a) // np.abs(safe_b)
        return np.where(b == 0, 0, np.sign(a) * np.sign(safe_b) * q)

    @staticmethod
    def _remainder(a, b, dtype: DType):
        if dtype.is_float:
            return np.mod(a, np.where(np.asarray(b) == 0, 1, b))
        q = FunctionalExecutor._divide(a, b, dtype)
        return np.asarray(a, dtype=np.int64) - q * np.asarray(
            b, dtype=np.int64
        )

    @staticmethod
    def _shift(a, amount, left: bool):
        a = np.asarray(a, dtype=np.int64)
        amt = np.clip(np.asarray(amount, dtype=np.int64), 0, 63)
        return np.left_shift(a, amt) if left else np.right_shift(a, amt)

    @staticmethod
    def _compare(cmp: CmpOp, a, b) -> np.ndarray:
        if cmp is CmpOp.EQ:
            return np.equal(a, b)
        if cmp is CmpOp.NE:
            return np.not_equal(a, b)
        if cmp is CmpOp.LT:
            return np.less(a, b)
        if cmp is CmpOp.LE:
            return np.less_equal(a, b)
        if cmp is CmpOp.GT:
            return np.greater(a, b)
        return np.greater_equal(a, b)

    # ------------------------------------------------------------------
    # Memory instructions
    # ------------------------------------------------------------------
    def _execute_load(
        self, warp, wid, pc, instr, active, shared: SharedMemory
    ) -> None:
        space = shared if instr.is_shared_memory else self.memory
        addrs = self._address(warp, instr.srcs[0])
        values_active = space.gather(addrs[active], instr.dtype)
        full = warp.read(instr.dst).copy()
        full[active] = values_active
        warp.regs[instr.dst.name] = full
        self._record(wid, pc, active, full, [addrs])
        if pc in self._sites:
            self._witness(warp, pc, instr, active, [addrs], None)

    def _execute_store(
        self, warp, wid, pc, instr, active, shared: SharedMemory
    ) -> None:
        space = shared if instr.is_shared_memory else self.memory
        addrs = self._address(warp, instr.srcs[0])
        value = self._fetch(warp, instr.srcs[1])
        values = np.broadcast_to(np.asarray(value), (WARP_SIZE,))[active]
        space.scatter(addrs[active], values, instr.dtype)
        self._record(wid, pc, active, None, [addrs, value])
        if pc in self._sites:
            self._witness(warp, pc, instr, active, [addrs, value], None)

    def _execute_atomic(
        self, warp, wid, pc, instr, active, shared: SharedMemory
    ) -> None:
        space = shared if instr.is_shared_memory else self.memory
        addrs = self._address(warp, instr.srcs[0])
        value = self._fetch(warp, instr.srcs[1])
        values = np.broadcast_to(np.asarray(value), (WARP_SIZE,))[active]
        old = space.atomic(instr.atom, addrs[active], values, instr.dtype)
        if instr.dst is not None:
            full = warp.read(instr.dst).copy()
            full[active] = old
            warp.regs[instr.dst.name] = full
        self._record(wid, pc, active, None, [addrs, value])
        if pc in self._sites:
            self._witness(warp, pc, instr, active, [addrs, value], None)

    # ------------------------------------------------------------------
    # Trace recording
    # ------------------------------------------------------------------
    def _record(self, wid: int, pc: int, active: np.ndarray, result,
                srcs: list) -> None:
        """Buffer one executed warp instruction's raw row; a full buffer
        is classified."""
        raw = self._raw
        raw.append((wid, pc, active, result, srcs))
        if len(raw) >= ROW_CAP:
            self._flush_rows()

    def _flush_rows(self) -> None:
        """Classify the buffered rows with the row functions, one group
        per pc and value kinds (a register's dtype may differ between
        warps), and empty the buffer."""
        raw = self._raw
        groups: Dict[tuple, List[int]] = {}
        for i, (_, pc, _, result, srcs) in enumerate(raw):
            groups.setdefault(
                (pc, _kind(result), *map(_kind, srcs)), []
            ).append(i)
        instrs = self.kernel.instructions
        for (pc, result_kind, *kinds), idx in groups.items():
            rows = [raw[i] for i in idx]
            result = rows[0][3]
            if result is not None:
                # A scalar result's value never matters: it is affine on
                # three active lanes or more.
                result = 0 if result_kind is None else np.array(
                    [r[3] for r in rows]
                )
            self._steps.append(classify_rows(
                np.array([r[0] for r in rows], dtype=np.int64), pc,
                instrs[pc], np.array([r[2] for r in rows]), result,
                [_stack([r[4][k] for r in rows], kind)
                 for k, kind in enumerate(kinds)],
            ))
            self._seqs.append(
                np.array(idx, dtype=np.int64) + self._n_classified
            )
        self._n_classified += len(raw)
        raw.clear()


def _kind(value):
    """Grouping key of one raw value: a lane vector's dtype, or ``None``
    for a scalar (or no value)."""
    if isinstance(value, np.ndarray) and value.ndim:
        return value.dtype
    return None


def _stack(values: list, kind):
    """One source slot of a group's raw rows as the row functions take
    it: lane vectors as an ``(R, 32)`` matrix; a scalar every row shares
    as itself, or else the rows' scalar bits as an ``(R, 1)`` column."""
    if kind is not None:
        return np.array(values)
    first = values[0]
    if all(v is first for v in values):
        return first
    return np.fromiter(
        map(_scalar_bits, values), dtype=np.uint64, count=len(values)
    )[:, None]
