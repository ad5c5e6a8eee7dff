"""Functional SIMT execution with trace collection.

Each warp runs the kernel with a classic immediate-post-dominator
reconvergence stack (the GPGPU-Sim model); lanes are numpy vectors of
width 32.  Warps of a block execute round-robin between barriers, so
shared-memory producer/consumer patterns with ``bar.sync`` behave as on
real hardware.

The executor is shared by every architecture variant: the baseline runs
original kernels, R2D2 runs transformed kernels whose ``%lr``/``%cr``
operands are resolved through a :class:`LinearValueProvider`.
All variants must produce bit-identical memory contents — the integration
tests enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..isa.cfg import ControlFlowGraph
from ..isa.instruction import Instruction
from ..isa.kernel import Kernel, LaunchConfig
from ..isa.opcodes import AtomOp, CmpOp, DType, Opcode
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
    BlockTrace,
    KernelTrace,
    WarpTrace,
    bank_conflict_degree,
    coalesce,
)

WARP_SIZE = 32
_LANES = np.arange(WARP_SIZE, dtype=np.int64)


class ExecutionError(RuntimeError):
    """Raised on runaway kernels or malformed runtime state."""


class LinearValueProvider(Protocol):
    """Resolves R2D2 register-table operands at execution time."""

    def lr_lane_values(self, lr_id: int, warp: "WarpContext") -> np.ndarray:
        """Per-lane value of linear register ``lr_id``."""

    def cr_value(self, cr_id: int) -> int:
        """Kernel-uniform value of coefficient register ``cr_id``."""

    def lr_parts(
        self,
        lr_id: int,
        warps: Sequence["WarpContext"],
        blocks: Sequence[Tuple[int, int, int]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Linear register ``lr_id`` split for batched execution: a
        ``(len(warps), 32)`` thread part over ``warps`` and a
        ``(len(blocks),)`` block part over block coordinates, such that
        ``thread[w] + block[b]`` equals :meth:`lr_lane_values` of warp
        ``w`` in block ``b`` bit for bit."""


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
    ) -> None:
        self.kernel = kernel
        self.launch = launch
        self.memory = memory
        self.linear_values = linear_values
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
        Records are appended per warp (warps of a block interleave
        between barriers) and become the launch's columns once every
        block has run."""
        grid = self.launch.grid
        warp_rows: List[list] = []
        # Inactive lanes compute on zero-filled registers, which can
        # overflow or divide by zero without affecting any visible state.
        with np.errstate(over="ignore", invalid="ignore",
                         divide="ignore"):
            for block_id in range(grid.count):
                block_xyz = grid.linear_to_xyz(block_id)
                trace.blocks.append(
                    self._run_block(block_id, block_xyz, warp_rows)
                )
        trace.set_rows(warp_rows)

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
        self, block_id: int, block_xyz: Tuple[int, int, int],
        warp_rows: List[list],
    ) -> BlockTrace:
        n_threads = self.launch.threads_per_block
        n_warps = (n_threads + WARP_SIZE - 1) // WARP_SIZE
        shared = SharedMemory(self.kernel.shared_mem_bytes)

        warps = [
            self._make_warp(w, block_xyz) for w in range(n_warps)
        ]
        rows: List[list] = [[] for _ in range(n_warps)]
        warp_rows.extend(rows)

        while True:
            progressed = False
            for warp, wrows in zip(warps, rows):
                if warp.done or warp.at_barrier:
                    continue
                self._run_warp_until_break(warp, wrows, shared)
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

        return BlockTrace(
            block_id, block_xyz,
            [WarpTrace(block_id, w) for w in range(n_warps)],
        )

    # ------------------------------------------------------------------
    def _run_warp_until_break(
        self, warp: WarpContext, wrows: list, shared: SharedMemory
    ) -> None:
        """Run until the warp hits a barrier or finishes, appending its
        records to ``wrows``."""
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
                self._record(wrows, entry.pc, mask, instr, None, [])
                self._execute_branch(warp, entry, instr, mask)
                continue
            if instr.opcode is Opcode.EXIT:
                active = self._guard_mask(warp, instr, mask)
                warp.exited |= active
                entry.pc += 1
                continue
            if instr.opcode is Opcode.BAR:
                self._record(wrows, entry.pc, mask, instr, None, [])
                entry.pc += 1
                warp.at_barrier = True
                return

            active = self._guard_mask(warp, instr, mask)
            if active.any():
                self._execute_instruction(
                    warp, wrows, entry.pc, instr, active, shared
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
        if isinstance(op, CoeffRegOperand):
            return self._provider().cr_value(op.cr_id)
        if isinstance(op, LinearRegOperand):
            values = self._provider().lr_lane_values(op.lr_id, warp)
            offset = op.disp
            if op.cr_id is not None:
                offset = offset + self._provider().cr_value(op.cr_id)
            if offset:
                values = values + offset
            return values
        raise ExecutionError(f"cannot fetch operand {op!r}")

    def _provider(self) -> LinearValueProvider:
        if self.linear_values is None:
            raise ExecutionError(
                "kernel uses %lr/%cr operands but no LinearValueProvider "
                "was supplied"
            )
        return self.linear_values

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

    def _address(
        self, warp: WarpContext, op: object, active: np.ndarray
    ) -> np.ndarray:
        if isinstance(op, MemRef):
            base = warp.read(op.base)
            return (base + op.disp)[active]
        if isinstance(op, LinearRef):
            disp = op.disp
            if op.cr_id is not None:
                disp = disp + self._provider().cr_value(op.cr_id)
            if op.lr_id is None:
                return np.full(int(active.sum()), disp, dtype=np.int64)
            values = self._provider().lr_lane_values(op.lr_id, warp)
            return (values + disp)[active]
        raise ExecutionError(f"not a memory operand: {op!r}")

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------
    def _execute_instruction(
        self,
        warp: WarpContext,
        wrows: list,
        pc: int,
        instr: Instruction,
        active: np.ndarray,
        shared: SharedMemory,
    ) -> None:
        op = instr.opcode
        if op in (Opcode.LD_GLOBAL, Opcode.LD_SHARED):
            self._execute_load(warp, wrows, pc, instr, active, shared)
            return
        if op in (Opcode.ST_GLOBAL, Opcode.ST_SHARED):
            self._execute_store(warp, wrows, pc, instr, active, shared)
            return
        if op in (Opcode.ATOM_GLOBAL, Opcode.ATOM_SHARED):
            self._execute_atomic(warp, wrows, pc, instr, active, shared)
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
            self._record(wrows, pc, active, instr, values, [value])
            return

        srcs = [self._fetch(warp, s) for s in instr.srcs]
        result = self._compute(instr, srcs, warp)
        if instr.dst is not None:
            warp.write(instr.dst, np.broadcast_to(
                np.asarray(result), (WARP_SIZE,)
            ).copy() if np.ndim(result) == 0 else result, active)
        self._record(wrows, pc, active, instr, result, srcs)

    def _compute(self, instr: Instruction, srcs: list, warp: WarpContext):
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
        self, warp, wrows, pc, instr, active, shared: SharedMemory
    ) -> None:
        space = shared if instr.is_shared_memory else self.memory
        addrs = self._address(warp, instr.srcs[0], active)
        values_active = space.gather(addrs, instr.dtype)
        full = warp.read(instr.dst).copy()
        full[active] = values_active
        warp.regs[instr.dst.name] = full
        lines = None
        conflict = 1
        if instr.is_global_memory:
            lines = coalesce(addrs)
        else:
            conflict = bank_conflict_degree(addrs)
        self._record(
            wrows, pc, active, instr, full, [addrs],
            lines=lines, shared=instr.is_shared_memory,
            bank_conflict=conflict,
        )

    def _execute_store(
        self, warp, wrows, pc, instr, active, shared: SharedMemory
    ) -> None:
        space = shared if instr.is_shared_memory else self.memory
        addrs = self._address(warp, instr.srcs[0], active)
        value = self._fetch(warp, instr.srcs[1])
        values = np.broadcast_to(np.asarray(value), (WARP_SIZE,))[active]
        space.scatter(addrs, values, instr.dtype)
        lines = None
        conflict = 1
        if instr.is_global_memory:
            lines = coalesce(addrs)
        else:
            conflict = bank_conflict_degree(addrs)
        self._record(
            wrows, pc, active, instr, None, [addrs, value],
            lines=lines, shared=instr.is_shared_memory, skippable=False,
            bank_conflict=conflict,
        )

    def _execute_atomic(
        self, warp, wrows, pc, instr, active, shared: SharedMemory
    ) -> None:
        space = shared if instr.is_shared_memory else self.memory
        addrs = self._address(warp, instr.srcs[0], active)
        value = self._fetch(warp, instr.srcs[1])
        values = np.broadcast_to(np.asarray(value), (WARP_SIZE,))[active]
        old = space.atomic(instr.atom, addrs, values, instr.dtype)
        if instr.dst is not None:
            full = warp.read(instr.dst).copy()
            full[active] = old
            warp.regs[instr.dst.name] = full
        lines = None
        if instr.is_global_memory:
            lines = coalesce(addrs)
        self._record(
            wrows, pc, active, instr, None, [addrs, value],
            lines=lines, shared=instr.is_shared_memory, skippable=False,
        )

    # ------------------------------------------------------------------
    # Trace recording
    # ------------------------------------------------------------------
    def _record(
        self,
        wrows: list,
        pc: int,
        active: np.ndarray,
        instr: Instruction,
        result,
        srcs,
        lines=None,
        shared: bool = False,
        skippable: bool = True,
        bank_conflict: int = 1,
    ) -> None:
        """Append one record tuple in the :meth:`TraceColumns.from_rows`
        layout."""
        src_hash = None
        if skippable and not instr.is_control:
            src_hash = self._hash_sources(pc, active, srcs)
        wrows.append((
            pc,
            int(active.sum()),
            self._is_uniform(srcs, active),
            self._is_affine(result, active, instr),
            src_hash,
            shared,
            bank_conflict,
            lines,
        ))

    @staticmethod
    def _is_uniform(srcs, active: np.ndarray) -> bool:
        for s in srcs:
            if np.ndim(s) == 0:
                continue
            vals = np.asarray(s)
            if vals.shape[0] == WARP_SIZE:
                sub = vals[active]
            else:
                sub = vals  # already active-compressed (addresses)
            if sub.size > 1 and not (sub == sub.flat[0]).all():
                return False
        return True

    @staticmethod
    def _is_affine(result, active: np.ndarray, instr: Instruction) -> bool:
        """Destination values form an affine sequence across active lanes.

        Requires at least three active lanes: one- or two-lane results are
        vacuously "affine" but carry no exploitable structure, and letting
        them through would let the DAC model lift arbitrary divergent
        computation.
        """
        if result is None or not instr.dtype.is_integer:
            return False
        vals = np.asarray(result)
        if vals.ndim == 0:
            return bool(active.sum() >= 3)
        sub = vals[active] if vals.shape[0] == WARP_SIZE else vals
        if sub.size < 3:
            return False
        diffs = np.diff(sub)
        return bool((diffs == diffs[0]).all())

    @staticmethod
    def _hash_sources(pc: int, active: np.ndarray, srcs) -> int:
        return hash_sources(pc, active, srcs)


# ----------------------------------------------------------------------
# Source hashing
# ----------------------------------------------------------------------
# DARSIE's value-based skip detection keys records on a hash of
# (pc, active mask, source values).  The scheme is a deterministic
# multiply-sum digest over uint64 lane bits: unlike ``hash(bytes)`` it
# is stable across processes, and — crucially for the megawarp engine —
# it vectorizes over the row axis, where a bytes-join forces a python
# loop per warp.  The two implementations must stay bit-identical:
# serial is `hash_sources`, the megawarp uses `hash_source_rows`.

_MASK64 = (1 << 64) - 1
_H_PC = 0x9E3779B97F4A7C15
_H_ACT = 0xC2B2AE3D27D4EB4F
_H_SRC = 0x165667B19E3779F9    # per-source chain multiplier
_H_LEN = 0x27D4EB2F165667C5
_H_SCALAR = 0x85EBCA77C2B2AE63
_H_BOOL = 0xD6E8FEB86659FD93


def _make_hash_weights() -> np.ndarray:
    # splitmix64 finalizer over the lane index; |1 keeps weights odd.
    x = np.arange(1, WARP_SIZE + 1, dtype=np.uint64)
    x = x * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x | np.uint64(1)


_H_W = _make_hash_weights()


def _scalar_bits(s) -> int:
    if isinstance(s, float):
        return int(np.float64(s).view(np.uint64))
    return int(s) & _MASK64


def _digest_vector(vals: np.ndarray) -> int:
    """Digest of one 1-D lane vector or active-compressed address
    array."""
    if vals.dtype == np.bool_:
        packed = int.from_bytes(
            np.packbits(vals, bitorder="little").tobytes(), "little"
        )
        return (packed * _H_BOOL + (vals.size + 64) * _H_LEN) & _MASK64
    if not vals.flags.c_contiguous:
        vals = np.ascontiguousarray(vals)
    u = (
        vals.view(np.uint64)
        if vals.dtype.itemsize == 8
        else vals.astype(np.uint64)
    )
    k = u.size
    acc = int((u * _H_W[:k]).sum(dtype=np.uint64))
    return (acc + (k + 1) * _H_LEN) & _MASK64


def hash_sources(pc: int, active: np.ndarray, srcs) -> int:
    """Hash of one record's (pc, active mask, source values)."""
    packed = int.from_bytes(
        np.packbits(active, bitorder="little").tobytes(), "little"
    )
    h = ((_H_PC * (pc + 1)) ^ (packed * _H_ACT)) & _MASK64
    for s in srcs:
        if np.ndim(s) == 0:
            d = (_scalar_bits(s) * _H_SCALAR) & _MASK64
        else:
            d = _digest_vector(np.asarray(s))
        h = (h * _H_SRC + d) & _MASK64
    return h


def _rows_u64(mat: np.ndarray) -> np.ndarray:
    if not mat.flags.c_contiguous:
        mat = np.ascontiguousarray(mat)
    if mat.dtype.itemsize == 8:
        return mat.view(np.uint64)
    return mat.astype(np.uint64)


def hash_source_rows(pc: int, active: np.ndarray, srcs) -> np.ndarray:
    """Vectorized :func:`hash_sources` over the row axis.

    ``active`` is ``(R, 32)``; ``srcs`` is a list of ``(kind, value)``
    pairs where kind ``"addrs"`` marks an ``(R, 32)`` address matrix
    hashed per row over its active-compressed lanes, and ``"src"`` is
    any other source: a python scalar or ``(32,)`` vector (shared by
    every row), an ``(R, 1)`` per-row scalar column, or an ``(R, 32)``
    per-row lane matrix.  Row ``i`` of the uint64 result equals
    ``hash_sources(pc, active[i], row_i_sources)`` bit for bit.
    """
    active = np.ascontiguousarray(active)
    R = active.shape[0]
    packed = (
        np.packbits(active, axis=1, bitorder="little")
        .view(np.uint32)[:, 0]
        .astype(np.uint64)
    )
    h = np.full(R, (_H_PC * (pc + 1)) & _MASK64, dtype=np.uint64)
    h ^= packed * np.uint64(_H_ACT)
    chain = np.uint64(_H_SRC)
    counts = None
    for kind, s in srcs:
        if kind == "addrs":
            if counts is None:
                counts = active.sum(axis=1, dtype=np.uint64)
            ranks = np.cumsum(active, axis=1) - 1
            w = _H_W[ranks] * active
            d = (_rows_u64(s) * w).sum(axis=1, dtype=np.uint64)
            d += (counts + np.uint64(1)) * np.uint64(_H_LEN)
        elif np.ndim(s) == 0:
            d = np.uint64((_scalar_bits(s) * _H_SCALAR) & _MASK64)
        else:
            vals = np.asarray(s)
            if vals.ndim == 1:
                d = np.uint64(_digest_vector(vals))
            elif vals.shape[1] == 1:
                d = _rows_u64(vals)[:, 0] * np.uint64(_H_SCALAR)
            elif vals.dtype == np.bool_:
                pk = (
                    np.packbits(
                        np.ascontiguousarray(vals), axis=1,
                        bitorder="little",
                    )
                    .view(np.uint32)[:, 0]
                    .astype(np.uint64)
                )
                d = pk * np.uint64(_H_BOOL) + np.uint64(
                    ((vals.shape[1] + 64) * _H_LEN) & _MASK64
                )
            else:
                d = (_rows_u64(vals) * _H_W).sum(axis=1, dtype=np.uint64)
                d += np.uint64(((WARP_SIZE + 1) * _H_LEN) & _MASK64)
        h = h * chain + d
    return h
