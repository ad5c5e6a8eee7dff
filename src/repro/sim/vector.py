"""Universal vectorized interpretation: masked megawarp execution.

The serial interpreter (:class:`FunctionalExecutor`) runs one warp at a
time, so every instruction pays Python dispatch once per warp.  This
module executes all warps of a launch as ``(rows, 32)`` register
columns, for arbitrary control flow:

1. **Megawarp execution** (:class:`_MegaWarpEngine`).  All warps of a
   chunk of blocks share ``(W, 32)`` register matrices.  Each step the
   scheduler groups schedulable warps by their current PC, so every
   instruction is interpreted *once* in Python but executed across all
   warps sitting at that PC.  Divergence is per-warp state: each warp
   keeps its own immediate-post-dominator reconvergence stack (the
   exact :class:`FunctionalExecutor` discipline — taken side first,
   pop at the reconvergence PC), so nested if/else and loops fall out
   of PC groups persisting until their masks drain.  ``bar.sync``
   drops a warp from the schedulable set until its block's arrival
   count completes; shared memory is a flat arena of per-block
   segments; atomics serialize in flattened block-major/warp-major
   lane order.  Original launches that carry R2D2's operand witness
   check it per PC group with the serial interpreter's function
   (:func:`~repro.sim.executor.witness_holds`), through the launch's
   :class:`~repro.sim.executor.LinearValueProvider`; transformed
   launches themselves run only on the serial interpreter.

2. **Soundness net.**  The serial executor orders memory effects:
   blocks in order, warps of a block round-robin between barriers.
   The megawarp interleaves them per PC group.  The interleave is
   invisible unless a word stored by one warp is touched by another —
   so every global/shared access is logged (word, warp, barrier epoch,
   PC-group step) and checked after the chunk runs against a fork:
   cross-warp overlaps are allowed only when ordered by a barrier
   (same block, different epochs) or produced by one PC-group step
   (the flattened scatter/atomic resolves in serial warp order).
   Any other overlap bails the launch back to the serial interpreter
   with a machine-readable reason, identical observable behaviour by
   construction.  The fork holds only the allocated prefix of device
   memory (:meth:`GlobalMemory.fork`), so an access past the
   allocator's high-water mark faults there and bails too.

3. **Bit-identity.**  Committed launches produce byte-identical memory
   and the same rows as the serial interpreter: the same pcs, masks and
   operand values per warp instruction.  Both engines derive the
   ``uniform``/``affine`` flags, source hashes, coalesced lines and bank
   conflicts from those with one set of row functions
   (:func:`~repro.sim.trace.classify_rows`); each PC-group step appends
   its classified rows, and ``emit`` reorders a chunk's rows into
   block/warp order once (:func:`~repro.sim.trace.step_columns`).
   :meth:`FunctionalExecutor.run_verify` (every launch under
   ``R2D2_VERIFY=1``) runs *both* engines and raises
   :class:`VectorMismatch` on any divergence; the differential oracle
   runs it on every spec.  It does not cross-check the row functions
   themselves: ``tests/test_trace_rows.py`` compares them with
   per-record references.

Engine selection is vector → serial: the megawarp takes every launch it
can but R2D2-transformed ones (skip slug ``transformed-kernel``), and
the serial interpreter remains the reference implementation and last
resort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..isa.instruction import Instruction
from ..isa.opcodes import DType, Opcode
from ..isa.operands import Imm, MemRef, ParamRef, Reg, SpecialReg
from .executor import (
    ExecutionError,
    FunctionalExecutor,
    WARP_SIZE,
    witness_holds,
)
from .memory import _NP_DTYPES, ByteSpace, MemoryError_
from .trace import (
    BlockTrace,
    KernelTrace,
    TraceColumns,
    WitnessVerdict,
    classify_rows,
    step_columns,
    trace_differences,
    warp_blocks,
)

#: Below this many warps the megawarp set-up outweighs the win.
MIN_WARPS = 4

_TIDS = (SpecialReg.TID_X, SpecialReg.TID_Y, SpecialReg.TID_Z)
_CTAIDS = (SpecialReg.CTAID_X, SpecialReg.CTAID_Y, SpecialReg.CTAID_Z)

#: Cap on warps per megawarp chunk; bounds the (W, 32)
#: register-matrix footprint (4096 warps ≈ 1 MiB per live register).
DEFAULT_CHUNK_WARPS = 4096

#: Cap on the flat shared-memory arena of per-block segments.
MAX_SHARED_ARENA_BYTES = 16 * 1024 * 1024

#: Cap on logged hazard elements per chunk; beyond this the bookkeeping
#: would rival the execution win, so the launch falls back to serial.
HAZARD_LOG_CAP = 16_000_000


class VectorMismatch(AssertionError):
    """Verification found a divergence between the megawarp and the
    serially executed launch.  Always a simulator bug, never a workload
    bug — report it."""


class _VBail(Exception):
    """Internal: abandon the megawarp and fall back to serial."""

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


@dataclass
class VectorReport:
    """Machine-readable outcome of the megawarp attempt for one launch;
    attached to ``KernelTrace.vector`` and surfaced in harness run
    reports."""

    kernel: str
    engaged: bool
    #: Skip/bail slug ("transformed-kernel" — an R2D2-transformed
    #: launch, which runs serially —, "launch-too-small",
    #: "bailed-before" — the kernel bailed on a memory conflict earlier
    #: on this device, the detail names that reason —,
    #: "cross-warp-memory-conflict",
    #: "cross-block-memory-conflict",
    #: "memory-error", "deadlock", "hazard-log-overflow",
    #: "register-dtype-promotion", ...); empty when the launch
    #: vectorized cleanly.
    reason: str = ""
    detail: str = ""
    warps_total: int = 0
    warps_vectorized: int = 0
    bailed: bool = False
    verified: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "engaged": self.engaged,
            "reason": self.reason,
            "detail": self.detail,
            "warps_total": self.warps_total,
            "warps_vectorized": self.warps_vectorized,
            "bailed": self.bailed,
            "verified": self.verified,
        }

    def to_decision(self) -> "obs.DecisionEvent":
        """The launch outcome as a unified :class:`DecisionEvent`."""
        if self.bailed:
            decision = "bail"
        elif self.engaged:
            decision = "engage"
        else:
            decision = "skip"
        return obs.DecisionEvent(
            engine="vector", decision=decision, kernel=self.kernel,
            reason=self.reason, detail=self.detail,
            units_total=self.warps_total,
            units_taken=self.warps_vectorized,
        )


# ----------------------------------------------------------------------
# Hazard-log grouping
# ----------------------------------------------------------------------
def _new_run(keys: np.ndarray) -> np.ndarray:
    """True where a sorted key array starts a new run."""
    return np.concatenate(([True], keys[1:] != keys[:-1]))


def _spread(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per run (``starts`` from :func:`_new_run`): values differ."""
    return (np.minimum.reduceat(values, starts)
            != np.maximum.reduceat(values, starts))


def _suspect(gw: np.ndarray, wr: np.ndarray, sid: np.ndarray,
             starts: np.ndarray) -> np.ndarray:
    """Per run of accesses: more than one warp, at least one write, and
    not all writes of a single PC-group step."""
    return _spread(gw, starts) & np.maximum.reduceat(wr, starts) & ~(
        np.minimum.reduceat(wr, starts) & ~_spread(sid, starts)
    )


class _VEntry:
    """One reconvergence-stack entry of one warp.

    ``eff`` caches ``mask & ~exited`` so the hot scheduling loop is
    pure Python int compares; it is recomputed only when the warp's
    ``exit_gen`` moved (an EXIT retired lanes under this entry).
    """

    __slots__ = ("reconv_pc", "pc", "mask", "eff", "gen")

    def __init__(self, reconv_pc: int, pc: int, mask: np.ndarray,
                 eff: np.ndarray, gen: int) -> None:
        self.reconv_pc = reconv_pc
        self.pc = pc
        self.mask = mask
        self.eff = eff
        self.gen = gen


class _WarpState:
    """Scheduling state of one warp row of the megawarp."""

    __slots__ = (
        "row", "block", "stack", "exit_gen", "done", "at_barrier",
    )

    def __init__(self, row: int, block: int, n_instructions: int,
                 base_mask: np.ndarray) -> None:
        self.row = row
        self.block = block
        mask = base_mask.copy()
        self.stack: List[_VEntry] = [
            _VEntry(n_instructions, 0, mask, mask, 0)
        ]
        self.exit_gen = 0
        self.done = False
        self.at_barrier = False


class _MegaWarpEngine(FunctionalExecutor):
    """Runs every warp of blocks ``[lo, hi)`` as one megawarp.

    Subclasses :class:`FunctionalExecutor` only to inherit the ALU
    (``_compute`` and its static helpers) — execution, scheduling and
    recording are replaced wholesale.
    """

    def __init__(self, host: FunctionalExecutor, lo: int, hi: int,
                 memory: ByteSpace, executed0: int,
                 verdict: Optional[WitnessVerdict] = None) -> None:
        # Deliberately no super().__init__: the parsed host state (CFG,
        # validated args) is shared; only memory differs.
        self.kernel = host.kernel
        self.launch = host.launch
        self.memory = memory
        self._sites = host._sites
        self._verdict = verdict
        self.max_warp_instructions = host.max_warp_instructions
        self.cfg = host.cfg
        self._executed = executed0

        self.host = host
        self.lo = lo
        self.nblocks = hi - lo
        wpb = (self.launch.threads_per_block + WARP_SIZE - 1) // WARP_SIZE
        self.wpb = wpb
        self.W = self.nblocks * wpb
        n_instr = len(self.kernel.instructions)

        # -- lane geometry: (W, 32) thread ids, (W, 1) block ids -------
        tid_rows = [host._make_warp(w, (0, 0, 0)) for w in range(wpb)]
        self._tid = {}
        for sreg, attr in (
            (SpecialReg.TID_X, "tid_x"),
            (SpecialReg.TID_Y, "tid_y"),
            (SpecialReg.TID_Z, "tid_z"),
        ):
            mat = np.empty((self.W, WARP_SIZE), dtype=np.int64)
            for r in range(self.W):
                mat[r] = getattr(tid_rows[r % wpb], attr)
            self._tid[sreg] = mat
        base = np.empty((self.W, WARP_SIZE), dtype=bool)
        for r in range(self.W):
            base[r] = tid_rows[r % wpb].base_mask

        grid = self.launch.grid
        ids = lo + np.arange(self.W, dtype=np.int64) // wpb
        self._warp_in_block = np.arange(self.W, dtype=np.int64) % wpb

        def col(a: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray(a.reshape(self.W, 1))

        self._ctaid = {
            SpecialReg.CTAID_X: col(ids % grid.x),
            SpecialReg.CTAID_Y: col((ids // grid.x) % grid.y),
            SpecialReg.CTAID_Z: col(ids // (grid.x * grid.y)),
        }
        self._blockrow = np.arange(self.W, dtype=np.int64) // wpb
        self._gwarp = ids * wpb + self._warp_in_block
        # R2D2 operands the witness reads: op -> its value over every
        # warp of the chunk, evaluated on first use.
        self._operands: Dict[object, object] = {}

        # -- register file: name -> (W, 32) matrix ---------------------
        self._regs: Dict[str, np.ndarray] = {}
        self.exited = np.zeros((self.W, WARP_SIZE), dtype=bool)

        # -- shared memory: flat arena of per-block segments -----------
        self._shared_bound = max(self.kernel.shared_mem_bytes, 16)
        stride = (self._shared_bound + 127) // 128 * 128
        self._shared = ByteSpace(stride * self.nblocks, base=0)
        self._shared_off = (
            np.arange(self.nblocks, dtype=np.int64)[self._blockrow] * stride
        ).reshape(self.W, 1)

        # -- scheduling state ------------------------------------------
        self._warps: List[_WarpState] = []
        self._block_warps: List[List[_WarpState]] = [
            [] for _ in range(self.nblocks)
        ]
        for r in range(self.W):
            b = r // wpb
            ws = _WarpState(r, b, n_instr, base[r])
            self._warps.append(ws)
            self._block_warps[b].append(ws)
        self._pending = self.W
        self._sched = list(self._warps)
        self._live = [wpb] * self.nblocks
        self._atbar = [0] * self.nblocks
        self._epochs = np.zeros(self.nblocks, dtype=np.int64)
        self._has_bar = any(
            i.opcode is Opcode.BAR for i in self.kernel.instructions
        )

        # -- straight-line run-ahead limits ----------------------------
        # A PC group may execute forward without rescheduling until the
        # instruction after a control op (BRA/EXIT/BAR — each mutates
        # scheduling state) or a block leader (merge point: warps
        # waiting there must get a chance to join).  ``_run_limit[pc]``
        # is the first pc a run starting at ``pc`` must NOT execute.
        leaders = {blk.start for blk in self.cfg.blocks}
        stop_ops = (Opcode.BRA, Opcode.EXIT, Opcode.BAR)
        limit = [0] * n_instr
        for pc in range(n_instr - 1, -1, -1):
            if (
                self.kernel.instructions[pc].opcode in stop_ops
                or pc + 1 == n_instr
                or pc + 1 in leaders
            ):
                limit[pc] = pc + 1
            else:
                limit[pc] = limit[pc + 1]
        self._run_limit = limit

        # -- hazard logs and counters ----------------------------------
        self._glog: List[tuple] = []
        self._slog: List[tuple] = []
        self._log_elems = 0
        self._step_pcs: List[int] = []
        self._sid = 0
        #: classified PC-group steps
        #: (:func:`~repro.sim.trace.classify_rows`), in step order
        self._steps: List[tuple] = []
        self.counters = {
            "steps": 0, "pc_groups": 0, "pc_group_rows": 0,
            "divergence_splits": 0, "barrier_releases": 0,
        }

    # -- scheduling ----------------------------------------------------
    def run_megawarp(self) -> None:
        while self._pending:
            self._release_barriers()
            with obs.span("vector.schedule"):
                groups = self._schedule()
            if not groups:
                if self._release_barriers():
                    continue
                if self._pending:
                    raise _VBail(
                        "deadlock",
                        f"megawarp blocks [{self.lo}, "
                        f"{self.lo + self.nblocks})",
                    )
                break
            self.counters["steps"] += 1
            with obs.span("vector.execute"):
                for pc in sorted(groups):
                    ws_list, entries = groups[pc]
                    stop = self._run_limit[pc]
                    if stop > pc + 1:
                        # Entries pop at their reconvergence pc, so a
                        # run may not carry any entry past it.
                        stop = min(
                            stop, min(e.reconv_pc for e in entries)
                        )
                    cur = pc
                    while True:
                        self._exec_group(cur, ws_list, entries)
                        cur += 1
                        if cur >= stop:
                            break

    def _release_barriers(self) -> bool:
        if not self._has_bar:
            return False
        released = False
        for b in range(self.nblocks):
            live = self._live[b]
            if live and self._atbar[b] == live:
                for ws in self._block_warps[b]:
                    if not ws.done:
                        ws.at_barrier = False
                self._atbar[b] = 0
                self._epochs[b] += 1
                self.counters["barrier_releases"] += 1
                released = True
        return released

    def _schedule(self) -> Dict[int, Tuple[list, list]]:
        groups: Dict[int, Tuple[list, list]] = {}
        exited = self.exited
        nxt: List[_WarpState] = []
        for ws in self._sched:
            if ws.at_barrier:
                nxt.append(ws)
                continue
            stack = ws.stack
            entry = None
            while stack:
                entry = stack[-1]
                if entry.pc >= entry.reconv_pc:
                    stack.pop()
                    continue
                if entry.gen != ws.exit_gen:
                    eff = entry.mask & ~exited[ws.row]
                    if not eff.any():
                        stack.pop()
                        continue
                    entry.eff = eff
                    entry.gen = ws.exit_gen
                break
            if not stack:
                ws.done = True
                self._pending -= 1
                self._live[ws.block] -= 1
                continue
            nxt.append(ws)
            group = groups.get(entry.pc)
            if group is None:
                groups[entry.pc] = group = ([], [])
            group[0].append(ws)
            group[1].append(entry)
        self._sched = nxt
        return groups

    # -- group execution -----------------------------------------------
    def _exec_group(self, pc: int, ws_list: List[_WarpState],
                    entries: List[_VEntry]) -> None:
        instr = self.kernel.instructions[pc]
        R = len(ws_list)
        self.counters["pc_groups"] += 1
        self.counters["pc_group_rows"] += R
        self._executed += R
        if self._executed > self.max_warp_instructions:
            raise _VBail(
                "instruction-budget",
                f"exceeded {self.max_warp_instructions} warp "
                "instructions (infinite loop?)",
            )
        self._sid = len(self._step_pcs)
        self._step_pcs.append(pc)
        rows = np.fromiter(
            (ws.row for ws in ws_list), dtype=np.int64, count=R
        )
        # np.vstack's per-array atleast_2d machinery is measurable at
        # this call rate; a preallocated fill is ~3x cheaper.
        mask = np.empty((R, WARP_SIZE), dtype=bool)
        for i, e in enumerate(entries):
            mask[i] = e.eff

        op = instr.opcode
        if op is Opcode.BRA:
            self._steps.append(
                classify_rows(rows, pc, instr, mask, None, [])
            )
            with obs.span("vector.reconverge"):
                self._exec_branch(pc, instr, rows, ws_list, entries, mask)
            return
        if op is Opcode.EXIT:
            active = self._guard(instr, rows, mask)
            hit = active.any(axis=1)
            if hit.any():
                self.exited[rows[hit]] |= active[hit]
                for i in np.flatnonzero(hit):
                    ws_list[i].exit_gen += 1
            for e in entries:
                e.pc += 1
            return
        if op is Opcode.BAR:
            self._steps.append(
                classify_rows(rows, pc, instr, mask, None, [])
            )
            for ws, e in zip(ws_list, entries):
                e.pc += 1
                ws.at_barrier = True
                self._atbar[ws.block] += 1
            return

        active = self._guard(instr, rows, mask)
        if instr.pred is not None:
            keep = np.flatnonzero(active.any(axis=1))
            if keep.size == 0:
                for e in entries:
                    e.pc += 1
                return
            if keep.size < R:
                rows = rows[keep]
                active = np.ascontiguousarray(active[keep])
                ws_list = [ws_list[i] for i in keep]

        if op in (Opcode.LD_GLOBAL, Opcode.LD_SHARED):
            self._exec_load(pc, instr, rows, active)
        elif op in (Opcode.ST_GLOBAL, Opcode.ST_SHARED):
            self._exec_store(pc, instr, rows, active)
        elif op in (Opcode.ATOM_GLOBAL, Opcode.ATOM_SHARED):
            self._exec_atomic(pc, instr, rows, active)
        elif op is Opcode.LD_PARAM:
            ref = instr.srcs[0]
            assert isinstance(ref, ParamRef)
            value = self.launch.args[ref.index]
            values = np.full(
                WARP_SIZE,
                value,
                dtype=np.float64 if instr.dtype.is_float else np.int64,
            )
            self._write(instr.dst, rows, active, values)
            self._steps.append(
                classify_rows(rows, pc, instr, active, values, [value])
            )
            if pc in self._sites:
                self._witness_rows(pc, instr, rows, active, [value],
                                   values)
        else:
            srcs = [self._fetch_rows(s, rows) for s in instr.srcs]
            result = self._compute(instr, srcs)
            if instr.dst is not None:
                self._write(instr.dst, rows, active, result)
            self._steps.append(
                classify_rows(rows, pc, instr, active, result, srcs)
            )
            if pc in self._sites:
                self._witness_rows(pc, instr, rows, active, srcs, result)

        for e in entries:
            e.pc += 1

    def _exec_branch(self, pc: int, instr: Instruction, rows: np.ndarray,
                     ws_list: List[_WarpState], entries: List[_VEntry],
                     mask: np.ndarray) -> None:
        target = self.kernel.label_pc(instr.target)
        if instr.pred is None:
            for e in entries:
                e.pc = target
            return
        pvals = self._read(instr.pred, rows)
        cond = ~pvals if instr.pred_negated else pvals
        taken = mask & cond
        not_taken = mask & ~cond
        t_any = taken.any(axis=1)
        n_any = not_taken.any(axis=1)
        rpc = None
        for i, e in enumerate(entries):
            if not t_any[i]:
                e.pc = pc + 1
            elif not n_any[i]:
                e.pc = target
            else:
                if rpc is None:
                    rpc = self.cfg.reconvergence_pc(pc)
                e.pc = rpc
                ws = ws_list[i]
                gen = ws.exit_gen
                nt = not_taken[i]
                tk = taken[i]
                ws.stack.append(_VEntry(rpc, pc + 1, nt, nt, gen))
                ws.stack.append(_VEntry(rpc, target, tk, tk, gen))
                self.counters["divergence_splits"] += 1

    def _guard(self, instr: Instruction, rows: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
        if instr.pred is None:
            return mask
        pvals = self._read(instr.pred, rows)
        if instr.pred_negated:
            return mask & ~pvals
        return mask & pvals

    # -- register file -------------------------------------------------
    def _matrix(self, reg: Reg) -> np.ndarray:
        mat = self._regs.get(reg.name)
        if mat is None:
            if reg.dtype.is_float:
                dtype = np.float64
            elif reg.dtype is DType.PRED:
                dtype = np.bool_
            else:
                dtype = np.int64
            mat = np.zeros((self.W, WARP_SIZE), dtype=dtype)
            self._regs[reg.name] = mat
        return mat

    def _read(self, reg: Reg, rows: np.ndarray) -> np.ndarray:
        return self._matrix(reg)[rows]

    def _write(self, reg: Reg, rows: np.ndarray, active: np.ndarray,
               result) -> None:
        mat = self._matrix(reg)
        new = np.where(active, np.asarray(result), mat[rows])
        if new.dtype != mat.dtype:
            # The serial executor promotes the whole per-warp register
            # array; a shared matrix cannot follow per-warp dtypes, so
            # kernels that flip a register's kind fall back to serial.
            raise _VBail(
                "register-dtype-promotion",
                f"{reg.name}: {mat.dtype} -> {new.dtype}",
            )
        mat[rows] = new

    def _fetch_rows(self, op: object, rows: np.ndarray):
        if isinstance(op, Reg):
            return self._read(op, rows)
        if isinstance(op, Imm):
            return op.value
        if isinstance(op, SpecialReg):
            column = self._ctaid.get(op)
            if column is not None:
                return column[rows]
            tid = self._tid.get(op)
            if tid is not None:
                return tid[rows]
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
            return mapping[op]
        raise _VBail("unsupported-operand", repr(op))

    # -- memory instructions -------------------------------------------
    def _addr_matrix(self, op: object, rows: np.ndarray) -> np.ndarray:
        """Full-lane address rows (callers select active lanes), built
        in :meth:`FunctionalExecutor._address` operation order."""
        if isinstance(op, MemRef):
            return self._read(op.base, rows) + op.disp
        raise _VBail("unsupported-operand", repr(op))

    def _shared_flat(self, pc: int, addrs: np.ndarray, rows: np.ndarray,
                     active: np.ndarray, itemsize: int) -> np.ndarray:
        """Active lanes rebased into per-block arena segments, with the
        serial per-block bounds check re-applied first."""
        act = addrs[active]
        if act.size and (
            int(act.min()) < 0
            or int(act.max()) + itemsize > self._shared_bound
        ):
            raise _VBail(
                "shared-out-of-bounds",
                f"pc {pc}: access outside [0, {self._shared_bound})",
            )
        return (addrs + self._shared_off[rows])[active]

    def _log_access(self, shared: bool, addrs_act: np.ndarray,
                    rows: np.ndarray, n_act: np.ndarray, itemsize: int,
                    write: bool) -> None:
        words = addrs_act.astype(np.int64, copy=False) // 4
        gw = np.repeat(self._gwarp[rows], n_act)
        blk = np.repeat(self._blockrow[rows], n_act)
        ep = np.repeat(self._epochs[self._blockrow[rows]], n_act)
        if itemsize == 8:
            words = np.concatenate([words, words + 1])
            gw = np.tile(gw, 2)
            blk = np.tile(blk, 2)
            ep = np.tile(ep, 2)
        log = self._slog if shared else self._glog
        log.append((words, gw, blk, ep, self._sid, write))
        self._log_elems += words.size
        if self._log_elems > HAZARD_LOG_CAP:
            raise _VBail(
                "hazard-log-overflow",
                f"more than {HAZARD_LOG_CAP} logged accesses",
            )

    def _exec_load(self, pc: int, instr: Instruction, rows: np.ndarray,
                   active: np.ndarray) -> None:
        addrs = self._addr_matrix(instr.srcs[0], rows)
        itemsize = _NP_DTYPES[instr.dtype].itemsize
        n_act = active.sum(axis=1)
        if instr.is_shared_memory:
            # the rebased (arena-flat) addresses also go into the hazard
            # log: they are distinct across blocks, so per-block arenas
            # can never alias as cross-block conflicts
            flat = self._shared_flat(pc, addrs, rows, active, itemsize)
            values = self._shared.gather(flat, instr.dtype)
        else:
            flat = addrs[active]
            values = self.memory.gather(flat, instr.dtype)
        self._log_access(
            instr.is_shared_memory, flat, rows, n_act, itemsize, False,
        )
        full = self._read(instr.dst, rows)
        full[active] = values
        mat = self._matrix(instr.dst)
        if full.dtype != mat.dtype:
            raise _VBail(
                "register-dtype-promotion",
                f"{instr.dst.name}: {mat.dtype} -> {full.dtype}",
            )
        mat[rows] = full
        self._steps.append(classify_rows(
            rows, pc, instr, active, full, [addrs], n_act
        ))
        if pc in self._sites:
            self._witness_rows(pc, instr, rows, active, [addrs], None)

    def _exec_store(self, pc: int, instr: Instruction, rows: np.ndarray,
                    active: np.ndarray) -> None:
        addrs = self._addr_matrix(instr.srcs[0], rows)
        value = self._fetch_rows(instr.srcs[1], rows)
        itemsize = _NP_DTYPES[instr.dtype].itemsize
        n_act = active.sum(axis=1)
        # C-order boolean selection is warp-major, so cross-warp
        # collisions at one PC-group step resolve as "later warp wins"
        # — the same outcome as serial warp order (and the hazard check
        # rejects every other cross-warp collision shape).
        values = np.broadcast_to(
            np.asarray(value), active.shape
        )[active]
        if instr.is_shared_memory:
            flat = self._shared_flat(pc, addrs, rows, active, itemsize)
            self._shared.scatter(flat, values, instr.dtype)
        else:
            flat = addrs[active]
            self.memory.scatter(flat, values, instr.dtype)
        self._log_access(
            instr.is_shared_memory, flat, rows, n_act, itemsize, True,
        )
        self._steps.append(classify_rows(
            rows, pc, instr, active, None, [addrs, value], n_act
        ))
        if pc in self._sites:
            self._witness_rows(pc, instr, rows, active, [addrs, value],
                               None)

    def _exec_atomic(self, pc: int, instr: Instruction, rows: np.ndarray,
                     active: np.ndarray) -> None:
        addrs = self._addr_matrix(instr.srcs[0], rows)
        value = self._fetch_rows(instr.srcs[1], rows)
        itemsize = _NP_DTYPES[instr.dtype].itemsize
        n_act = active.sum(axis=1)
        values = np.broadcast_to(
            np.asarray(value), active.shape
        )[active]
        # Fixed lane order: the flattened (warp-major, lane-minor) walk
        # serializes exactly as serial execution does when the hazard
        # check admits the access pattern.
        if instr.is_shared_memory:
            flat = self._shared_flat(pc, addrs, rows, active, itemsize)
            old = self._shared.atomic(instr.atom, flat, values,
                                      instr.dtype)
        else:
            flat = addrs[active]
            old = self.memory.atomic(
                instr.atom, flat, values, instr.dtype
            )
        self._log_access(
            instr.is_shared_memory, flat, rows, n_act, itemsize, True,
        )
        if instr.dst is not None:
            full = self._read(instr.dst, rows)
            full[active] = old
            mat = self._matrix(instr.dst)
            if full.dtype != mat.dtype:
                raise _VBail(
                    "register-dtype-promotion",
                    f"{instr.dst.name}: {mat.dtype} -> {full.dtype}",
                )
            mat[rows] = full
        self._steps.append(classify_rows(
            rows, pc, instr, active, None, [addrs, value], n_act
        ))
        if pc in self._sites:
            self._witness_rows(pc, instr, rows, active, [addrs, value],
                               None)

    def _witness_rows(self, pc: int, instr: Instruction, rows: np.ndarray,
                      active: np.ndarray, srcs: list, result) -> None:
        """:func:`~repro.sim.executor.witness_holds` at witness site
        ``pc`` over a PC group."""
        verdict = self._verdict
        if verdict.failure:
            return
        verdict.rows += len(rows)
        if not witness_holds(
            self._sites[pc], instr, active, srcs, result,
            lambda op: self._operand(op, rows), self._compute,
        ):
            verdict.failure = f"pc {pc} ({instr.opcode.value})"

    def _operand(self, op: object, rows: np.ndarray):
        """R2D2 operand ``op`` in warp ``rows``, from one evaluation by
        the witness's values over every warp of the chunk."""
        value = self._operands.get(op)
        if value is None:
            value = self._operands[op] = self.host.witness.values.operand(
                op, [self._tid[s] for s in _TIDS],
                [self._ctaid[s] for s in _CTAIDS],
            )
        return value[rows] if np.ndim(value) else value

    # -- hazard check ----------------------------------------------------
    def check_hazards(self) -> None:
        """Reject every cross-warp memory overlap the megawarp schedule
        could have ordered differently from the serial one.

        Allowed shapes, per word: one warp only; reads only; all
        accesses stores (or atomics) of one PC-group step, whose
        flattened warp-major order *is* the serial order; or accesses
        from one block separated by barrier epochs (ordered by the
        arrival count in both schedules).  Anything else bails."""
        self._check_log(self._glog, "global")
        self._check_log(self._slog, "shared")

    def _check_log(self, log: List[tuple], label: str) -> None:
        if not log:
            return
        words = np.concatenate([t[0] for t in log])
        if words.size == 0:
            return
        gw = np.concatenate([t[1] for t in log])
        blk = np.concatenate([t[2] for t in log])
        ep = np.concatenate([t[3] for t in log])
        sid = np.concatenate(
            [np.full(t[0].size, t[4], dtype=np.int64) for t in log]
        )
        wr = np.concatenate(
            [np.full(t[0].size, t[5], dtype=bool) for t in log]
        )
        order = np.argsort(words, kind="stable")
        words = words[order]
        gw = gw[order]
        blk = blk[order]
        ep = ep[order]
        sid = sid[order]
        wr = wr[order]
        starts = np.flatnonzero(_new_run(words))
        suspect = _suspect(gw, wr, sid, starts)
        if not suspect.any():
            return
        # One grouped pass over the suspect words' accesses, sorted by
        # (word, barrier epoch): a word fails when its accesses span
        # blocks, or when one of its epochs is suspect on its own.
        bounds = np.append(starts, words.size)
        idx = np.flatnonzero(np.repeat(suspect, np.diff(bounds)))
        idx = idx[np.lexsort((ep[idx], words[idx]))]
        new_word = _new_run(words[idx])
        epochs = np.flatnonzero(new_word | _new_run(ep[idx]))
        cross_block = _spread(blk[idx], np.flatnonzero(new_word))
        failing = cross_block.copy()
        bad = _suspect(gw[idx], wr[idx], sid[idx], epochs)
        # suspect-word index of each bad (word, epoch) group
        failing[(np.cumsum(new_word) - 1)[epochs[bad]]] = True
        if not failing.any():
            return
        first = int(np.argmax(failing))
        word = np.flatnonzero(suspect)[first]
        run = slice(bounds[word], bounds[word + 1])
        self._hazard_bail(
            label, words[run][0], sid[run],
            "cross-block" if cross_block[first] else "cross-warp",
        )

    def _hazard_bail(self, label: str, word: int, sids: np.ndarray,
                     kind: str) -> None:
        pcs = sorted({self._step_pcs[int(s)] for s in sids[:64]})
        raise _VBail(
            f"{kind}-memory-conflict",
            f"{label} word at byte {int(word) * 4}, pcs {pcs[:6]}",
        )

    # -- trace assembly --------------------------------------------------
    def emit(self, out_blocks: List[BlockTrace],
             base: int) -> TraceColumns:
        """Append the chunk's blocks, their warps' row ranges starting
        at ``base``, and return the chunk's columns."""
        cols, counts = step_columns(self._steps, self.W)
        out_blocks.extend(
            warp_blocks(self.launch.grid, self.lo, self.wpb, counts, base)
        )
        return cols


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def _megawarp(host: FunctionalExecutor, trace: KernelTrace,
              min_warps: int,
              bailed: Optional[Dict[object, str]] = None
              ) -> Optional[tuple]:
    """Run the launch on the megawarp against a fork of device memory,
    committing nothing.  Attaches the launch's :class:`VectorReport` to
    ``trace`` and returns ``(fork, blocks, cols, verdict)`` (the
    operand witness's verdict, ``None`` without a witness), or ``None``
    when the launch is R2D2-transformed (it has ``linear_values``), has
    fewer than ``min_warps`` warps, its kernel is in the ``bailed`` memo,
    or the megawarp bails — a memory-conflict bail then enters the
    memo."""
    grid = host.launch.grid
    wpb = (host.launch.threads_per_block + WARP_SIZE - 1) // WARP_SIZE
    total_warps = grid.count * wpb
    report = VectorReport(
        kernel=host.kernel.name, engaged=False, warps_total=total_warps,
    )
    trace.vector = report
    obs.inc("vector.launches", kernel=host.kernel.name)
    obs.inc("vector.warps_total", total_warps, kernel=host.kernel.name)
    skip = None
    if host.linear_values is not None:
        skip = ("transformed-kernel", "R2D2 operands execute serially")
    elif total_warps < min_warps:
        skip = ("launch-too-small", f"{total_warps} < {min_warps} warps")
    elif bailed is not None and host.kernel in bailed:
        skip = ("bailed-before", bailed[host.kernel])
    if skip is not None:
        report.reason, report.detail = skip
        obs.engine_fallback(
            "vector", report.kernel, report.reason,
            detail=report.detail, bailed=False,
        )
        return None
    obs.inc("vector.engaged", kernel=host.kernel.name)
    verdict = WitnessVerdict() if host.witness is not None else None

    shared_stride = (max(host.kernel.shared_mem_bytes, 16) + 127) \
        // 128 * 128
    blocks_per_chunk = max(1, min(
        DEFAULT_CHUNK_WARPS // max(wpb, 1) or 1,
        MAX_SHARED_ARENA_BYTES // shared_stride or 1,
    ))
    fork = host.memory.fork()
    blocks: List[BlockTrace] = []
    parts: List[TraceColumns] = []
    n_rows = 0
    counters: Dict[str, int] = {}
    executed = 0
    try:
        with np.errstate(over="ignore", invalid="ignore",
                         divide="ignore"):
            # Chunks run in block order against the same fork, so later
            # chunks observe earlier chunks' stores exactly as later
            # blocks observe earlier blocks' stores serially.
            for lo in range(0, grid.count, blocks_per_chunk):
                hi = min(lo + blocks_per_chunk, grid.count)
                engine = _MegaWarpEngine(
                    host, lo, hi, fork, executed, verdict
                )
                try:
                    engine.run_megawarp()
                    engine.check_hazards()
                finally:
                    for key, val in engine.counters.items():
                        counters[key] = counters.get(key, 0) + val
                parts.append(engine.emit(blocks, n_rows))
                n_rows += len(parts[-1])
                executed = engine._executed
    except (_VBail, MemoryError_, ExecutionError) as exc:
        # Discard everything; the serial rerun reproduces the exact
        # observable behaviour (including raising, for real OOB bugs).
        report.bailed = True
        report.reason = getattr(exc, "reason", None) or (
            "memory-error" if isinstance(exc, MemoryError_)
            else "execution-error"
        )
        report.detail = str(exc)
        if bailed is not None and report.reason.endswith(
            "memory-conflict"
        ):
            bailed.setdefault(host.kernel, report.reason)
        _emit_counters(host.kernel.name, counters)
        obs.engine_fallback(
            "vector", report.kernel, report.reason,
            detail=report.detail, bailed=True,
        )
        return None

    _emit_counters(host.kernel.name, counters)
    report.engaged = True
    return fork, blocks, TraceColumns.concat(parts), verdict


def attempt_vectorization(host: FunctionalExecutor,
                          trace: KernelTrace) -> bool:
    """Called from ``FunctionalExecutor.run_fast``.  Returns True when
    the megawarp committed the whole launch, False on skip or bail (the
    serial loop then covers everything, witness included)."""
    run = _megawarp(host, trace, MIN_WARPS, host.bailed)
    if run is None:
        return False
    fork, blocks, cols, trace.witness = run
    # Commit the forked prefix in place, so existing dtype views over
    # the buffer stay valid, then adopt the megawarp traces.
    host.memory.buf[:fork.size] = fork.buf
    trace.blocks.extend(blocks)
    trace.cols = cols
    report = trace.vector
    report.warps_vectorized = report.warps_total
    obs.inc(
        "vector.warps_vectorized", report.warps_total,
        kernel=report.kernel,
    )
    obs.decision(
        "vector", "engage", kernel=report.kernel,
        units_total=report.warps_total, units_taken=report.warps_total,
    )
    return True


def _emit_counters(kernel: str, counters: Dict[str, int]) -> None:
    for key, val in counters.items():
        if val:
            obs.inc(f"vector.{key}", val, kernel=kernel)


def verify_vectorization(host: FunctionalExecutor) -> KernelTrace:
    """Called from ``FunctionalExecutor.run_verify``: the megawarp
    against a fork (from a single warp up, so no launch is too small,
    and whatever the device's bail memo holds), then the serial
    interpreter on the device itself; any difference in memory, trace
    columns or the witness verdict raises :class:`VectorMismatch`.
    Returns the serial trace."""
    trace = KernelTrace(host.kernel, host.launch)
    run = _megawarp(host, trace, 1)
    host._run_serial(trace)
    if run is None:
        return trace
    fork, blocks, cols, verdict = run
    diffs = trace_differences(blocks, cols, trace.blocks, trace.cols)
    if _verdict_key(verdict) != _verdict_key(trace.witness):
        diffs.append(
            f"witness verdict {verdict} != serial {trace.witness}"
        )
    serial = host.memory.buf[:fork.size]
    if not np.array_equal(fork.buf, serial):
        bad = np.flatnonzero(fork.buf != serial)
        diffs.append(
            f"global memory differs at {bad.size} byte(s), first at "
            f"address {int(bad[0])}"
        )
    if diffs:
        raise VectorMismatch(
            f"megawarp launch of {host.kernel.name} diverges from "
            "serial execution: " + "; ".join(diffs[:5])
        )
    report = trace.vector
    report.verified = True
    report.warps_vectorized = report.warps_total
    obs.inc("vector.verified", kernel=host.kernel.name)
    obs.inc(
        "vector.warps_vectorized", report.warps_total,
        kernel=host.kernel.name,
    )
    return trace


def _verdict_key(verdict: Optional[WitnessVerdict]) -> tuple:
    """What two engines' witness verdicts must agree on: the outcome,
    and the rows checked when it passed (a failure stops the count at
    an engine-specific point)."""
    if verdict is None:
        return ()
    return (verdict.ok, verdict.rows if verdict.ok else None)
