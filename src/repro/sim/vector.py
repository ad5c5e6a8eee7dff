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
   lane order.  R2D2-transformed launches run here too: each linear
   register ``%lr`` becomes one ``(W, 32)`` matrix per chunk (thread
   part per warp-in-block plus block part per block, from the launch's
   :class:`~repro.sim.executor.LinearValueProvider`), and ``%cr``
   coefficients are kernel-uniform scalars.

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
   and column-identical :class:`KernelTrace` records — same ``active``
   counts, ``uniform``/``affine`` flags, source hashes, coalesced
   lines, and bank conflicts as the serial interpreter.  Each PC-group
   step appends its rows as arrays; ``emit`` reorders a chunk's rows
   into block/warp order once.
   :meth:`FunctionalExecutor.run_verify` (every launch under
   ``R2D2_VERIFY=1``) runs *both* engines and raises
   :class:`VectorMismatch` on any divergence; the differential oracle
   runs it on every spec.

Engine selection is vector → serial: the megawarp takes every launch it
can, and the serial interpreter remains the reference implementation
and last resort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..isa.instruction import Instruction
from ..isa.opcodes import DType, Opcode
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
from .executor import (
    ExecutionError,
    FunctionalExecutor,
    WARP_SIZE,
    hash_source_rows,
)
from .memory import _NP_DTYPES, ByteSpace, MemoryError_
from .trace import (
    LINE_BYTES,
    BlockTrace,
    KernelTrace,
    TraceColumns,
    WarpTrace,
)

#: Below this many warps the megawarp set-up outweighs the win.
MIN_WARPS = 4

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
    #: Skip/bail slug ("launch-too-small",
    #: "cross-warp-memory-conflict", "cross-block-memory-conflict",
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
# Per-row trace classification
# ----------------------------------------------------------------------
def _uniform_cols(srcs, act: np.ndarray, shape, idx0, rows) -> np.ndarray:
    """Vectorized ``FunctionalExecutor._is_uniform`` over the row axis:
    per row, all active lanes of every vector source agree."""
    out = np.ones(shape[0], dtype=bool)
    for s in srcs:
        if np.ndim(s) == 0:
            continue
        vals = np.asarray(s)
        if vals.ndim == 2 and vals.shape[1] == 1:
            continue  # per-row scalar: the serial source is a scalar
        mat = np.broadcast_to(vals, shape)
        first = mat[rows, idx0]
        out &= ((mat == first[:, None]) | ~act).all(axis=1)
    return out


def _affine_cols(result, instr, act: np.ndarray, n_act: np.ndarray,
                 shape) -> np.ndarray:
    """Vectorized ``FunctionalExecutor._is_affine`` over the row axis."""
    R = shape[0]
    if result is None or not instr.dtype.is_integer:
        return np.zeros(R, dtype=bool)
    vals = np.asarray(result)
    if vals.ndim == 0 or (vals.ndim == 2 and vals.shape[1] == 1):
        return n_act >= 3
    mat = np.broadcast_to(vals, shape)
    out = np.zeros(R, dtype=bool)
    # Fast path: all rows share one active pattern (full warps, or a
    # group-uniform boundary guard).
    if bool((act == act[0]).all()):
        cols = np.flatnonzero(act[0])
        if cols.size < 3:
            return out
        sub = mat[:, cols]
        diffs = np.diff(sub, axis=1)
        return (diffs == diffs[:, :1]).all(axis=1)
    # Varying masks: compress each row's active lanes to the front with
    # a stable argsort (False sorts before True on ~act), then a single
    # vectorized diff; positions past a row's active count are padded
    # as matching.
    order = np.argsort(~act, axis=1, kind="stable")
    sub = np.take_along_axis(mat, order, axis=1)
    diffs = np.diff(sub, axis=1)
    pos = np.arange(diffs.shape[1])
    pad = pos[None, :] >= (n_act[:, None] - 1)
    return ((diffs == diffs[:, :1]) | pad).all(axis=1) & (n_act >= 3)


#: Sort key of inactive lanes: past every real line or word.
_NO_ADDR = np.iinfo(np.int64).max


def _distinct_rows(keys: np.ndarray,
                   active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each row's active ``keys`` sorted ascending (inactive lanes
    last), plus a mask of the first lane of every distinct value."""
    keys = np.where(active, keys, _NO_ADDR)
    keys.sort(axis=1)
    first = np.ones(keys.shape, dtype=bool)
    first[:, 1:] = keys[:, 1:] != keys[:, :-1]
    first &= keys != _NO_ADDR
    return keys, first


def _coalesce_rows(addrs: np.ndarray,
                   active: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`~repro.sim.trace.coalesce` over the row axis:
    per-row line counts and every row's ascending distinct lines,
    flattened in row order."""
    keys, first = _distinct_rows(addrs // LINE_BYTES, active)
    return first.sum(axis=1), keys[first] * LINE_BYTES


def _bank_conflict_rows(addrs: np.ndarray, active: np.ndarray,
                        n_banks: int = 32,
                        bank_bytes: int = 4) -> np.ndarray:
    """Vectorized :func:`~repro.sim.trace.bank_conflict_degree`: per
    row, the most distinct words any one bank serves (at least 1)."""
    words, first = _distinct_rows(addrs // bank_bytes, active)
    R = words.shape[0]
    row = np.broadcast_to(
        np.arange(R, dtype=np.int64)[:, None], words.shape
    )[first]
    per_bank = np.bincount(
        row * n_banks + words[first] % n_banks, minlength=R * n_banks
    ).reshape(R, n_banks)
    return np.maximum(per_bank.max(axis=1), 1)


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


class _Addrs:
    """Marker: an address matrix whose source hash uses the
    active-compressed row (the serial executor hashes compressed
    addresses, not full lane vectors)."""

    __slots__ = ("mat",)

    def __init__(self, mat: np.ndarray) -> None:
        self.mat = mat


class _MegaWarpEngine(FunctionalExecutor):
    """Runs every warp of blocks ``[lo, hi)`` as one megawarp.

    Subclasses :class:`FunctionalExecutor` only to inherit the ALU
    (``_compute`` and its static helpers) — execution, scheduling and
    recording are replaced wholesale.
    """

    def __init__(self, host: FunctionalExecutor, lo: int, hi: int,
                 memory: ByteSpace, executed0: int) -> None:
        # Deliberately no super().__init__: the parsed host state (CFG,
        # validated args) is shared; only memory differs.
        self.kernel = host.kernel
        self.launch = host.launch
        self.memory = memory
        self.linear_values = host.linear_values
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
        # R2D2 linear registers: lr_id -> (W, 32) matrix, built on first
        # use from the provider's per-warp thread parts (over the tid
        # rows above) and per-block block parts.
        self._tid_warps = tid_rows
        self._lr: Dict[int, np.ndarray] = {}

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
        #: per recorded PC-group step: (rows, pc, active counts,
        #: uniform, affine, hashes or None, shared, banks or None,
        #: (line counts, flat lines) or None) — see :meth:`emit`.
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
            self._record_group(pc, instr, rows, mask, None, [])
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
            self._record_group(pc, instr, rows, mask, None, [])
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
            self._record_group(
                pc, instr, rows, active, values, [value]
            )
        else:
            srcs = [self._fetch_rows(s, rows) for s in instr.srcs]
            result = self._compute(instr, srcs, None)
            if instr.dst is not None:
                self._write(instr.dst, rows, active, result)
            self._record_group(pc, instr, rows, active, result, srcs)

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
        # R2D2 operands: same operation order as FunctionalExecutor._fetch
        # (python-int offset first, then one add), so int64 wraps, hashes
        # and uniform/affine flags stay bit-identical.
        if isinstance(op, CoeffRegOperand):
            return self._provider().cr_value(op.cr_id)
        if isinstance(op, LinearRegOperand):
            values = self._lr_rows(op.lr_id, rows)
            offset = op.disp
            if op.cr_id is not None:
                offset = offset + self._provider().cr_value(op.cr_id)
            if offset:
                values = values + offset
            return values
        raise _VBail("unsupported-operand", repr(op))

    def _lr_rows(self, lr_id: int, rows: np.ndarray) -> np.ndarray:
        mat = self._lr.get(lr_id)
        if mat is None:
            grid = self.launch.grid
            thread, block = self._provider().lr_parts(
                lr_id, self._tid_warps,
                [grid.linear_to_xyz(self.lo + b)
                 for b in range(self.nblocks)],
            )
            mat = thread[self._warp_in_block] + block[self._blockrow, None]
            self._lr[lr_id] = mat
        return mat[rows]

    # -- memory instructions -------------------------------------------
    def _addr_matrix(self, op: object, rows: np.ndarray) -> np.ndarray:
        """Full-lane address rows (callers select active lanes), built
        in :meth:`FunctionalExecutor._address` operation order."""
        if isinstance(op, MemRef):
            return self._read(op.base, rows) + op.disp
        if isinstance(op, LinearRef):
            disp = op.disp
            if op.cr_id is not None:
                disp = disp + self._provider().cr_value(op.cr_id)
            if op.lr_id is None:
                return np.full((rows.size, WARP_SIZE), disp, dtype=np.int64)
            return self._lr_rows(op.lr_id, rows) + disp
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

    def _mem_rows(self, addrs: np.ndarray, active: np.ndarray,
                  instr: Instruction):
        """Per-row ``(line counts, flat lines)`` of a global access, or
        bank-conflict degrees of a shared one."""
        if instr.is_global_memory:
            return _coalesce_rows(addrs, active), None
        return None, _bank_conflict_rows(addrs, active)

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
        lines, bank = self._mem_rows(addrs, active, instr)
        self._record_group(
            pc, instr, rows, active, full, [_Addrs(addrs)],
            lines=lines, shared=instr.is_shared_memory, bank=bank,
            n_act=n_act,
        )

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
        lines, bank = self._mem_rows(addrs, active, instr)
        self._record_group(
            pc, instr, rows, active, None, [_Addrs(addrs), value],
            lines=lines, shared=instr.is_shared_memory, skippable=False,
            bank=bank, n_act=n_act,
        )

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
        lines = None
        if instr.is_global_memory:
            lines, _ = self._mem_rows(addrs, active, instr)
        self._record_group(
            pc, instr, rows, active, None, [_Addrs(addrs), value],
            lines=lines, shared=instr.is_shared_memory, skippable=False,
            n_act=n_act,
        )

    # -- trace recording -----------------------------------------------
    def _record_group(self, pc: int, instr: Instruction,
                      rows: np.ndarray, active: np.ndarray,
                      result, srcs, lines=None, shared: bool = False,
                      skippable: bool = True, bank=None,
                      n_act: Optional[np.ndarray] = None) -> None:
        R = active.shape[0]
        if n_act is None:
            n_act = active.sum(axis=1)
        idx0 = active.argmax(axis=1)
        plain = [s.mat if isinstance(s, _Addrs) else s for s in srcs]
        uniform = _uniform_cols(
            plain, active, active.shape, idx0, np.arange(R)
        )
        affine = _affine_cols(result, instr, active, n_act, active.shape)
        hashes = None
        if skippable and not instr.is_control:
            hashes = self._hash_rows(pc, active, srcs)
        self._steps.append(
            (rows, pc, n_act, uniform, affine, hashes, shared, bank, lines)
        )

    def _hash_rows(self, pc: int, active: np.ndarray,
                   srcs) -> np.ndarray:
        """Per-row source hashes matching
        :func:`repro.sim.executor.hash_sources` bit for bit — one
        vectorized multiply-sum digest pass over the whole group."""
        return hash_source_rows(
            pc, active,
            [
                ("addrs", s.mat) if isinstance(s, _Addrs) else ("src", s)
                for s in srcs
            ],
        )

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
    def _columns(self) -> Tuple[TraceColumns, np.ndarray]:
        """The chunk's records in block/warp order (each warp's rows in
        step order), plus each warp row's record count."""
        steps = self._steps
        if not steps:
            return TraceColumns.empty(), np.zeros(self.W, dtype=np.int64)
        sizes = [len(st[0]) for st in steps]

        def per_row(i: int) -> np.ndarray:
            return np.repeat([st[i] for st in steps], sizes)

        def cat(i: int, fill, dtype) -> np.ndarray:
            return np.concatenate([
                st[i] if st[i] is not None else np.full(n, fill, dtype)
                for st, n in zip(steps, sizes)
            ])

        rows = np.concatenate([st[0] for st in steps])
        lines = [st[8] for st in steps if st[8] is not None]
        cols = TraceColumns.from_arrays(
            pc=per_row(1),
            active=np.concatenate([st[2] for st in steps]),
            uniform=np.concatenate([st[3] for st in steps]),
            affine=np.concatenate([st[4] for st in steps]),
            hashed=np.repeat([st[5] is not None for st in steps], sizes),
            src_hash=cat(5, 0, np.uint64),
            shared=per_row(6),
            bank_conflict=cat(7, 1, np.int64),
            n_lines=np.concatenate([
                st[8][0] if st[8] is not None
                else np.zeros(n, dtype=np.int64)
                for st, n in zip(steps, sizes)
            ]),
            lines=np.concatenate(
                [ln[1] for ln in lines] or [np.zeros(0, np.int64)]
            ),
        )
        # Stable: a warp's rows keep their step (= program) order.
        cols = cols.take(np.argsort(rows, kind="stable"))
        return cols, np.bincount(rows, minlength=self.W)

    def emit(self, out_blocks: List[BlockTrace],
             base: int) -> TraceColumns:
        """Append the chunk's blocks, their warps' row ranges starting
        at ``base``, and return the chunk's columns."""
        grid = self.launch.grid
        cols, counts = self._columns()
        stops = (base + np.cumsum(counts)).tolist()
        starts = [base] + stops[:-1]
        wpb = self.wpb
        for b in range(self.nblocks):
            block_id = self.lo + b
            out_blocks.append(BlockTrace(
                block_id, grid.linear_to_xyz(block_id),
                [
                    WarpTrace(block_id, w, starts[r], stops[r])
                    for w, r in enumerate(range(b * wpb, (b + 1) * wpb))
                ],
            ))
        return cols


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def _megawarp(host: FunctionalExecutor, trace: KernelTrace,
              min_warps: int) -> Optional[tuple]:
    """Run the launch on the megawarp against a fork of device memory,
    committing nothing.  Attaches the launch's :class:`VectorReport` to
    ``trace`` and returns ``(fork, blocks, cols)``, or ``None`` when the
    launch has fewer than ``min_warps`` warps or the megawarp bails."""
    grid = host.launch.grid
    wpb = (host.launch.threads_per_block + WARP_SIZE - 1) // WARP_SIZE
    total_warps = grid.count * wpb
    report = VectorReport(
        kernel=host.kernel.name, engaged=False, warps_total=total_warps,
    )
    trace.vector = report
    obs.inc("vector.launches", kernel=host.kernel.name)
    obs.inc("vector.warps_total", total_warps, kernel=host.kernel.name)
    if total_warps < min_warps:
        report.reason = "launch-too-small"
        report.detail = f"{total_warps} < {min_warps} warps"
        obs.engine_fallback(
            "vector", report.kernel, report.reason,
            detail=report.detail, bailed=False,
        )
        return None
    obs.inc("vector.engaged", kernel=host.kernel.name)

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
                engine = _MegaWarpEngine(host, lo, hi, fork, executed)
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
        _emit_counters(host.kernel.name, counters)
        obs.engine_fallback(
            "vector", report.kernel, report.reason,
            detail=report.detail, bailed=True,
        )
        return None

    _emit_counters(host.kernel.name, counters)
    report.engaged = True
    return fork, blocks, TraceColumns.concat(parts)


def attempt_vectorization(host: FunctionalExecutor,
                          trace: KernelTrace) -> bool:
    """Called from ``FunctionalExecutor.run_fast``.  Returns True when
    the megawarp committed the whole launch, False on skip or bail (the
    serial loop then covers everything)."""
    run = _megawarp(host, trace, MIN_WARPS)
    if run is None:
        return False
    fork, blocks, cols = run
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
    against a fork (from a single warp up, so no launch is too small),
    then the serial interpreter on the device itself; any difference in
    memory or trace columns raises :class:`VectorMismatch`.  Returns the
    serial trace."""
    trace = KernelTrace(host.kernel, host.launch)
    run = _megawarp(host, trace, 1)
    host._run_serial(trace)
    if run is None:
        return trace
    fork, blocks, cols = run
    diffs = _trace_diffs(blocks, cols, trace.blocks, trace.cols)
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


#: Record columns :func:`verify_vectorization` compares; ``lines`` is
#: compared per row.
_RECORD_FIELDS = (
    "pc", "active", "uniform", "affine", "hashed", "src_hash", "shared",
    "bank_conflict",
)


def _trace_diffs(xblocks: List[BlockTrace], xcols: TraceColumns,
                 sblocks: List[BlockTrace],
                 scols: TraceColumns) -> List[str]:
    if len(xblocks) != len(sblocks):
        return [f"block count {len(xblocks)} != {len(sblocks)}"]
    diffs: List[str] = []
    for xb, sb in zip(xblocks, sblocks):
        where = f"block {sb.block_linear_id}"
        if (xb.block_linear_id, xb.block_xyz) != (
            sb.block_linear_id, sb.block_xyz
        ):
            diffs.append(f"{where}: identity mismatch")
        elif [(w.warp_in_block, w.start, w.stop) for w in xb.warps] != [
            (w.warp_in_block, w.start, w.stop) for w in sb.warps
        ]:
            diffs.append(
                f"{where}: warp row ranges "
                f"{[len(w) for w in xb.warps]} != "
                f"{[len(w) for w in sb.warps]} records"
            )
        if len(diffs) > 8:
            return diffs
    if diffs or len(xcols) != len(scols):
        return diffs or [f"{len(xcols)} records != {len(scols)}"]
    # Rows line up: find every differing (row, column).
    bad = np.zeros(len(scols), dtype=bool)
    for f in _RECORD_FIELDS:
        bad |= getattr(xcols, f) != getattr(scols, f)
    bad |= xcols.n_lines != scols.n_lines
    if not bad.any():
        # Equal line counts: the flat lines align position by position.
        pos = np.flatnonzero(xcols.lines != scols.lines)
        bad[np.searchsorted(scols.line_off, pos, side="right") - 1] = True
    warps = [w for b in sblocks for w in b.warps]
    for i in np.flatnonzero(bad)[:8].tolist():
        warp = next(w for w in warps if w.start <= i < w.stop)
        head = (
            f"block {warp.block_linear_id} warp {warp.warp_in_block} "
            f"record {i - warp.start}"
        )
        for f in _RECORD_FIELDS + ("lines",):
            if f == "lines":
                a, b = xcols.row_lines(i), scols.row_lines(i)
            else:
                a, b = getattr(xcols, f)[i], getattr(scols, f)[i]
            if a != b:
                diffs.append(f"{head} ({f}): {a!r} != {b!r}")
    return diffs
