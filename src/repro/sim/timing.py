"""Cycle-approximate timing replay of kernel traces.

The model follows GPGPU-Sim's SM organization at warp-instruction
granularity: per SM, four warp schedulers each issue at most one
instruction per cycle from their warp subset (GTO or round-robin),
dependencies are enforced through a per-warp register scoreboard,
global-memory instructions are serviced by a throughput-limited LSU in
front of an L1/L2/DRAM hierarchy, and ``bar.sync`` blocks warps until
their whole thread block arrives.  Idle stretches are skipped by jumping
simulation time to the next ready event.

Architecture variants plug in through :class:`IssuePolicy`: per-row
issue modes (SIMD / scalar-pipeline / skipped) and extra latencies over
the trace's record columns, and prologue delays modeling R2D2's
decoupled linear phases (SM-level coefficient + thread-index
computation, per-block block-index computation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..isa.instruction import Instruction
from ..isa.kernel import Kernel
from ..isa.opcodes import DType, Opcode, SFU_OPCODES
from ..isa.regalloc import allocated_registers
from .caches import Cache, CacheStats, MemoryHierarchy
from .config import GPUConfig, verify_enabled
from .trace import BlockTrace, KernelTrace, WarpTrace

_FAR_FUTURE = 1 << 60


class IssueMode(enum.IntEnum):
    SIMD = 0
    #: issues on the per-scheduler uniform datapath, co-issued with SIMD
    SCALAR = 1
    SKIP = 2
    #: executes on a shared scalar pipeline: saves lane energy but still
    #: occupies the SIMD issue slot (the GCN-style scalar unit of the
    #: DARSIE+Scalar comparison point)
    SCALAR_INLINE = 3


class IssuePolicy:
    """Architecture hook: defaults model the baseline GPU."""

    name = "baseline"

    def plan(self, trace: KernelTrace) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row issue ``(modes, extra_latency)`` over ``trace.cols``:
        :class:`IssueMode` values and extra cycles added to each row's
        completion.  The default issues every row on the SIMD pipeline
        with no extra latency."""
        n = len(trace.cols)
        return np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int32)

    def sm_prologue_cycles(self, sm_id: int) -> int:
        """Delay before any warp of this SM issues (R2D2: coefficients +
        thread-index parts)."""
        return 0

    def block_prologue_cycles(self, block: BlockTrace) -> int:
        """Delay between a block's activation and its warps issuing
        (R2D2: block-index parts by the block's first warp)."""
        return 0


@dataclass
class EnergyBreakdown:
    """Picojoules by component."""

    values: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, pj: float) -> None:
        self.values[key] = self.values.get(key, 0.0) + pj

    def total(self) -> float:
        return sum(self.values.values())

    def merge(self, other: "EnergyBreakdown") -> None:
        for key, pj in other.values.items():
            self.add(key, pj)


@dataclass
class TimingResult:
    """Cycle and event counts for one kernel launch."""

    cycles: int = 0
    issued_simd: int = 0
    issued_scalar: int = 0
    skipped: int = 0
    thread_ops: int = 0
    prologue_cycles: int = 0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    l1: CacheStats = field(default_factory=CacheStats)
    #: a copy of the shared L2's running stats when the replay ended, so
    #: a later replay on the same L2 leaves this result unchanged
    l2: CacheStats = field(default_factory=CacheStats)
    dram_accesses: int = 0
    sms_used: int = 0
    #: one result per ledger policy of the replay
    #: (``TimingSimulator(ledgers=...)``), in order
    ledgers: List["TimingResult"] = field(default_factory=list)

    @property
    def issued_total(self) -> int:
        return self.issued_simd + self.issued_scalar


class TimingVerifyMismatch(AssertionError):
    """:meth:`TimingSimulator.run_verify` found the event-driven engine
    disagreeing with the reference loop."""

    def __init__(self, kernel: str, diffs: List[str]) -> None:
        self.kernel = kernel
        self.diffs = diffs
        super().__init__(
            f"timing engines disagree on kernel {kernel!r}: "
            + "; ".join(diffs)
        )


def timing_differences(fast: TimingResult, ref: TimingResult) -> List[str]:
    """Field-by-field comparison of two :class:`TimingResult`\\ s under
    the event-driven engine's bit-identical contract: every integer
    field, both cache stat pairs, and the exact per-component energy
    floats in the same key order, for the result and each ledger."""
    diffs: List[str] = []
    for name in (
        "cycles",
        "issued_simd",
        "issued_scalar",
        "skipped",
        "thread_ops",
        "prologue_cycles",
        "dram_accesses",
        "sms_used",
    ):
        a, b = getattr(fast, name), getattr(ref, name)
        if a != b:
            diffs.append(f"{name}: fast {a} != reference {b}")
    for label, a, b in (
        ("l1", fast.l1, ref.l1),
        ("l2", fast.l2, ref.l2),
    ):
        if (a.accesses, a.hits) != (b.accesses, b.hits):
            diffs.append(
                f"{label}: fast {a.accesses}/{a.hits} "
                f"!= reference {b.accesses}/{b.hits}"
            )
    if fast.energy.values != ref.energy.values:
        keys = sorted(
            set(fast.energy.values) | set(ref.energy.values)
        )
        for key in keys:
            a = fast.energy.values.get(key)
            b = ref.energy.values.get(key)
            if a != b:
                diffs.append(f"energy[{key}]: fast {a!r} != reference {b!r}")
    elif list(fast.energy.values) != list(ref.energy.values):
        # EnergyBreakdown.total() sums in key order.
        diffs.append(
            f"energy key order: fast {list(fast.energy.values)} "
            f"!= reference {list(ref.energy.values)}"
        )
    if len(fast.ledgers) != len(ref.ledgers):
        diffs.append(
            f"ledgers: fast {len(fast.ledgers)} "
            f"!= reference {len(ref.ledgers)}"
        )
    for k, (a, b) in enumerate(zip(fast.ledgers, ref.ledgers)):
        diffs += [f"ledger {k} {d}" for d in timing_differences(a, b)]
    return diffs


def _latency_of(instr: Instruction, lat) -> int:
    op = instr.opcode
    if op in SFU_OPCODES:
        return lat.sfu
    if op in (Opcode.MUL, Opcode.MAD, Opcode.FMA):
        return lat.mul
    if op is Opcode.LD_PARAM:
        return lat.param_load
    return lat.alu


class _WarpSim:
    __slots__ = (
        "slot",
        "block",
        "idx",
        "stop",
        "reg_avail",
        "start_time",
        "blocked_until",
        "at_barrier",
        "done",
    )

    def __init__(self, slot: int, block: "_BlockSim",
                 trace: WarpTrace) -> None:
        self.slot = slot
        self.block = block
        #: next row of the trace's columns; rows run up to ``stop``
        self.idx = trace.start
        self.stop = trace.stop
        self.reg_avail: Dict[str, int] = {}
        self.start_time = 0
        self.blocked_until = 0
        self.at_barrier = False
        self.done = trace.start >= trace.stop


class _BlockSim:
    __slots__ = ("trace", "warps", "barrier_count", "remaining")

    def __init__(self, trace: BlockTrace) -> None:
        self.trace = trace
        self.warps: List[_WarpSim] = []
        self.barrier_count = 0
        self.remaining = 0


class _Rows:
    """The trace columns and issue plan as python lists, for the
    reference loop's per-row reads."""

    __slots__ = ("pc", "active", "shared", "bank_conflict", "line_off",
                 "lines", "mode", "extra")

    def __init__(self, trace: KernelTrace, plan) -> None:
        cols = trace.cols
        self.pc = cols.pc.tolist()
        self.active = cols.active.tolist()
        self.shared = cols.shared.tolist()
        self.bank_conflict = cols.bank_conflict.tolist()
        self.line_off = cols.line_off.tolist()
        self.lines = cols.lines.tolist()
        self.mode = plan[0].tolist()
        self.extra = plan[1].tolist()


class TimingSimulator:
    """Replays one kernel trace on the configured GPU.

    ``ledgers`` are further issue policies costed from the same replay,
    each into its own result in ``TimingResult.ledgers``.  A ledger's
    plan must be ``policy``'s with every ``SCALAR_INLINE`` row issued
    SIMD as an ALU op (DARSIE's plan against DARSIE+Scalar's): the
    inline op keeps the SIMD issue slot and latency, so both plans
    replay cycle for cycle alike and differ only in energy and issue
    counters."""

    def __init__(
        self,
        config: GPUConfig,
        trace: KernelTrace,
        policy: Optional[IssuePolicy] = None,
        l2: Optional[Cache] = None,
        regs_per_thread: Optional[int] = None,
        ledgers: Sequence[IssuePolicy] = (),
    ) -> None:
        self.config = config
        self.trace = trace
        self.policy = policy or IssuePolicy()
        self.ledgers = tuple(ledgers)
        self.kernel = trace.kernel
        self.instrs = self.kernel.instructions
        self.l2 = l2 if l2 is not None else Cache(config.l2)
        if regs_per_thread is None:
            regs_per_thread = allocated_registers(self.kernel)
        self.regs_per_thread = regs_per_thread
        self._plan: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    def issue_plan(self) -> Tuple[np.ndarray, np.ndarray]:
        """The policy's per-row ``(modes, extra_latency)``, computed
        once per simulator (:meth:`run_verify` replays it twice)."""
        if self._plan is None:
            self._plan = self.policy.plan(self.trace)
        return self._plan

    # ------------------------------------------------------------------
    def resident_blocks_limit(self) -> int:
        cfg = self.config
        launch = self.trace.launch
        threads = launch.threads_per_block
        warps = (threads + cfg.warp_size - 1) // cfg.warp_size
        by_blocks = cfg.max_blocks_per_sm
        by_warps = max(1, cfg.max_warps_per_sm // warps)
        by_regs = max(
            1, cfg.registers_per_sm // max(1, self.regs_per_thread * threads)
        )
        smem = self.kernel.shared_mem_bytes
        by_smem = (
            max(1, cfg.shared_mem_per_sm // smem) if smem else by_blocks
        )
        return max(1, min(by_blocks, by_warps, by_regs, by_smem))

    # ------------------------------------------------------------------
    def run(self) -> TimingResult:
        """Replay the trace on the production engine (:meth:`run_fast`),
        or on both engines under ``R2D2_VERIFY=1`` (:meth:`run_verify`)."""
        return self.run_verify() if verify_enabled() else self.run_fast()

    # ------------------------------------------------------------------
    def run_fast(self) -> TimingResult:
        """Event-driven replay with SM cloning
        (:mod:`repro.sim.timing_fast`), bit-identical to
        :meth:`run_reference` (enforced by :meth:`run_verify`, the
        oracle, and the engine-verify CI job)."""
        from .timing_fast import run_fast

        obs.inc(
            "timing.engine", kernel=self.kernel.name, engine="fast"
        )
        obs.decision(
            "timing", "engage", kernel=self.kernel.name,
            reason="event-driven",
        )
        return run_fast(self)

    # ------------------------------------------------------------------
    def run_verify(self) -> TimingResult:
        """Run the event-driven engine *and* the reference loop, assert
        field-by-field equality (energy, cache stats and every ledger
        included), and return the reference result.  Raises
        :class:`TimingVerifyMismatch` on any difference."""
        snap = self.l2.snapshot()
        fast = self.run_fast()
        self.l2.restore(snap)
        ref = self.run_reference()
        diffs = timing_differences(fast, ref)
        kname = self.kernel.name
        if diffs:
            obs.inc("timing.verify_mismatches", kernel=kname)
            raise TimingVerifyMismatch(kname, diffs)
        obs.inc("timing.engine", kernel=kname, engine="verify")
        obs.decision("timing", "verify", kernel=kname, reason="ok")
        return ref

    # ------------------------------------------------------------------
    def run_reference(self) -> TimingResult:
        """Record-by-record reference replay (always exact; the
        event-driven engine is validated against it).  Each ledger
        policy is replayed on its own, from the L2 state this call
        started from, into the result's ``ledgers``."""
        snap = self.l2.snapshot() if self.ledgers else None
        result = self._replay_reference()
        for policy in self.ledgers:
            self.l2.restore(snap)
            result.ledgers.append(TimingSimulator(
                self.config, self.trace, policy, self.l2,
                self.regs_per_thread,
            ).run_reference())
        return result

    def _replay_reference(self) -> TimingResult:
        result = TimingResult()
        cfg = self.config
        self._rows = _Rows(self.trace, self.issue_plan())
        blocks = self.trace.blocks
        n_sms = min(cfg.num_sms, max(1, len(blocks)))
        result.sms_used = n_sms
        per_sm: List[List[BlockTrace]] = [[] for _ in range(n_sms)]
        for i, block in enumerate(blocks):
            per_sm[i % n_sms].append(block)

        sm_cycles = []
        for sm_id in range(n_sms):
            cycles = self._run_sm(sm_id, per_sm[sm_id], result)
            sm_cycles.append(cycles)
        result.cycles = max(sm_cycles) if sm_cycles else 0
        result.l2 = replace(self.l2.stats)

        static = (
            cfg.energy.static_pj_per_sm_cycle * result.cycles * n_sms
        )
        result.energy.add("static", static)
        return result

    # ------------------------------------------------------------------
    def _run_sm(
        self, sm_id: int, blocks: List[BlockTrace], result: TimingResult
    ) -> int:
        if not blocks:
            return 0
        cfg = self.config
        lat = cfg.latency
        l1 = Cache(cfg.l1)
        hierarchy = MemoryHierarchy(l1, self.l2, lat)
        resident = self.resident_blocks_limit()

        prologue = self.policy.sm_prologue_cycles(sm_id)
        result.prologue_cycles += prologue

        pending = list(blocks)
        live: List[_WarpSim] = []
        slot_counter = 0
        active_blocks: List[_BlockSim] = []

        def activate_block(now: int) -> None:
            nonlocal slot_counter
            block_trace = pending.pop(0)
            bsim = _BlockSim(block_trace)
            bprologue = self.policy.block_prologue_cycles(block_trace)
            result.prologue_cycles += bprologue
            start = now + bprologue
            for wtrace in block_trace.warps:
                wsim = _WarpSim(slot_counter, bsim, wtrace)
                wsim.start_time = start
                slot_counter += 1
                self._advance_skips(wsim, start, result)
                if not wsim.done:
                    bsim.warps.append(wsim)
                    live.append(wsim)
            bsim.remaining = len(bsim.warps)
            if bsim.remaining:
                active_blocks.append(bsim)

        t = prologue
        while pending and len(active_blocks) < resident:
            activate_block(t)

        n_sched = cfg.num_schedulers
        last_issued: List[Optional[_WarpSim]] = [None] * n_sched
        rr_cursor = [0] * n_sched
        lsu_free = t
        use_gto = cfg.scheduler_policy == "gto"

        def finish_issue(warp: _WarpSim) -> None:
            if warp.done:
                block = warp.block
                block.remaining -= 1
                if block.remaining == 0:
                    active_blocks.remove(block)
                    if pending:
                        activate_block(t + 1)

        while live or pending:
            issued_any = False
            # Each scheduler partition owns a uniform/scalar datapath that
            # co-issues one uniform op per cycle alongside its SIMD slot
            # (the Turing sub-core organization).
            for sched in range(n_sched):
                warp = self._pick(
                    live, sched, n_sched, t, last_issued, rr_cursor,
                    use_gto, want_scalar=True,
                )
                if warp is not None:
                    lsu_free = self._issue(
                        warp, t, lsu_free, hierarchy, result
                    )
                    issued_any = True
                    finish_issue(warp)
                warp = self._pick(
                    live, sched, n_sched, t, last_issued, rr_cursor,
                    use_gto, want_scalar=False,
                )
                if warp is None:
                    continue
                lsu_free = self._issue(warp, t, lsu_free, hierarchy, result)
                last_issued[sched] = warp
                issued_any = True
                finish_issue(warp)
            if issued_any:
                live = [w for w in live if not w.done]
            if not live and pending:
                activate_block(t + 1)
            if issued_any:
                t += 1
            elif live:
                nxt = self._next_event_time(live, t)
                t = nxt if nxt > t else t + 1
        result.l1.merge(l1.stats)
        return t

    # ------------------------------------------------------------------
    def _advance_skips(self, warp: _WarpSim, t: int,
                       result: TimingResult) -> None:
        rows = self._rows
        while warp.idx < warp.stop and rows.mode[warp.idx] == IssueMode.SKIP:
            instr = self.instrs[rows.pc[warp.idx]]
            if instr.dst is not None:
                warp.reg_avail[instr.dst.name] = t
            result.skipped += 1
            warp.idx += 1
        if warp.idx >= warp.stop:
            warp.done = True

    def _dep_time(self, warp: _WarpSim, pc: int) -> int:
        instr = self.instrs[pc]
        dep = 0
        avail = warp.reg_avail
        for reg in instr.source_regs():
            rt = avail.get(reg.name, 0)
            if rt > dep:
                dep = rt
        return dep

    def _ready_time(self, warp: _WarpSim) -> int:
        if warp.at_barrier:
            return _FAR_FUTURE
        if warp.idx >= warp.stop:
            return _FAR_FUTURE
        return max(
            self._dep_time(warp, self._rows.pc[warp.idx]),
            warp.start_time,
            warp.blocked_until,
        )

    def _next_is_scalar(self, warp: _WarpSim) -> bool:
        if warp.idx >= warp.stop:
            return False
        return self._rows.mode[warp.idx] == IssueMode.SCALAR

    def _pick(
        self,
        live: List[_WarpSim],
        sched: int,
        n_sched: int,
        t: int,
        last_issued: List[Optional[_WarpSim]],
        rr_cursor: List[int],
        use_gto: bool,
        want_scalar: Optional[bool] = None,
    ) -> Optional[_WarpSim]:
        mine = [w for w in live if w.slot % n_sched == sched]
        if want_scalar is not None:
            mine = [
                w for w in mine if self._next_is_scalar(w) == want_scalar
            ]
        if not mine:
            return None
        if use_gto:
            last = last_issued[sched]
            if (
                last is not None
                and not last.done
                and not last.at_barrier
                and last.slot % n_sched == sched
                and (want_scalar is None
                     or self._next_is_scalar(last) == want_scalar)
                and self._ready_time(last) <= t
            ):
                return last
            best = None
            for w in mine:
                if self._ready_time(w) <= t:
                    if best is None or w.slot < best.slot:
                        best = w
            return best
        # round-robin
        n = len(mine)
        start = rr_cursor[sched] % n
        for k in range(n):
            w = mine[(start + k) % n]
            if self._ready_time(w) <= t:
                rr_cursor[sched] = (start + k + 1) % n
                return w
        return None

    def _next_event_time(self, live: List[_WarpSim], t: int) -> int:
        nxt = _FAR_FUTURE
        for w in live:
            rt = self._ready_time(w)
            if t < rt < nxt:
                nxt = rt
        if nxt == _FAR_FUTURE:
            return t + 1
        return nxt

    # ------------------------------------------------------------------
    def _issue(
        self,
        warp: _WarpSim,
        t: int,
        lsu_free: int,
        hierarchy: MemoryHierarchy,
        result: TimingResult,
    ) -> int:
        cfg = self.config
        lat = cfg.latency
        energy = result.energy
        rows = self._rows
        i = warp.idx
        instr = self.instrs[rows.pc[i]]
        mode = rows.mode[i]
        extra = rows.extra[i]
        active = rows.active[i]

        if mode in (IssueMode.SCALAR, IssueMode.SCALAR_INLINE):
            result.issued_scalar += 1
            result.thread_ops += 1
            energy.add("fetch", cfg.energy.fetch_decode_pj)
            energy.add("scalar", cfg.energy.scalar_op_pj)
            energy.add("rf", cfg.energy.rf_read_pj + cfg.energy.rf_write_pj)
            completion = t + _latency_of(instr, lat) + extra
            if instr.dst is not None:
                warp.reg_avail[instr.dst.name] = completion
            self._finish_record(warp, t, result)
            return lsu_free

        result.issued_simd += 1
        result.thread_ops += active
        energy.add("fetch", cfg.energy.fetch_decode_pj)
        n_src_regs = len(instr.source_regs())
        energy.add("rf", cfg.energy.rf_read_pj * n_src_regs)
        if instr.dst is not None:
            energy.add("rf", cfg.energy.rf_write_pj)

        if instr.is_barrier:
            block = warp.block
            block.barrier_count += 1
            if block.barrier_count >= block.remaining:
                block.barrier_count = 0
                for w in block.warps:
                    if not w.done:
                        w.at_barrier = False
                        w.blocked_until = max(w.blocked_until, t + 1)
            else:
                warp.at_barrier = True
            self._finish_record(warp, t, result)
            return lsu_free

        lines = rows.lines[rows.line_off[i]:rows.line_off[i + 1]]
        if instr.is_global_memory and lines:
            start = max(t, lsu_free)
            lsu_free = start + max(
                1, len(lines) // cfg.mem_ports_per_sm
            )
            access = hierarchy.access(lines, is_store=instr.is_store)
            completion = start + access.latency + extra
            result.dram_accesses += access.dram_accesses
            energy.add(
                "l1", cfg.energy.l1_access_pj * len(lines)
            )
            n_l2 = len(lines) - access.l1_hits
            energy.add("l2", cfg.energy.l2_access_pj * max(0, n_l2))
            energy.add(
                "dram", cfg.energy.dram_access_pj * access.dram_accesses
            )
        elif instr.is_shared_memory or rows.shared[i]:
            # bank conflicts serialize the LSU replay, 1 cycle per extra
            # distinct word on the worst bank
            completion = (
                t + lat.shared_mem + max(0, rows.bank_conflict[i] - 1)
                + extra
            )
            energy.add(
                "shared", cfg.energy.shared_access_pj * active
            )
        else:
            completion = t + _latency_of(instr, lat) + extra
            if instr.opcode in SFU_OPCODES:
                energy.add("sfu", cfg.energy.sfu_lane_pj * active)
            elif instr.dtype.is_float:
                energy.add("alu", cfg.energy.float_lane_pj * active)
            else:
                energy.add("alu", cfg.energy.int_lane_pj * active)

        if instr.dst is not None:
            warp.reg_avail[instr.dst.name] = completion
        self._finish_record(warp, t, result)
        return lsu_free

    def _finish_record(
        self, warp: _WarpSim, t: int, result: TimingResult
    ) -> None:
        warp.idx += 1
        self._advance_skips(warp, t + 1, result)
        if warp.idx >= warp.stop:
            warp.done = True
