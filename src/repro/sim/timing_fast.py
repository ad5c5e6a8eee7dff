"""Event-driven timing engine for :class:`~repro.sim.timing.TimingSimulator`.

Bit-identical to :meth:`TimingSimulator.run_reference` — same cycles,
instruction counters, cache statistics, and the same per-component
float-addition sequence for energy (key order included) — on any
trace, scheduler, and issue policy.  Four layers:

**SM cloning.**  SMs receive round-robin slices of the block list; on
regular kernels those slices have identical signature sequences
(:meth:`_Prep.sm_signature`).  The first SM of a repeated signature is
simulated with recording on: its global-memory accesses in issue order
with their L1/L2/DRAM outcomes, its counter deltas, and its energy
increments.  A later SM with the same signature only replays those
accesses against a fresh L1 and the real shared L2.  If every access
resolves to the representative's outcome, the SM's dynamics are
provably identical and the recorded deltas are committed without
re-simulating; the L2 content evolution stays exact because the replay
performs the very accesses a full simulation would.  On any outcome
mismatch the L2 is rolled back to a snapshot and the SM is simulated
in full.

**Record-stream precompilation.**  The signature pass (:class:`_Prep`)
reduces each warp's record stream to a signature
(``TraceRecord.static_issue_key`` plus the issue plan's per-record
mode/extra) and flattens each distinct signature into per-record
tables — latency class, dense source/dest register slots, issue mode,
extra latency, memory-line counts, bank-conflict-adjusted latencies,
barrier flags, skip runs, and the exact energy additions — so the inner
loop indexes integers instead of walking ``Instruction`` operands and
calling ``source_regs()`` per issue.

**Event-driven scheduling.**  Each warp caches its scoreboard ready
time (``_EW.rt``).  The scoreboard is strictly per-warp, so a cached
time only changes when the warp itself issues, its barrier releases, or
its block activates — all events this module controls.  Instead of
re-running every scheduler's pick scan each cycle, the main loop finds
the two smallest ready times across the SM: if nothing is ready the
clock jumps straight to the next event, and if exactly one warp is
schedulable in an interval its run of consecutive dependency-satisfied
non-memory records retires in a closed-form burst (``burst`` in
:func:`_run_sm`) without consulting the other schedulers at all.
Bursts preserve the reference's issue order (and therefore its energy
float-addition order) because the bursting warp is, by construction,
the only warp the reference could have issued in that interval.

**Array-backed cache model.**  ``sim/caches.py`` stores tags and LRU
stamps in numpy arrays, so a multi-line record that hits entirely in L1
is answered by one vectorized probe (``MemoryHierarchy.access``) rather
than a per-line Python loop.

Energy stays exact across clones because no SM adds into the running
totals directly: each appends its increments to per-component lists in
issue order and folds them on when it finishes (:func:`_fold`), and a
clone folds the representative's lists the same way.  The engine is
selected with ``R2D2_TIMING={fast,reference,verify}`` (see
:meth:`TimingSimulator.run`); ``verify`` runs this engine *and* the
reference loop and asserts equality field by field.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Tuple

from .. import obs
from .caches import Cache, MemoryHierarchy
from .timing import IssueMode, TimingResult, _latency_of
from .trace import BlockTrace

_FAR = 1 << 60

# Record kinds, mirroring the branch structure of
# ``TimingSimulator._issue``.
_K_SCALAR = 0
_K_BARRIER = 1
_K_GMEM = 2
_K_SMEM = 3
_K_ALU = 4
_K_SKIP = 5

#: Sig-tuple tail for plain-SIMD plans; plain ints hash faster than the
#: IssueMode members they equal.
_SIMD_TAIL = (int(IssueMode.SIMD), 0)


class _SigGroup:
    """Per-record static issue tables shared by all warps of one
    signature."""

    __slots__ = (
        "n",
        "kind",
        "lat",
        "extra",
        "active",
        "dst",
        "srcs",
        "eadds",
        "lsu_slots",
        "n_lines",
        "is_store",
        "next_scalar",
        "skip_next",
        "skip_dsts",
        "skip_count",
        "has_scalar",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.kind: List[int] = []
        self.lat: List[int] = []
        self.extra: List[int] = []
        self.active: List[int] = []
        self.dst: List[int] = []
        self.srcs: List[Tuple[int, ...]] = []
        #: per record: ordered (component, picojoule) additions — the
        #: exact float values the reference loop would add.
        self.eadds: List[Tuple[Tuple[str, float], ...]] = []
        self.lsu_slots: List[int] = []
        self.n_lines: List[int] = []
        self.is_store: List[bool] = []
        self.next_scalar: List[bool] = []
        self.skip_next: List[int] = []
        self.skip_dsts: List[Tuple[int, ...]] = []
        self.skip_count: List[int] = []
        self.has_scalar = False


def _build_row(key: tuple, prep: "_Prep") -> tuple:
    """Static issue row for one record key.

    A row depends only on the 7-tuple record key (never on the
    surrounding signature), so it is memoized in ``prep.row_cache``:
    divergent kernels produce thousands of distinct *signatures* built
    from a few dozen distinct *record keys*, and rebuilding rows per
    group used to dominate the precompilation pass.
    """
    cfg = prep.cfg
    lat = cfg.latency
    e = cfg.energy
    pc, active, shared, bank_conflict, n_lines, mode, extra = key
    instr = prep.instrs[pc]
    dst = instr.dst
    dst_id = prep.reg_ids[dst.name] if dst is not None else -1
    src_regs = instr.source_regs()
    src_ids = tuple(
        dict.fromkeys(prep.reg_ids[r.name] for r in src_regs)
    )
    next_scalar = mode == IssueMode.SCALAR

    if mode == IssueMode.SKIP:
        return (
            _K_SKIP, 0, extra, active, dst_id, src_ids, (),
            0, n_lines, instr.is_store, next_scalar, False,
        )
    if mode in (IssueMode.SCALAR, IssueMode.SCALAR_INLINE):
        eadds = (
            ("fetch", e.fetch_decode_pj),
            ("scalar", e.scalar_op_pj),
            ("rf", e.rf_read_pj + e.rf_write_pj),
        )
        return (
            _K_SCALAR, _latency_of(instr, lat), extra, active, dst_id,
            src_ids, eadds, 0, n_lines, instr.is_store, next_scalar,
            mode == IssueMode.SCALAR,
        )

    adds: List[Tuple[str, float]] = [
        ("fetch", e.fetch_decode_pj),
        ("rf", e.rf_read_pj * len(src_regs)),
    ]
    if dst is not None:
        adds.append(("rf", e.rf_write_pj))
    lsu = 0
    if instr.is_barrier:
        kind, latv = _K_BARRIER, 0
    elif instr.is_global_memory and n_lines:
        kind, latv = _K_GMEM, 0
        lsu = max(1, n_lines // cfg.mem_ports_per_sm)
        adds.append(("l1", e.l1_access_pj * n_lines))
    elif instr.is_shared_memory or shared:
        kind = _K_SMEM
        latv = lat.shared_mem + max(0, bank_conflict - 1)
        adds.append(("shared", e.shared_access_pj * active))
    else:
        kind, latv = _K_ALU, _latency_of(instr, lat)
        if instr.opcode in prep.sfu_opcodes:
            adds.append(("sfu", e.sfu_lane_pj * active))
        elif instr.dtype.is_float:
            adds.append(("alu", e.float_lane_pj * active))
        else:
            adds.append(("alu", e.int_lane_pj * active))
    return (
        kind, latv, extra, active, dst_id, src_ids, tuple(adds),
        lsu, n_lines, instr.is_store, next_scalar, False,
    )


def _build_group(sig: tuple, prep: "_Prep") -> _SigGroup:
    grp = _SigGroup(len(sig))
    cache = prep.row_cache
    rows = []
    for key in sig:
        row = cache.get(key)
        if row is None:
            row = _build_row(key, prep)
            cache[key] = row
        rows.append(row)
    (
        grp.kind,
        grp.lat,
        grp.extra,
        grp.active,
        grp.dst,
        grp.srcs,
        grp.eadds,
        grp.lsu_slots,
        grp.n_lines,
        grp.is_store,
        grp.next_scalar,
        scalar_modes,
    ) = map(list, zip(*rows)) if rows else ([] for _ in range(12))
    grp.has_scalar = any(scalar_modes)

    # Maximal skip runs from every position (mirrors ``_advance_skips``):
    # ``skip_next[i]`` is the first non-SKIP index at or after i,
    # ``skip_dsts[i]`` the destination slots written while skipping,
    # ``skip_count[i]`` how many records were skipped.
    n = grp.n
    if _K_SKIP not in grp.kind:
        grp.skip_next = list(range(n + 1))
        grp.skip_dsts = [()] * (n + 1)
        grp.skip_count = [0] * (n + 1)
        return grp
    grp.skip_next = [0] * (n + 1)
    grp.skip_dsts = [()] * (n + 1)
    grp.skip_count = [0] * (n + 1)
    grp.skip_next[n] = n
    for i in range(n - 1, -1, -1):
        if grp.kind[i] == _K_SKIP:
            grp.skip_next[i] = grp.skip_next[i + 1]
            dst = grp.dst[i]
            if dst >= 0:
                grp.skip_dsts[i] = (dst,) + grp.skip_dsts[i + 1]
            else:
                grp.skip_dsts[i] = grp.skip_dsts[i + 1]
            grp.skip_count[i] = grp.skip_count[i + 1] + 1
        else:
            grp.skip_next[i] = i
    return grp


class _Prep:
    """Signature pass: plans, groups, and per-SM signature keys."""

    def __init__(self, sim) -> None:
        from ..isa.opcodes import SFU_OPCODES

        self.policy = sim.policy
        self.cfg = sim.config
        self.instrs = sim.instrs
        self.sfu_opcodes = SFU_OPCODES
        #: record key -> static issue row, shared across groups.
        self.row_cache: Dict[tuple, tuple] = {}
        # Register-name -> dense slot id (reference uses a name-keyed
        # dict with default 0; dense arrays start at 0 likewise).
        self.reg_ids: Dict[str, int] = {}
        for instr in self.instrs:
            if instr.dst is not None and instr.dst.name not in self.reg_ids:
                self.reg_ids[instr.dst.name] = len(self.reg_ids)
            for reg in instr.source_regs():
                if reg.name not in self.reg_ids:
                    self.reg_ids[reg.name] = len(self.reg_ids)
        self.n_regs = len(self.reg_ids)

        self._groups: Dict[tuple, _SigGroup] = {}
        self._group_ids: Dict[tuple, int] = {}
        #: block id -> (prologue cycles, per-warp _SigGroup list)
        self.block_info: Dict[int, Tuple[int, List[_SigGroup]]] = {}
        self.block_sig: Dict[int, tuple] = {}
        self.any_scalar = False
        policy = sim.policy
        # Policies whose plans are a pure function of the static pc
        # (e.g. R2D2's per-pc mode/extra tables) export them as arrays;
        # the signature composes per record from the pc without ever
        # materializing a per-warp WarpIssuePlan.
        arrays = policy.plan_arrays()
        if arrays is not None:
            mode_by_pc = [int(m) for m in arrays[0]]
            extra_by_pc = [int(x) for x in arrays[1]]
        # Megawarp traces carry an interned tuple of static_issue_key()s
        # per warp (WarpTrace.sig_base); warps that share the interned
        # object skip the per-record key walk.
        simd_sigs: Dict[int, tuple] = {}
        pc_sigs: Dict[int, tuple] = {}
        for block in sim.trace.blocks:
            bprologue = policy.block_prologue_cycles(block)
            groups: List[_SigGroup] = []
            wsigs: List[int] = []
            for warp in block.warps:
                if arrays is not None:
                    base = getattr(warp, "sig_base", None)
                    if base is not None:
                        sig = pc_sigs.get(id(base))
                        if sig is None:
                            sig = tuple(
                                key
                                + (mode_by_pc[key[0]], extra_by_pc[key[0]])
                                for key in base
                            )
                            pc_sigs[id(base)] = sig
                    else:
                        sig = tuple(
                            r.static_issue_key()
                            + (mode_by_pc[r.pc], extra_by_pc[r.pc])
                            for r in warp.records
                        )
                    grp = self._groups.get(sig)
                    if grp is None:
                        grp = _build_group(sig, self)
                        self._groups[sig] = grp
                        self._group_ids[sig] = len(self._group_ids)
                        self.any_scalar = self.any_scalar or grp.has_scalar
                    groups.append(grp)
                    wsigs.append(self._group_ids[sig])
                    continue
                plan = policy.plan_warp(block, warp)
                if plan.modes is None and plan.extra_latency is None:
                    base = getattr(warp, "sig_base", None)
                    if base is not None:
                        sig = simd_sigs.get(id(base))
                        if sig is None:
                            sig = tuple(
                                key + _SIMD_TAIL for key in base
                            )
                            simd_sigs[id(base)] = sig
                    else:
                        sig = tuple(
                            r.static_issue_key() + _SIMD_TAIL
                            for r in warp.records
                        )
                else:
                    sig = tuple(
                        r.static_issue_key()
                        + (int(plan.mode(i)), int(plan.extra(i)))
                        for i, r in enumerate(warp.records)
                    )
                grp = self._groups.get(sig)
                if grp is None:
                    grp = _build_group(sig, self)
                    self._groups[sig] = grp
                    self._group_ids[sig] = len(self._group_ids)
                    self.any_scalar = self.any_scalar or grp.has_scalar
                groups.append(grp)
                wsigs.append(self._group_ids[sig])
            self.block_info[id(block)] = (bprologue, groups)
            self.block_sig[id(block)] = (bprologue, tuple(wsigs))

    def sm_signature(self, sm_id: int, blocks: List[BlockTrace]) -> tuple:
        return (
            self.policy.sm_prologue_cycles(sm_id),
            tuple(self.block_sig[id(b)] for b in blocks),
        )

    @property
    def n_groups(self) -> int:
        return len(self._groups)


#: trace id -> (weakref keeping the eviction callback alive,
#: [(config, policy, prep), ...]).  Strong refs to config/policy pin
#: their ids so an identity match can never alias a recycled object.
_PREP_CACHE: Dict[int, Tuple[object, list]] = {}


def prep_for(sim) -> _Prep:
    """Record-stream precompilation, cached once per kernel trace.

    The tables in :class:`_Prep` depend only on the trace, the config's
    latency/energy/port parameters, and the issue policy's plans — not
    on which mode replays them — so one precompilation serves the fast
    and verify modes, and repeat replays of the same trace (benchmarks,
    oracle cross-checks) skip it entirely.

    Entries match by object identity: same config object and same
    policy object, except that bare :class:`IssuePolicy` instances are
    interchangeable (their hooks are stateless).  Configs are treated
    as immutable after construction, as everywhere else in the repo.
    The cache is keyed by trace id and evicted by a weakref callback
    when the trace is garbage collected.
    """
    from .timing import IssuePolicy

    trace = sim.trace
    key = id(trace)
    policy = sim.policy
    default_policy = type(policy) is IssuePolicy
    cached = _PREP_CACHE.get(key)
    if cached is None:
        import weakref

        entries: list = []
        ref = weakref.ref(
            trace, lambda _r, _k=key: _PREP_CACHE.pop(_k, None)
        )
        _PREP_CACHE[key] = (ref, entries)
    else:
        entries = cached[1]
        for cfg, pol, prep in entries:
            if cfg is sim.config and (
                pol is policy
                or (default_policy and type(pol) is IssuePolicy)
            ):
                return prep
    prep = _Prep(sim)
    entries.append((sim.config, policy, prep))
    return prep


class _EW:
    """Dynamic per-warp state with cached scheduler inputs: ``rt`` is
    the ready time :meth:`TimingSimulator._ready_time` would compute,
    ``nsc`` whether the next record issues on the scalar pass;
    ``bseq``/``wpos`` locate the warp's records for the clone log."""

    __slots__ = (
        "slot",
        "fb",
        "grp",
        "recs",
        "idx",
        "reg",
        "start",
        "bu",
        "at_bar",
        "done",
        "rt",
        "nsc",
        "bseq",
        "wpos",
    )

    def __init__(self, slot: int, fb: "_EB", grp: _SigGroup, recs,
                 n_regs: int, bseq: int, wpos: int) -> None:
        self.slot = slot
        self.fb = fb
        self.grp = grp
        self.recs = recs
        self.idx = 0
        self.reg = [0] * n_regs
        self.start = 0
        self.bu = 0
        self.at_bar = False
        self.done = grp.n == 0
        self.rt = 0
        self.nsc = False
        self.bseq = bseq
        self.wpos = wpos


class _EB:
    """Dynamic per-block state (mirrors ``_BlockSim``)."""

    __slots__ = ("warps", "barrier_count", "remaining")

    def __init__(self) -> None:
        self.warps: List[_EW] = []
        self.barrier_count = 0
        self.remaining = 0


def _refresh(w: _EW) -> None:
    """Recompute the cached ready time / scalar flag after any event
    that can change them (self-issue, barrier state, activation)."""
    grp = w.grp
    i = w.idx
    if w.at_bar or i >= grp.n:
        w.rt = _FAR
        w.nsc = False
        return
    m = w.start if w.start > w.bu else w.bu
    reg = w.reg
    for s in grp.srcs[i]:
        v = reg[s]
        if v > m:
            m = v
    w.rt = m
    w.nsc = grp.next_scalar[i]


class _SMRecord:
    """Everything needed to clone an SM without re-simulating it."""

    __slots__ = (
        "cycles",
        "d_simd",
        "d_scalar",
        "d_skipped",
        "d_threads",
        "d_prologue",
        "d_dram",
        "l1_accesses",
        "l1_hits",
        "energy",
        "memlog",
    )


def _fold(evals: Dict[str, float], energy) -> None:
    """Add ``(component, increments)`` pairs onto the running energy
    totals: each component's increments in issue order, components in
    first-use order — the reference loop's exact float-addition
    sequence and dict key order."""
    for key, seq in energy:
        evals[key] = reduce(add, seq, evals.get(key, 0.0))


def _try_clone(sim, rec: _SMRecord, blocks: List[BlockTrace],
               result: TimingResult) -> bool:
    """Replay the representative's memory accesses for a candidate clone;
    commit the recorded deltas if every outcome matches, else roll the L2
    back and report failure."""
    cfg = sim.config
    l2 = sim.l2
    snap = l2.snapshot() if rec.memlog else None
    l1 = Cache(cfg.l1)
    hierarchy = MemoryHierarchy(l1, l2, cfg.latency)
    for bseq, wpos, ridx, want_l1, want_l2, want_dram, is_store in rec.memlog:
        record = blocks[bseq].warps[wpos].records[ridx]
        acc = hierarchy.access(record.lines, is_store=is_store)
        if (
            acc.l1_hits != want_l1
            or acc.l2_hits != want_l2
            or acc.dram_accesses != want_dram
        ):
            l2.restore(snap)
            return False
    result.issued_simd += rec.d_simd
    result.issued_scalar += rec.d_scalar
    result.skipped += rec.d_skipped
    result.thread_ops += rec.d_threads
    result.prologue_cycles += rec.d_prologue
    result.dram_accesses += rec.d_dram
    result.l1.accesses += rec.l1_accesses
    result.l1.hits += rec.l1_hits
    _fold(result.energy.values, rec.energy)
    return True


def run_fast(sim) -> TimingResult:
    """Event-driven equivalent of :meth:`TimingSimulator.run_reference`,
    with SMs of a repeated signature cloned where exact."""
    prep = prep_for(sim)
    result = TimingResult()
    cfg = sim.config
    blocks = sim.trace.blocks
    n_sms = min(cfg.num_sms, max(1, len(blocks)))
    result.sms_used = n_sms
    per_sm: List[List[BlockTrace]] = [[] for _ in range(n_sms)]
    for i, block in enumerate(blocks):
        per_sm[i % n_sms].append(block)

    sm_sigs = [
        prep.sm_signature(sm_id, per_sm[sm_id]) for sm_id in range(n_sms)
    ]
    sig_counts = Counter(sm_sigs)
    seen: Dict[tuple, _SMRecord] = {}
    sm_cycles: List[int] = []
    n_cloned = n_rejected = 0
    for sm_id in range(n_sms):
        sig = sm_sigs[sm_id]
        rec = seen.get(sig)
        if rec is not None:
            if _try_clone(sim, rec, per_sm[sm_id], result):
                n_cloned += 1
                sm_cycles.append(rec.cycles)
                continue
            n_rejected += 1
        cycles, smrec = _run_sm(
            sim, prep, sm_id, per_sm[sm_id], result, sig_counts[sig] > 1
        )
        if smrec is not None:
            seen[sig] = smrec
        sm_cycles.append(cycles)

    kname = sim.kernel.name
    obs.inc("dedup.sms.simulated", n_sms - n_cloned, kernel=kname)
    if n_cloned:
        obs.inc("dedup.sms.cloned", n_cloned, kernel=kname)
    if n_rejected:
        obs.inc("dedup.clone_rejects", n_rejected, kernel=kname)
    obs.inc("dedup.signatures", len(sig_counts), kernel=kname)

    result.cycles = max(sm_cycles) if sm_cycles else 0
    result.l2 = sim.l2.stats
    static = cfg.energy.static_pj_per_sm_cycle * result.cycles * n_sms
    result.energy.add("static", static)
    return result


def _run_sm(
    sim,
    prep: _Prep,
    sm_id: int,
    blocks: List[BlockTrace],
    result: TimingResult,
    record: bool,
) -> Tuple[int, Optional[_SMRecord]]:
    """Simulate one SM.  With ``record`` set, also return the
    :class:`_SMRecord` that later SMs of the same signature clone."""
    if not blocks:
        return 0, None
    cfg = sim.config
    policy = sim.policy
    l1 = Cache(cfg.l1)
    hierarchy = MemoryHierarchy(l1, sim.l2, cfg.latency)
    resident = sim.resident_blocks_limit()
    n_sched = cfg.num_schedulers
    n_regs = prep.n_regs
    do_scalar_pass = prep.any_scalar
    use_gto = cfg.scheduler_policy == "gto"
    e_l2_pj = cfg.energy.l2_access_pj
    e_dram_pj = cfg.energy.dram_access_pj
    # component -> this SM's increments in issue order (see _fold)
    energy: Dict[str, List[float]] = defaultdict(list)

    if record:
        pre_simd = result.issued_simd
        pre_scalar = result.issued_scalar
        pre_skipped = result.skipped
        pre_threads = result.thread_ops
        pre_prologue = result.prologue_cycles
        pre_dram = result.dram_accesses
        memlog: Optional[list] = []
    else:
        memlog = None

    prologue = policy.sm_prologue_cycles(sm_id)
    result.prologue_cycles += prologue

    pending = list(blocks)
    scheds: List[List[_EW]] = [[] for _ in range(n_sched)]
    slot_counter = 0
    active_count = 0
    nlive = 0
    bseq_counter = 0

    def activate_block(now: int) -> None:
        nonlocal slot_counter, active_count, nlive, bseq_counter
        block_trace = pending.pop(0)
        bseq = bseq_counter
        bseq_counter += 1
        bprologue, groups = prep.block_info[id(block_trace)]
        result.prologue_cycles += bprologue
        start = now + bprologue
        fb = _EB()
        for wpos, wtrace in enumerate(block_trace.warps):
            grp = groups[wpos]
            ew = _EW(slot_counter, fb, grp, wtrace.records, n_regs,
                     bseq, wpos)
            ew.start = start
            slot_counter += 1
            # Leading skip run (mirrors _advance_skips at activation).
            n_sk = grp.skip_count[0] if grp.n else 0
            if n_sk:
                reg = ew.reg
                for dst in grp.skip_dsts[0]:
                    reg[dst] = start
                result.skipped += n_sk
                ew.idx = grp.skip_next[0]
                if ew.idx >= grp.n:
                    ew.done = True
            if not ew.done:
                fb.warps.append(ew)
                scheds[ew.slot % n_sched].append(ew)
                nlive += 1
                _refresh(ew)
        fb.remaining = len(fb.warps)
        if fb.remaining:
            active_count += 1

    t = prologue
    while pending and active_count < resident:
        activate_block(t)
    lsu_free = t
    last_issued: List[Optional[_EW]] = [None] * n_sched
    rr_cursor = [0] * n_sched

    def finish(w: _EW, now: int) -> None:
        nonlocal active_count, nlive
        grp = w.grp
        i = w.idx + 1
        n_sk = grp.skip_count[i]
        if n_sk:
            t1 = now + 1
            reg = w.reg
            for dst in grp.skip_dsts[i]:
                reg[dst] = t1
            result.skipped += n_sk
            i = grp.skip_next[i]
        w.idx = i
        if i >= grp.n:
            w.done = True
            w.rt = _FAR
            w.nsc = False
            scheds[w.slot % n_sched].remove(w)
            nlive -= 1
            fb = w.fb
            fb.remaining -= 1
            if fb.remaining == 0:
                active_count -= 1
                if pending:
                    activate_block(now + 1)
        else:
            _refresh(w)

    def issue(w: _EW, now: int) -> None:
        nonlocal lsu_free
        grp = w.grp
        i = w.idx
        for key, pj in grp.eadds[i]:
            energy[key].append(pj)
        kind = grp.kind[i]
        if kind == _K_SCALAR:
            result.issued_scalar += 1
            result.thread_ops += 1
            dst = grp.dst[i]
            if dst >= 0:
                w.reg[dst] = now + grp.lat[i] + grp.extra[i]
            finish(w, now)
            return
        result.issued_simd += 1
        result.thread_ops += grp.active[i]
        if kind == _K_BARRIER:
            fb = w.fb
            fb.barrier_count += 1
            if fb.barrier_count >= fb.remaining:
                fb.barrier_count = 0
                t1 = now + 1
                for x in fb.warps:
                    if not x.done:
                        x.at_bar = False
                        if x.bu < t1:
                            x.bu = t1
                        if x is not w:
                            _refresh(x)
            else:
                w.at_bar = True
            finish(w, now)
            return
        if kind == _K_GMEM:
            rec = w.recs[i]
            start = now if now > lsu_free else lsu_free
            lsu_free = start + grp.lsu_slots[i]
            acc = hierarchy.access(rec.lines, is_store=grp.is_store[i])
            completion = start + acc.latency + grp.extra[i]
            result.dram_accesses += acc.dram_accesses
            n_l2 = grp.n_lines[i] - acc.l1_hits
            energy["l2"].append(e_l2_pj * (n_l2 if n_l2 > 0 else 0))
            energy["dram"].append(e_dram_pj * acc.dram_accesses)
            if memlog is not None:
                memlog.append((
                    w.bseq, w.wpos, i, acc.l1_hits, acc.l2_hits,
                    acc.dram_accesses, grp.is_store[i],
                ))
        else:  # _K_SMEM and _K_ALU share the static-latency shape
            completion = now + grp.lat[i] + grp.extra[i]
        dst = grp.dst[i]
        if dst >= 0:
            w.reg[dst] = completion
        finish(w, now)

    def issue_quick(w: _EW, now: int) -> None:
        """Burst-path issue: non-memory, non-barrier, and guaranteed by
        the caller not to complete the warp (so no block bookkeeping)."""
        grp = w.grp
        i = w.idx
        for key, pj in grp.eadds[i]:
            energy[key].append(pj)
        if grp.kind[i] == _K_SCALAR:
            result.issued_scalar += 1
            result.thread_ops += 1
        else:
            result.issued_simd += 1
            result.thread_ops += grp.active[i]
        dst = grp.dst[i]
        if dst >= 0:
            w.reg[dst] = now + grp.lat[i] + grp.extra[i]
        j = i + 1
        n_sk = grp.skip_count[j]
        if n_sk:
            t1 = now + 1
            reg = w.reg
            for dst2 in grp.skip_dsts[j]:
                reg[dst2] = t1
            result.skipped += n_sk
            j = grp.skip_next[j]
        w.idx = j
        _refresh(w)

    def burst(w: _EW, t: int, horizon: int) -> int:
        """Retire consecutive records of ``w`` while it is the only
        schedulable warp on the SM (every other ready time is
        ``>= horizon``).  Stops before the clock reaches ``horizon``,
        before a global-memory or barrier record (shared LSU / block
        state), and before the record whose issue would complete the
        warp (block-retirement bookkeeping) — those hand back to the
        main loop with the clock positioned exactly where the reference
        loop would have it."""
        grp = w.grp
        sched = w.slot % n_sched
        simd_issued = False
        while True:
            i = w.idx
            k = grp.kind[i]
            if (
                k == _K_GMEM
                or k == _K_BARRIER
                or grp.skip_next[i + 1] >= grp.n
            ):
                break
            rt = w.rt
            nt = rt if rt > t else t
            if nt >= horizon:
                break
            t = nt
            was_scalar = w.nsc
            issue_quick(w, t)
            if was_scalar:
                # The reference's SIMD pass runs in the same cycle after
                # the scalar pass and may co-issue the next record.
                j = w.idx
                if not w.nsc and w.rt <= t:
                    kj = grp.kind[j]
                    if (
                        kj == _K_GMEM
                        or kj == _K_BARRIER
                        or grp.skip_next[j + 1] >= grp.n
                    ):
                        # The reference would co-issue this record in
                        # cycle t; hand the half-finished cycle back to
                        # the main loop (its SIMD pass at the same t
                        # issues it with full bookkeeping).
                        if simd_issued:
                            last_issued[sched] = w
                        if not use_gto:
                            rr_cursor[sched] = 0
                        return t
                    issue_quick(w, t)
                    simd_issued = True
            else:
                simd_issued = True
            t += 1
        if simd_issued:
            last_issued[sched] = w
        if not use_gto:
            # Reference cursor arithmetic with a single-warp filtered
            # list lands on 0 after every successful pick; bursts only
            # run under round-robin when the warp is alone in its
            # scheduler partition.
            rr_cursor[sched] = 0
        return t

    def pick(lst: List[_EW], sched: int, want: bool) -> Optional[_EW]:
        if use_gto:
            last = last_issued[sched]
            if (
                last is not None
                and not last.done
                and not last.at_bar
                and last.nsc == want
                and last.rt <= t
            ):
                return last
            for w in lst:
                if w.nsc == want and w.rt <= t:
                    return w
            return None
        # Round-robin: the reference filters live warps per pass and
        # indexes its cursor into that ephemeral list.
        mine = [w for w in lst if w.nsc == want]
        if not mine:
            return None
        n = len(mine)
        start = rr_cursor[sched] % n
        for k in range(n):
            w = mine[(start + k) % n]
            if w.rt <= t:
                rr_cursor[sched] = (start + k + 1) % n
                return w
        return None

    while nlive or pending:
        if not nlive:
            activate_block(t + 1)
            continue
        # Two smallest cached ready times across the SM decide the next
        # step: jump, burst, or a full reference-order issue pass.
        w1 = None
        m1 = _FAR
        m2 = _FAR
        for lst in scheds:
            for w in lst:
                rt = w.rt
                if rt < m1:
                    m2 = m1
                    m1 = rt
                    w1 = w
                elif rt < m2:
                    m2 = rt
        if m1 > t:
            # Nothing can issue this cycle: the reference loop's pick
            # passes come up empty and it jumps to the next event.
            if m1 >= _FAR:
                t += 1
                continue
            t = m1
        if m2 > t:
            i = w1.idx
            grp = w1.grp
            k = grp.kind[i]
            if (
                k != _K_GMEM
                and k != _K_BARRIER
                and grp.skip_next[i + 1] < grp.n
                and (use_gto or len(scheds[w1.slot % n_sched]) == 1)
            ):
                t = burst(w1, t, m2)
                continue
        issued_any = False
        for sched in range(n_sched):
            lst = scheds[sched]
            if do_scalar_pass:
                w = pick(lst, sched, True)
                if w is not None:
                    issue(w, t)
                    issued_any = True
            w = pick(lst, sched, False)
            if w is not None:
                issue(w, t)
                last_issued[sched] = w
                issued_any = True
        if nlive == 0 and pending:
            activate_block(t + 1)
        if issued_any:
            t += 1
        elif nlive:
            nxt = _FAR
            for lst in scheds:
                for w in lst:
                    rt = w.rt
                    if t < rt < nxt:
                        nxt = rt
            t = nxt if nxt < _FAR else t + 1
    result.l1.merge(l1.stats)
    _fold(result.energy.values, energy.items())
    if not record:
        return t, None
    smrec = _SMRecord()
    smrec.cycles = t
    smrec.d_simd = result.issued_simd - pre_simd
    smrec.d_scalar = result.issued_scalar - pre_scalar
    smrec.d_skipped = result.skipped - pre_skipped
    smrec.d_threads = result.thread_ops - pre_threads
    smrec.d_prologue = result.prologue_cycles - pre_prologue
    smrec.d_dram = result.dram_accesses - pre_dram
    smrec.l1_accesses = l1.stats.accesses
    smrec.l1_hits = l1.stats.hits
    smrec.energy = tuple(energy.items())
    smrec.memlog = memlog
    return t, smrec
