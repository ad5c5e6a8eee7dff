"""Event-driven timing engine for :class:`~repro.sim.timing.TimingSimulator`.

Bit-identical to :meth:`TimingSimulator.run_reference` — same cycles,
instruction counters, cache statistics, and the same per-component
float-addition sequence for energy (key order included) — on any
trace, scheduler, and issue policy.  Three layers:

**SM cloning.**  SMs receive round-robin slices of the block list; on
regular kernels those slices have identical signature sequences
(:meth:`_Prep.sm_signature`).  The first SM of a repeated signature is
simulated with recording on: its global-memory accesses in issue order
with their L1/L2/DRAM outcomes, its cycles, and its stretch of the
issue log.  A later SM with the same signature only replays those
accesses against a fresh L1 and the real shared L2.  If every load and
atomic resolves to the representative's outcome, the SM's dynamics are
provably identical: a store may resolve differently, because it writes
no register and its LSU slots depend only on its line count.  The clone
then commits the representative's cycles and issue log with its own
DRAM count, L1 statistics and ``l2``/``dram`` line counts, without
re-simulating; the L2 content evolution stays exact because the replay
performs the very accesses a full simulation would.  On a load or
atomic mismatch the L2 sets the replay touched are rolled back and the
SM is simulated in full.

**Record-stream precompilation.**  The signature pass (:class:`_Prep`)
keys each warp by the bytes of its rows of seven columns — ``pc``,
``active``, ``shared``, ``bank_conflict``, the line count, and the
issue plan's mode and extra latency — and flattens each distinct key
into per-record tables — latency class, dense source/dest register
slots, issue mode, extra latency, memory-line counts,
bank-conflict-adjusted latencies, barrier flags, skip runs, and the id
of the precompiled row, which holds the exact energy additions — so the
inner loop indexes integers instead of walking ``Instruction`` operands
and calling ``source_regs()`` per issue.  Only global-memory records
read their actual lines, from the trace's flat ``lines`` column.

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
the only warp the reference could have issued in that interval.  The
scan stops at the second warp ready now: then neither a jump nor a
burst can apply.

Both this engine and the reference loop probe the same cache model
(``sim/caches.py``, one LRU-ordered dict per set), one line at a time.

Energy stays exact across clones because no issue adds into the
running totals: each appends its row id to one issue log per replay
(:class:`_IssueLog`), in the reference loop's order, and :func:`_fold`
sums each component's increments from that log once the replay ends.
A clone appends its representative's stretch of the log again, with
its own ``l2``/``dram`` line counts.  The issue counters need no
per-SM bookkeeping: every row issues or skips exactly once, so
:func:`run_fast` reduces them from the issue plan.  Because energy and
the counters come from the log and the plan, one replay can also cost
*ledger* policies (``TimingSimulator(ledgers=…)``) whose plans issue
the replay's ``SCALAR_INLINE`` rows as SIMD ALU ops — same slot, same
latency — as DARSIE's plan does DARSIE+Scalar's.  This is the
production engine of :meth:`TimingSimulator.run`; under
``R2D2_VERIFY=1`` every replay runs this engine *and* the reference loop
and asserts equality field by field (:meth:`TimingSimulator.run_verify`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .caches import Cache, MemoryHierarchy
from .timing import EnergyBreakdown, IssueMode, TimingResult, _latency_of
from .trace import BlockTrace

_FAR = 1 << 60

# Record kinds, mirroring the branch structure of
# ``TimingSimulator._issue`` (scalar-pipeline records complete like ALU
# ones).
_K_BARRIER = 0
_K_GMEM = 1
_K_SMEM = 2
_K_ALU = 3
_K_SKIP = 4

#: Issue-log entries :func:`_fold` gathers per numpy pass, which bounds
#: its transient arrays whatever the launch size.
_FOLD_SLICE = 1 << 16


class _SigGroup:
    """Per-record static issue tables shared by all warps of one
    signature."""

    __slots__ = (
        "n",
        "kind",
        "lat",
        "extra",
        "dst",
        "srcs",
        "row",
        "lsu_slots",
        "n_lines",
        "is_store",
        "next_scalar",
        "skip_next",
        "skip_dsts",
        "has_scalar",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.kind: List[int] = []
        self.lat: List[int] = []
        self.extra: List[int] = []
        self.dst: List[int] = []
        self.srcs: List[Tuple[int, ...]] = []
        #: per record: the id of its precompiled row (``_Prep.rows``),
        #: which an issue appends to the issue log.
        self.row: List[int] = []
        self.lsu_slots: List[int] = []
        self.n_lines: List[int] = []
        self.is_store: List[bool] = []
        self.next_scalar: List[bool] = []
        self.skip_next: List[int] = []
        self.skip_dsts: List[Tuple[int, ...]] = []
        self.has_scalar = False


#: Energy shape of a scalar-pipeline issue (see :func:`_build_row`).
_SCALAR_SHAPE = (("fetch", 1), ("scalar", 1), ("rf", 1))

#: Energy shapes by value, so that equal shapes are one object.
_SHAPES: Dict[tuple, tuple] = {}


def _pc_static(instr, prep: "_Prep") -> tuple:
    """The parts of an issue row that depend only on the instruction:
    register slots, the energy every SIMD issue adds (see
    :func:`_build_row`) with the energy shapes of its barrier, global,
    shared and ALU rows (one object per distinct shape, whatever the
    pc), the lane-energy rate, and the ALU latency."""
    e = prep.cfg.energy
    dst = instr.dst
    src_regs = instr.source_regs()
    rf = (e.rf_read_pj * len(src_regs),)
    if dst is not None:
        rf += (e.rf_write_pj,)
    if instr.opcode in prep.sfu_opcodes:
        lane = ("sfu", e.sfu_lane_pj)
    elif instr.dtype.is_float:
        lane = ("alu", e.float_lane_pj)
    else:
        lane = ("alu", e.int_lane_pj)
    base = (("fetch", 1), ("rf", len(rf)))
    shapes = tuple(_SHAPES.setdefault(shape, shape) for shape in (
        base,
        base + (("l1", 1), ("l2", 0), ("dram", 0)),
        base + (("shared", 1),),
        base + ((lane[0], 1),),
    ))
    return (
        prep.reg_ids[dst.name] if dst is not None else -1,
        tuple(dict.fromkeys(prep.reg_ids[r.name] for r in src_regs)),
        (shapes, (e.fetch_decode_pj,) + rf),
        lane[1],
        _latency_of(instr, prep.cfg.latency),
    )


def _build_row(key: tuple, prep: "_Prep") -> tuple:
    """Static issue row for one record key ``(pc, active, shared,
    bank_conflict, n_lines, mode, extra)``: its timing fields, with the
    energy the reference loop adds when it issues at index 5 as
    ``(shape, values)``: ``shape`` names each component in first-use
    order with its number of additions, and ``values`` holds those
    additions in order.  A global access's ``l2`` and ``dram`` shapes
    are empty: their values come from its outcome (:func:`_fold`).

    A row depends only on the 7-tuple record key (never on the
    surrounding signature), so it is built once per key and numbered
    (``prep.row_ids``): divergent kernels produce thousands of distinct
    *signatures* built from a few dozen distinct *record keys*, and
    rebuilding rows per group used to dominate the precompilation pass.
    """
    cfg = prep.cfg
    e = cfg.energy
    pc, active, shared, bank_conflict, n_lines, mode, extra = key
    instr = prep.instrs[pc]
    dst_id, src_ids, (shapes, vals), lane_pj, alu_lat = prep.pc_static[pc]
    next_scalar = mode == IssueMode.SCALAR

    if mode == IssueMode.SKIP:
        return (
            _K_SKIP, 0, extra, dst_id, src_ids, ((), ()),
            0, n_lines, instr.is_store, next_scalar, False,
        )
    if mode in (IssueMode.SCALAR, IssueMode.SCALAR_INLINE):
        energy = (
            _SCALAR_SHAPE,
            (e.fetch_decode_pj, e.scalar_op_pj, e.rf_read_pj + e.rf_write_pj),
        )
        return (
            _K_ALU, alu_lat, extra, dst_id,
            src_ids, energy, 0, n_lines, instr.is_store, next_scalar,
            mode == IssueMode.SCALAR,
        )

    lsu = 0
    if instr.is_barrier:
        kind, latv = _K_BARRIER, 0
        shape = shapes[0]
    elif instr.is_global_memory and n_lines:
        kind, latv = _K_GMEM, 0
        lsu = max(1, n_lines // cfg.mem_ports_per_sm)
        shape = shapes[1]
        vals += (e.l1_access_pj * n_lines,)
    elif instr.is_shared_memory or shared:
        kind = _K_SMEM
        latv = cfg.latency.shared_mem + max(0, bank_conflict - 1)
        shape = shapes[2]
        vals += (e.shared_access_pj * active,)
    else:
        kind, latv = _K_ALU, alu_lat
        shape = shapes[3]
        vals += (lane_pj * active,)
    return (
        kind, latv, extra, dst_id, src_ids, (shape, vals),
        lsu, n_lines, instr.is_store, next_scalar, False,
    )


def _build_group(keys: np.ndarray, prep: "_Prep") -> _SigGroup:
    """Tables for one signature, from its ``(n, 7)`` key rows."""
    grp = _SigGroup(len(keys))
    row_ids, all_rows = prep.row_ids, prep.rows
    rows = []
    for key in map(tuple, keys.tolist()):
        rid = row_ids.get(key)
        if rid is None:
            rid = row_ids[key] = len(all_rows)
            all_rows.append(_build_row(key, prep))
        grp.row.append(rid)
        rows.append(all_rows[rid])
    (
        grp.kind,
        grp.lat,
        grp.extra,
        grp.dst,
        grp.srcs,
        _,
        grp.lsu_slots,
        grp.n_lines,
        grp.is_store,
        grp.next_scalar,
        scalar_modes,
    ) = map(list, zip(*rows)) if rows else ([] for _ in range(11))
    grp.has_scalar = any(scalar_modes)

    # Maximal skip runs from every position (mirrors ``_advance_skips``):
    # ``skip_next[i]`` is the first non-SKIP index at or after i,
    # ``skip_dsts[i]`` the destination slots written while skipping.
    n = grp.n
    grp.skip_dsts = [()] * (n + 1)
    if _K_SKIP not in grp.kind:
        grp.skip_next = list(range(n + 1))
        return grp
    grp.skip_next = [0] * (n + 1)
    grp.skip_next[n] = n
    for i in range(n - 1, -1, -1):
        if grp.kind[i] == _K_SKIP:
            grp.skip_next[i] = grp.skip_next[i + 1]
            dst = grp.dst[i]
            if dst >= 0:
                grp.skip_dsts[i] = (dst,) + grp.skip_dsts[i + 1]
            else:
                grp.skip_dsts[i] = grp.skip_dsts[i + 1]
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
        #: record key -> row id, and row id -> static issue row; rows
        #: are shared across groups.
        self.row_ids: Dict[tuple, int] = {}
        self.rows: List[tuple] = []
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
        self.pc_static = [_pc_static(instr, self) for instr in self.instrs]

        cols = sim.trace.cols
        #: flat line addresses and per-row offsets, for global records
        self.line_off: List[int] = cols.line_off.tolist()
        self.lines: List[int] = cols.lines.tolist()
        modes, extra = sim.issue_plan()
        keys = np.empty((len(cols), 7), dtype=np.int32)
        for j, col in enumerate((
            cols.pc, cols.active, cols.shared, cols.bank_conflict,
            cols.n_lines, modes, extra,
        )):
            keys[:, j] = col

        groups_by_key: Dict[bytes, Tuple[_SigGroup, int]] = {}
        #: block id -> (prologue cycles, per-warp _SigGroup list)
        self.block_info: Dict[int, Tuple[int, List[_SigGroup]]] = {}
        self.block_sig: Dict[int, tuple] = {}
        self.any_scalar = False
        policy = sim.policy
        for block in sim.trace.blocks:
            bprologue = policy.block_prologue_cycles(block)
            groups: List[_SigGroup] = []
            wsigs: List[int] = []
            for warp in block.warps:
                wkeys = keys[warp.start:warp.stop]
                kb = wkeys.tobytes()
                entry = groups_by_key.get(kb)
                if entry is None:
                    grp = _build_group(wkeys, self)
                    entry = groups_by_key[kb] = (grp, len(groups_by_key))
                    self.any_scalar = self.any_scalar or grp.has_scalar
                groups.append(entry[0])
                wsigs.append(entry[1])
            self.block_info[id(block)] = (bprologue, groups)
            self.block_sig[id(block)] = (bprologue, tuple(wsigs))
        self.n_groups = len(groups_by_key)

    def sm_signature(self, sm_id: int, blocks: List[BlockTrace]) -> tuple:
        return (
            self.policy.sm_prologue_cycles(sm_id),
            tuple(self.block_sig[id(b)] for b in blocks),
        )


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
    ``base`` is the warp's first row in the trace columns and
    ``bseq``/``wpos`` locate the warp for the clone log."""

    __slots__ = (
        "slot",
        "fb",
        "grp",
        "base",
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

    def __init__(self, slot: int, fb: "_EB", grp: _SigGroup, base: int,
                 n_regs: int, bseq: int, wpos: int) -> None:
        self.slot = slot
        self.fb = fb
        self.grp = grp
        self.base = base
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
    """Everything needed to clone an SM without re-simulating it:
    ``rows[lo:hi]`` of the issue log are its issues."""

    __slots__ = ("cycles", "d_prologue", "lo", "hi", "memlog")


class _IssueLog:
    """One replay's issues in the reference loop's order (SM by SM, in
    issue order within an SM): each issue's row id, and per global
    access the L2 and DRAM line counts its ``l2``/``dram`` energy
    comes from."""

    __slots__ = ("rows", "l2", "dram")

    def __init__(self) -> None:
        self.rows: List[int] = []
        self.l2: List[int] = []
        self.dram: List[int] = []


def _slots(energy: Sequence[tuple]) -> tuple:
    """One ledger's per-row energy (``(shape, values)`` pairs, see
    :func:`_build_row`) as a table: ``index[component]`` lists the table
    rows of its addition slots, and ``table[slot, r]`` is row ``r``'s
    increment there (0.0 where the row makes fewer).  Rows sharing one
    shape object (:data:`_SHAPES`) share one slot layout, so set-up
    costs a few list appends per row and one numpy scatter."""
    index: Dict[str, List[int]] = {}
    layouts: Dict[int, List[int]] = {}
    slot_of: List[int] = []
    widths: List[int] = []
    vals: List[float] = []
    n_slots = 0
    for shape, values in energy:
        cols = layouts.get(id(shape))
        if cols is None:
            cols = layouts[id(shape)] = []
            for key, count in shape:
                slots = index.setdefault(key, [])
                while len(slots) < count:
                    slots.append(n_slots)
                    n_slots += 1
                cols += slots[:count]
        slot_of += cols
        widths.append(len(cols))
        vals += values
    table = np.zeros((n_slots, len(energy)))
    table[slot_of, np.repeat(np.arange(len(energy)), widths)] = vals
    return index, table


def _fold(ledgers: Sequence[Sequence[tuple]], gmem: Sequence[bool],
          log: _IssueLog, e) -> List[Dict[str, float]]:
    """Each ledger's energy totals from one issue log.

    ``ledgers[k][r]`` holds row ``r``'s energy under ledger ``k`` (see
    :func:`_build_row`), and a ``gmem[r]`` row adds ``l2`` and ``dram``
    energy from the log's line counts.  Each component's increments are
    gathered in log order, a slice at a time, and summed by
    ``np.add.accumulate`` from the running total: it adds strictly left
    to right, the reference loop's exact float sequence, where
    ``np.sum`` would add pairwise.  A row without an addition to a
    component pads with zeros, which leave every partial sum
    unchanged."""
    tables = [_slots(energy) for energy in ledgers]
    # Components enter each dict in the order the log first uses them,
    # as in the reference's dict: walk the log's rows in first-issue
    # order until every ledger has met all its components (every row
    # of the replay issues, usually all within the first warps).
    order: List[Dict[str, None]] = [{} for _ in ledgers]
    left = sum(len(index) for index, _ in tables)
    met = set()
    for r in log.rows:
        if r in met:
            continue
        met.add(r)
        for energy, keys in zip(ledgers, order):
            for key, _ in energy[r][0]:
                if key not in keys:
                    keys[key] = None
                    left -= 1
        if not left:
            break

    is_mem = np.array(gmem, dtype=bool)
    totals: List[Dict[str, float]] = [dict.fromkeys(k, 0.0) for k in order]
    m = 0
    for a in range(0, len(log.rows), _FOLD_SLICE):
        chunk = log.rows[a:a + _FOLD_SLICE]
        ids = np.fromiter(chunk, dtype=np.intp, count=len(chunk))
        n_mem = int(np.count_nonzero(is_mem[ids]))
        per_access = {
            key: pj * np.array(counts[m:m + n_mem], dtype=np.float64)
            for key, pj, counts in (("l2", e.l2_access_pj, log.l2),
                                    ("dram", e.dram_access_pj, log.dram))
        }
        m += n_mem
        for (index, table), tot in zip(tables, totals):
            for key in tot:
                slots = index[key]
                if key in per_access:
                    vals = per_access[key].copy()
                elif len(slots) == 1:
                    vals = table[slots[0]][ids]
                else:
                    vals = table[slots][:, ids].T.ravel()
                if len(vals):
                    vals[0] += tot[key]
                    tot[key] = float(np.add.accumulate(vals)[-1])
    return totals


def _ledger(sim, prep: _Prep, policy) -> Tuple[np.ndarray, List[tuple]]:
    """A ledger policy's issue modes and per-row energy additions.

    The ledger's plan must be the replay's with every ``SCALAR_INLINE``
    row issued SIMD, and each such row must then be an ALU op of the
    same timing (``_build_row`` twins equal but for their energy):
    every issue takes the same slot and latency under both plans, so the
    replay serves the ledger and only energy and the issue counters
    differ.  Anything else raises ``ValueError``."""
    modes, extra = policy.plan(sim.trace)
    rmodes, rextra = sim.issue_plan()
    inline = rmodes == IssueMode.SCALAR_INLINE
    if not (
        np.array_equal(extra, rextra)
        and np.array_equal(modes, np.where(inline, IssueMode.SIMD, rmodes))
    ):
        raise ValueError(
            f"ledger {type(policy).__name__} differs from the replayed "
            "plan in more than SCALAR_INLINE -> SIMD"
        )
    energy = []
    for key, row in zip(prep.row_ids, prep.rows):
        if key[5] == IssueMode.SCALAR_INLINE:
            twin = _build_row(key[:5] + (IssueMode.SIMD,) + key[6:], prep)
            if twin[0] != _K_ALU or twin[:5] + twin[6:] != row[:5] + row[6:]:
                raise ValueError(
                    f"ledger {type(policy).__name__}: pc {key[0]} issued "
                    "SIMD is not an ALU op of the inline timing"
                )
            row = twin
        energy.append(row[5])
    return modes, energy


def _try_clone(sim, prep: _Prep, rec: _SMRecord,
               blocks: List[BlockTrace], result: TimingResult,
               log: _IssueLog) -> bool:
    """Replay the representative's memory accesses for a candidate clone.
    Every load and atomic must resolve to the representative's L1/L2/DRAM
    outcome, else the L2 sets the replay touched are rolled back and the
    clone fails.  A store may resolve differently: it writes no register
    and its LSU slots depend only on its line count, so the schedule,
    the cycles and every issue are the representative's.  The clone
    commits those with its own DRAM count, L1 stats and per-access
    ``l2``/``dram`` line counts, which in memlog order are its issue
    order."""
    cfg = sim.config
    l2 = sim.l2
    off, lines = prep.line_off, prep.lines
    rows = [blocks[b].warps[w].start + i for b, w, i, *_ in rec.memlog]
    snap = l2.snapshot(
        {l2.set_of(a) for r in rows for a in lines[off[r]:off[r + 1]]}
    )
    l1 = Cache(cfg.l1)
    hierarchy = MemoryHierarchy(l1, l2, cfg.latency)
    own_l2: List[int] = []
    own_dram: List[int] = []
    for r, (_, _, _, want_l1, want_l2, want_dram, is_store) in zip(
        rows, rec.memlog
    ):
        acc = hierarchy.access(lines[off[r]:off[r + 1]], is_store=is_store)
        if not is_store and (
            acc.l1_hits != want_l1
            or acc.l2_hits != want_l2
            or acc.dram_accesses != want_dram
        ):
            l2.restore(snap)
            return False
        n_l2 = off[r + 1] - off[r] - acc.l1_hits
        own_l2.append(n_l2 if n_l2 > 0 else 0)
        own_dram.append(acc.dram_accesses)
    result.prologue_cycles += rec.d_prologue
    result.dram_accesses += sum(own_dram)
    result.l1.merge(l1.stats)
    log.rows += log.rows[rec.lo:rec.hi]
    log.l2 += own_l2
    log.dram += own_dram
    return True


def run_fast(sim) -> TimingResult:
    """Event-driven equivalent of :meth:`TimingSimulator.run_reference`,
    with SMs of a repeated signature cloned where exact.  Each of
    ``sim.ledgers`` gets its result, costed from the same replay, in
    the returned result's ``ledgers``."""
    prep = prep_for(sim)
    ledgers = [(sim.issue_plan()[0], [row[5] for row in prep.rows])]
    ledgers += [_ledger(sim, prep, policy) for policy in sim.ledgers]
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
    log = _IssueLog()
    n_cloned = n_rejected = 0
    for sm_id in range(n_sms):
        sig = sm_sigs[sm_id]
        rec = seen.get(sig)
        if rec is not None:
            if _try_clone(sim, prep, rec, per_sm[sm_id], result, log):
                n_cloned += 1
                sm_cycles.append(rec.cycles)
                continue
            n_rejected += 1
        cycles, smrec = _run_sm(
            sim, prep, sm_id, per_sm[sm_id], result, log,
            sig_counts[sig] > 1,
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
    result.l2 = replace(sim.l2.stats)
    static = cfg.energy.static_pj_per_sm_cycle * result.cycles * n_sms
    gmem = [row[0] == _K_GMEM for row in prep.rows]
    energies = _fold([energy for _, energy in ledgers], gmem, log,
                     cfg.energy)
    active = sim.trace.cols.active
    out = []
    for (modes, _), energy in zip(ledgers, energies):
        res = replace(result, l1=replace(result.l1), l2=replace(result.l2),
                      ledgers=[])
        # Every row issues or skips exactly once, on whichever SM, so
        # the issue counters are reductions of the plan.
        n_mode = np.bincount(modes, minlength=len(IssueMode)).tolist()
        res.issued_simd = n_mode[IssueMode.SIMD]
        res.issued_scalar = (
            n_mode[IssueMode.SCALAR] + n_mode[IssueMode.SCALAR_INLINE]
        )
        res.skipped = n_mode[IssueMode.SKIP]
        res.thread_ops = res.issued_scalar + int(
            active[modes == IssueMode.SIMD].sum(dtype=np.int64)
        )
        res.energy = EnergyBreakdown(energy)
        res.energy.add("static", static)
        out.append(res)
    out[0].ledgers = out[1:]
    return out[0]


def _run_sm(
    sim,
    prep: _Prep,
    sm_id: int,
    blocks: List[BlockTrace],
    result: TimingResult,
    log: _IssueLog,
    record: bool,
) -> Tuple[int, Optional[_SMRecord]]:
    """Simulate one SM, appending its issues to ``log``.  With
    ``record`` set, also return the :class:`_SMRecord` that later SMs
    of the same signature clone."""
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
    line_off, lines = prep.line_off, prep.lines
    log_row = log.rows.append
    log_l2 = log.l2.append
    log_dram = log.dram.append
    log_lo = len(log.rows)

    pre_prologue = result.prologue_cycles
    memlog: Optional[list] = [] if record else None

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
            ew = _EW(slot_counter, fb, grp, wtrace.start, n_regs,
                     bseq, wpos)
            ew.start = start
            slot_counter += 1
            # Leading skip run (mirrors _advance_skips at activation).
            for dst in grp.skip_dsts[0]:
                ew.reg[dst] = start
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
        for dst in grp.skip_dsts[i]:
            w.reg[dst] = now + 1
        w.idx = i = grp.skip_next[i]
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
        log_row(grp.row[i])
        kind = grp.kind[i]
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
            r = w.base + i
            start = now if now > lsu_free else lsu_free
            lsu_free = start + grp.lsu_slots[i]
            acc = hierarchy.access(
                lines[line_off[r]:line_off[r + 1]], is_store=grp.is_store[i]
            )
            completion = start + acc.latency + grp.extra[i]
            result.dram_accesses += acc.dram_accesses
            n_l2 = grp.n_lines[i] - acc.l1_hits
            log_l2(n_l2 if n_l2 > 0 else 0)
            log_dram(acc.dram_accesses)
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
        log_row(grp.row[i])
        reg = w.reg
        dst = grp.dst[i]
        if dst >= 0:
            reg[dst] = now + grp.lat[i] + grp.extra[i]
        for dst in grp.skip_dsts[i + 1]:
            reg[dst] = now + 1
        w.idx = grp.skip_next[i + 1]
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
        # step: jump, burst, or a full reference-order issue pass.  Once
        # two warps are ready at ``t`` only the full pass can apply, so
        # the scan stops there.
        w1 = None
        m1 = _FAR
        m2 = _FAR
        for lst in scheds:
            for w in lst:
                rt = w.rt
                if rt < m2:
                    if rt < m1:
                        m2 = m1
                        m1 = rt
                        w1 = w
                    else:
                        m2 = rt
                    if m2 <= t:
                        break
            if m2 <= t:
                break
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
    if not record:
        return t, None
    smrec = _SMRecord()
    smrec.cycles = t
    smrec.d_prologue = result.prologue_cycles - pre_prologue
    smrec.lo = log_lo
    smrec.hi = len(log.rows)
    smrec.memlog = memlog
    return t, smrec
