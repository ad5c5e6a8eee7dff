"""The R2D2 GPU architecture (paper Sections 3–4).

Per launch:

1. the kernel is transformed once (cached) by the R2D2 software pipeline;
2. the register-pressure check (Section 4.4) decides between the
   transformed stream and the original binary (the fallback);
3. the transformed stream's trace is the baseline trace with the removed
   pcs' rows left out (:meth:`KernelTrace.derive`).  That holds because
   the transformed kernel passed the translation check
   (:mod:`repro.transform.translation`) and the baseline launch passed
   the operand witness: every ``%lr``/``%cr`` operand, resolved by
   :class:`~repro.transform.values.R2D2Values`, equals the original
   operand on every active lane.  :meth:`R2D2Arch.execute_launch` runs
   the transformed stream itself, for runs where that proof fails and
   under ``R2D2_VERIFY=1``;
4. timing replays the trace with the R2D2 issue policy: an SM prologue
   models warp 0 computing coefficients on the scalar pipeline and the
   first block computing thread-index parts (round-robin issue, Section
   4.1); a per-block prologue models the block's first warp computing
   block-index parts; memory operations addressed through %lr pay the
   LD/ST-unit addition (and any Section 5.4 latency knobs);
5. the decoupled linear instructions are charged to instruction and
   energy statistics (Figures 14/15's linear fraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..isa.kernel import Kernel, LaunchConfig
from ..isa.operands import LinearRef, LinearRegOperand
from ..sim.config import GPUConfig
from ..sim.executor import Witness
from ..sim.gpu import Device, as_dim3
from ..sim.timing import IssueMode, IssuePolicy, TimingSimulator
from ..sim.trace import BlockTrace, KernelTrace
from ..transform.decouple import R2D2Kernel, r2d2_transform
from ..transform.values import R2D2Values
from .base import ArchStats, Architecture


@dataclass(frozen=True)
class LinearPhaseCounts:
    """Dynamic instruction counts of the decoupled linear blocks."""

    coef_per_sm: int
    thread_per_sm: int
    block_per_block: int
    sms_used: int
    n_blocks: int
    warps_per_block: int
    lanes_per_block_instr: int

    @property
    def coef_total(self) -> int:
        return self.coef_per_sm * self.sms_used

    @property
    def thread_total(self) -> int:
        return self.thread_per_sm * self.sms_used

    @property
    def block_total(self) -> int:
        return self.block_per_block * self.n_blocks

    @property
    def warp_total(self) -> int:
        return self.coef_total + self.thread_total + self.block_total


def uniform_rows(trace: KernelTrace, uniform_pcs) -> np.ndarray:
    """Per row of ``trace.cols``: its pc was promoted to the uniform
    datapath."""
    is_uniform = np.zeros(len(trace.kernel.instructions), dtype=bool)
    is_uniform[sorted(uniform_pcs)] = True
    return is_uniform[trace.cols.pc]


class _R2D2Policy(IssuePolicy):
    name = "r2d2"

    def __init__(
        self,
        rkernel: R2D2Kernel,
        counts: LinearPhaseCounts,
        config: GPUConfig,
    ) -> None:
        self.rkernel = rkernel
        self.counts = counts
        self.config = config
        self.instrs = rkernel.transformed.instructions
        lat = config.latency
        self._mem_extra = lat.r2d2_regid_extra + lat.r2d2_address_add
        self._reg_extra = lat.r2d2_regid_extra
        # Plans are a pure function of the static pc (same static
        # stream in every warp).
        self._pc_mode = np.full(len(self.instrs), IssueMode.SIMD, np.int8)
        self._pc_extra = np.zeros(len(self.instrs), dtype=np.int32)
        for pc, instr in enumerate(self.instrs):
            if pc in rkernel.uniform_pcs:
                self._pc_mode[pc] = IssueMode.SCALAR
            extra = 0
            for op in instr.srcs:
                if isinstance(op, LinearRef):
                    extra = max(extra, self._mem_extra)
                elif isinstance(op, LinearRegOperand):
                    extra = max(extra, self._reg_extra)
            self._pc_extra[pc] = extra

    # ------------------------------------------------------------------
    def plan(self, trace: KernelTrace):
        pc = trace.cols.pc
        return self._pc_mode[pc], self._pc_extra[pc]

    def sm_prologue_cycles(self, sm_id: int) -> int:
        lat = self.config.latency
        counts = self.counts
        # The starting-PC table is consulted once per instruction-block
        # redirect (Section 5.4's fetch-latency knob), not per
        # instruction.
        fetch = lat.r2d2_fetch_extra
        # Coefficients: pipelined on the scalar unit.
        coef = counts.coef_per_sm + (
            lat.alu + fetch if counts.coef_per_sm else 0
        )
        # Thread-index parts: all warps of the first block, issued
        # round-robin across the schedulers (Section 4.1).
        n_thread = counts.thread_per_sm
        sched = self.config.num_schedulers
        thread = (
            (n_thread + sched - 1) // sched
            + (lat.alu + fetch if n_thread else 0)
        )
        return coef + thread

    def block_prologue_cycles(self, block: BlockTrace) -> int:
        lat = self.config.latency
        n = self.counts.block_per_block
        if not n:
            return 0
        # mov + dependent mads by the block's first warp; one
        # starting-PC-table lookup for the redirect.
        return n + lat.alu + lat.r2d2_fetch_extra


class R2D2Arch(Architecture):
    """The proposed design.  A trace-analyzing architecture: it replays
    each baseline trace derived to the transformed kernel
    (:meth:`process_trace`), which is valid when the launch passed its
    operand witness (:meth:`witness`); :meth:`execute_launch` executes a
    transformed launch instead."""

    def __init__(
        self,
        max_entries: int = 16,
        group_shared_parts: bool = True,
        name: str = "r2d2",
    ) -> None:
        self.name = name
        self.max_entries = max_entries
        self.group_shared_parts = group_shared_parts
        self._transform_cache: Dict[int, R2D2Kernel] = {}

    def __setstate__(self, state: dict) -> None:
        # The cache is keyed by kernel identity, which an unpickled copy
        # (a ``--jobs`` worker's) must key anew.
        self.__dict__.update(state)
        self._transform_cache = {
            id(rk.original): rk for rk in self._transform_cache.values()
        }

    # ------------------------------------------------------------------
    def transform(self, kernel: Kernel) -> R2D2Kernel:
        key = id(kernel)
        cached = self._transform_cache.get(key)
        if cached is None:
            cached = r2d2_transform(
                kernel,
                max_entries=self.max_entries,
                group_shared_parts=self.group_shared_parts,
            )
            self._transform_cache[key] = cached
        return cached

    def launch_kernel(
        self, kernel: Kernel, launch: LaunchConfig, config: GPUConfig
    ) -> Optional[R2D2Kernel]:
        """The transformed kernel ``launch`` runs, or ``None`` when it
        runs the original binary: an empty plan, or the
        register-pressure fallback."""
        rkernel = self.transform(kernel)
        if rkernel.plan.is_empty() or not rkernel.fits(
            config, launch.threads_per_block
        ):
            return None
        return rkernel

    def witness(
        self, kernel: Kernel, grid, block, args, config: GPUConfig
    ) -> Optional[Witness]:
        """The operand witness the baseline launch of ``kernel`` must
        pass for :meth:`process_trace` to derive its trace, or ``None``
        for a fallback launch (its trace is the baseline's own).  Raises
        :class:`~repro.transform.translation.TranslationError` when the
        transformed kernel fails the translation check."""
        launch = LaunchConfig(
            grid=as_dim3(grid), block=as_dim3(block), args=tuple(args)
        )
        rkernel = self.launch_kernel(kernel, launch, config)
        if rkernel is None:
            return None
        sites = rkernel.translation().sites
        return Witness(R2D2Values(rkernel.plan, launch), sites)

    # ------------------------------------------------------------------
    def linear_phase_counts(
        self, rkernel: R2D2Kernel, launch: LaunchConfig, config: GPUConfig
    ) -> LinearPhaseCounts:
        blocks = rkernel.linear_blocks
        n_blocks = launch.num_blocks
        sms_used = min(config.num_sms, max(1, n_blocks))
        warps_per_block = (
            launch.threads_per_block + config.warp_size - 1
        ) // config.warp_size
        return LinearPhaseCounts(
            coef_per_sm=blocks.n_coef,
            thread_per_sm=blocks.n_thread * warps_per_block,
            block_per_block=blocks.n_block,
            sms_used=sms_used,
            n_blocks=n_blocks,
            warps_per_block=warps_per_block,
            lanes_per_block_instr=min(
                16, max(1, rkernel.plan.num_linear_registers)
            ),
        )

    # ------------------------------------------------------------------
    def process_trace(
        self,
        trace: KernelTrace,
        config: GPUConfig,
        stats: ArchStats,
        l2=None,
    ) -> None:
        """Replay one baseline launch as R2D2 runs it: its trace derived
        to the transformed kernel, or the trace itself on a fallback.
        A trace whose witness failed raises ``ValueError``: its launch
        must execute (:meth:`execute_launch`)."""
        if trace.witness is not None and not trace.witness.ok:
            raise ValueError(
                f"{trace.kernel.name}: operand witness failed "
                f"({trace.witness.failure}); execute the transformed "
                "launch instead"
            )
        stats.launches += 1
        rkernel, derived = self.derive(trace, config)
        if rkernel is None:
            self._replay_original(trace, config, stats, l2)
        else:
            self._replay_transformed(rkernel, derived, config, stats, l2)

    def derive(
        self, trace: KernelTrace, config: GPUConfig
    ) -> Tuple[Optional[R2D2Kernel], KernelTrace]:
        """The transformed kernel R2D2 runs for baseline ``trace``'s
        launch and the trace that leaves: ``trace`` with the removed
        pcs' rows left out, or ``(None, trace)`` on a fallback."""
        rkernel = self.launch_kernel(trace.kernel, trace.launch, config)
        if rkernel is None:
            return None, trace
        return rkernel, trace.derive(
            rkernel.transformed, rkernel.translation().new_pc
        )

    def execute_launch(
        self,
        device: Device,
        kernel: Kernel,
        grid,
        block,
        args,
        config: GPUConfig,
        stats: ArchStats,
        l2=None,
    ) -> KernelTrace:
        """Execute one launch as R2D2 runs it — the transformed kernel,
        or the original on a fallback — on ``device``, and replay its
        trace."""
        stats.launches += 1
        launch = LaunchConfig(
            grid=as_dim3(grid), block=as_dim3(block), args=tuple(args)
        )
        rkernel = self.launch_kernel(kernel, launch, config)
        if rkernel is None:
            trace = device.launch(kernel, grid, block, args)
            self._replay_original(trace, config, stats, l2)
            return trace
        values = R2D2Values(rkernel.plan, launch)
        trace = device.launch(
            rkernel.transformed, grid, block, args, linear_values=values
        )
        self._replay_transformed(rkernel, trace, config, stats, l2)
        return trace

    @staticmethod
    def _replay_original(
        trace: KernelTrace, config: GPUConfig, stats: ArchStats, l2
    ) -> None:
        stats.fallback_launches += 1
        stats.warp_instructions += trace.warp_instruction_count()
        stats.thread_instructions += trace.thread_instruction_count()
        timing = TimingSimulator(config, trace, l2=l2).run()
        stats.add_timing(timing)

    def _replay_transformed(
        self,
        rkernel: R2D2Kernel,
        trace: KernelTrace,
        config: GPUConfig,
        stats: ArchStats,
        l2,
    ) -> None:
        counts = self.linear_phase_counts(rkernel, trace.launch, config)
        policy = _R2D2Policy(rkernel, counts, config)
        timing = TimingSimulator(
            config,
            trace,
            policy=policy,
            l2=l2,
            regs_per_thread=rkernel.register_usage.original_regs_per_thread,
        ).run()

        # Loop updates promoted to the uniform datapath (Section 3.1.2)
        # leave the SIMT instruction stream: one scalar operation replaces
        # the 32-lane warp instruction.
        uniform = uniform_rows(trace, rkernel.uniform_pcs)
        uniform_records = int(uniform.sum())
        uniform_lanes = int(trace.cols.active[uniform].sum(dtype=np.int64))
        nonlinear_warp = trace.warp_instruction_count() - uniform_records
        stats.warp_instructions += nonlinear_warp + counts.warp_total
        stats.thread_instructions += (
            trace.thread_instruction_count()
            - uniform_lanes
            + uniform_records
            + counts.coef_total
            + counts.thread_total * 32
            + counts.block_total * counts.lanes_per_block_instr
        )
        stats.linear_warp_instructions += counts.warp_total
        stats.linear_coef_instructions += counts.coef_total
        stats.linear_thread_instructions += counts.thread_total
        stats.linear_block_instructions += counts.block_total
        stats.add_timing(timing)
        self._charge_linear_energy(counts, config, stats)

    # ------------------------------------------------------------------
    @staticmethod
    def _charge_linear_energy(
        counts: LinearPhaseCounts, config: GPUConfig, stats: ArchStats
    ) -> None:
        e = config.energy
        energy = stats.energy
        # Coefficients: scalar-pipeline ops.
        energy.add(
            "scalar",
            counts.coef_total * (e.scalar_op_pj + e.fetch_decode_pj),
        )
        energy.add(
            "rf", counts.coef_total * (e.rf_read_pj + e.rf_write_pj)
        )
        # Thread-index parts: full warps.
        energy.add("fetch", counts.thread_total * e.fetch_decode_pj)
        energy.add("alu", counts.thread_total * 32 * e.int_lane_pj)
        energy.add(
            "rf",
            counts.thread_total * (2 * e.rf_read_pj + e.rf_write_pj),
        )
        # Block-index parts: 16-lane warps.
        energy.add("fetch", counts.block_total * e.fetch_decode_pj)
        energy.add(
            "alu",
            counts.block_total
            * counts.lanes_per_block_instr
            * e.int_lane_pj,
        )
        energy.add(
            "rf", counts.block_total * (2 * e.rf_read_pj + e.rf_write_pj)
        )
        stats.energy_pj = energy.total()
