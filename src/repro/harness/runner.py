"""Experiment runner: workload × architecture → statistics.

For one workload the runner

1. executes all launches functionally on a baseline device, verifies the
   results against the workload's numpy reference, and keeps the traces;
2. feeds the traces to every trace-analyzing architecture (baseline,
   ideal WP/TB/LN, DAC, DARSIE, DARSIE+Scalar), each with a fresh L2;
3. executes the R2D2-transformed kernels on a second device, verifies
   them the same way, and additionally compares every output buffer
   bit-for-bit against the baseline device's;
4. returns an :class:`ArchStats` per architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..arch import (
    ArchStats,
    Architecture,
    BaselineArch,
    DACArch,
    DARSIEArch,
    IdealLN,
    IdealTB,
    IdealWP,
    R2D2Arch,
)
from .. import obs
from ..perf import fan_out, resolve_cache, resolve_jobs
from ..perf.trace_cache import (
    UnhashableKeyPart,
    functional_trace_key,
    workload_result_key,
)
from ..sim.caches import Cache
from ..sim.config import GPUConfig, small
from ..sim.gpu import Device
from ..workloads.base import Workload

WorkloadFactory = Callable[[], Workload]

#: Architecture sets used by the harness.
TIMING_ARCHES = ("baseline", "dac", "darsie", "darsie+scalar", "r2d2")
IDEAL_ARCHES = ("wp", "tb", "ln")
ALL_ARCHES = ("baseline",) + IDEAL_ARCHES + (
    "dac",
    "darsie",
    "darsie+scalar",
    "r2d2",
)


def make_architecture(name: str, **kw) -> Architecture:
    if name == "baseline":
        return BaselineArch()
    if name == "wp":
        return IdealWP()
    if name == "tb":
        return IdealTB()
    if name == "ln":
        return IdealLN()
    if name == "dac":
        return DACArch()
    if name == "darsie":
        return DARSIEArch(with_scalar=False)
    if name == "darsie+scalar":
        return DARSIEArch(with_scalar=True)
    if name == "r2d2":
        return R2D2Arch(**kw)
    raise ValueError(f"unknown architecture {name!r}")


@dataclass
class WorkloadResult:
    """All architectures' statistics for one workload run."""

    abbr: str
    scale: str
    stats: Dict[str, ArchStats] = field(default_factory=dict)
    verified: bool = False
    outputs_identical: bool = False
    #: Per-launch megawarp outcomes (dicts from
    #: ``DecisionEvent.to_dict``): engage/skip/bail with a
    #: machine-readable reason for the run report.  Baseline launches
    #: come first, then R2D2 launches (transformed kernels are named
    #: ``<kernel>.r2d2``).
    engine_decisions: List[dict] = field(default_factory=list)

    def __getitem__(self, arch: str) -> ArchStats:
        return self.stats[arch]

    # Paper-metric helpers ------------------------------------------------
    def instruction_reduction(self, arch: str) -> float:
        return self.stats[arch].instruction_reduction(
            self.stats["baseline"]
        )

    def thread_instruction_reduction(self, arch: str) -> float:
        return self.stats[arch].thread_instruction_reduction(
            self.stats["baseline"]
        )

    def speedup(self, arch: str) -> float:
        return self.stats[arch].speedup(self.stats["baseline"])

    def energy_reduction(self, arch: str) -> float:
        return self.stats[arch].energy_reduction(self.stats["baseline"])


def run_workload(
    factory: WorkloadFactory,
    config: Optional[GPUConfig] = None,
    arch_names: Sequence[str] = ALL_ARCHES,
    r2d2_kwargs: Optional[dict] = None,
    verify: bool = True,
    jobs: Optional[int] = None,
    cache=None,
) -> WorkloadResult:
    """Run one workload through the requested architectures.

    ``jobs > 1`` fans the trace-analyzing architectures out to worker
    processes (:func:`repro.perf.parallel.fan_out`; any arch the pool
    does not deliver is computed serially); ``cache`` memoizes the whole
    result on disk — see :mod:`repro.perf.trace_cache` for the key
    recipe and defaults.
    """
    config = config or small()
    r2d2_kwargs = r2d2_kwargs or {}
    jobs = resolve_jobs(jobs)
    tcache = resolve_cache(cache)

    with obs.span("workload"):
        result = _run_workload_phases(
            factory, config, arch_names, r2d2_kwargs, verify, jobs,
            tcache,
        )
    obs.event(
        "workload.done",
        abbr=result.abbr,
        scale=result.scale,
        arches=list(result.stats),
        verified=result.verified,
    )
    return result


def _run_workload_phases(
    factory: WorkloadFactory,
    config: GPUConfig,
    arch_names: Sequence[str],
    r2d2_kwargs: dict,
    verify: bool,
    jobs: int,
    tcache,
) -> WorkloadResult:
    # ------------------------------------------------------------ 1+2
    with obs.span("prepare"):
        workload = factory()
        device = Device(config)
        launches = workload.prepare(device)

    result_key = trace_key = None
    if tcache is not None:
        try:
            result_key = workload_result_key(
                workload, launches, config, arch_names, r2d2_kwargs,
                verify,
            )
            # Verified runs need the device's output state, so they
            # always execute: only unverified runs read or write traces.
            if not verify:
                trace_key = functional_trace_key(workload, launches, config)
        except UnhashableKeyPart:
            obs.inc("cache.unhashable", abbr=workload.abbr)
            tcache = None
        else:
            hit = tcache.get("result", result_key)
            if isinstance(hit, WorkloadResult):
                return hit

    traces = None
    if trace_key is not None:
        traces = tcache.get("trace", trace_key)
    if traces is None:
        with obs.span("execute"):
            traces = [
                device.launch(
                    spec.kernel, spec.grid, spec.block, spec.args
                )
                for spec in launches
            ]
        if trace_key is not None:
            tcache.put("trace", trace_key, traces)
    if verify:
        with obs.span("verify"):
            workload.check(device)

    result = WorkloadResult(abbr=workload.abbr, scale=workload.scale)
    result.verified = verify
    for trace in traces:
        if trace.vector is not None:
            result.engine_decisions.append(
                trace.vector.to_decision().to_dict()
            )

    trace_arches = [n for n in arch_names if n != "r2d2"]
    with obs.span("analyze"):
        done = fan_out(
            "trace-arch", _trace_arch_cell,
            {name: (traces, config, name) for name in trace_arches}, jobs,
        )
        for name in trace_arches:
            if name not in done:
                done[name] = _trace_arch_cell(traces, config, name)
            result.stats[name] = done[name]

    # ------------------------------------------------------------ 3
    if "r2d2" in arch_names:
        with obs.span("r2d2"):
            r2d2 = make_architecture("r2d2", **r2d2_kwargs)
            workload2 = factory()
            device2 = Device(config)
            launches2 = workload2.prepare(device2)
            stats = r2d2.make_stats()
            l2 = Cache(config.l2)
            for spec in launches2:
                trace = r2d2.execute_launch(
                    device2,
                    spec.kernel,
                    spec.grid,
                    spec.block,
                    spec.args,
                    config,
                    stats,
                    l2=l2,
                )
                if trace.vector is not None:
                    result.engine_decisions.append(
                        trace.vector.to_decision().to_dict()
                    )
            if verify:
                result.outputs_identical = _outputs_match(
                    workload, device, workload2, device2
                )
                # The baseline outputs already passed the numpy
                # reference check in step 1, so bit-identical R2D2
                # outputs are correct by transitivity and the second
                # (expensive) reference check only runs to diagnose an
                # actual mismatch.
                if not (result.outputs_identical
                        and workload2.output_buffers()):
                    workload2.check(device2)
            result.stats["r2d2"] = stats

    if tcache is not None and result_key is not None:
        tcache.put("result", result_key, result)
    return result


def _trace_arch_cell(traces, config: GPUConfig, name: str) -> ArchStats:
    """One (traces, architecture) cell; module-level so process-pool
    workers can pickle it."""
    arch = make_architecture(name)
    stats = arch.make_stats()
    l2 = Cache(config.l2)
    for trace in traces:
        arch.process_trace(trace, config, stats, l2=l2)
    return stats


def _outputs_match(w1: Workload, d1: Device, w2: Workload, d2: Device) -> bool:
    for buf1, buf2 in zip(w1.output_buffers(), w2.output_buffers()):
        a = d1.download(buf1.addr, buf1.count, buf1.dtype)
        b = d2.download(buf2.addr, buf2.count, buf2.dtype)
        if not np.array_equal(a, b):
            return False
    return True
