"""Experiment runner: workload × architecture → statistics.

For one workload the runner

1. executes all launches functionally on a baseline device, verifies the
   results against the workload's numpy reference, and keeps the traces.
   Each launch R2D2 derives its trace from also runs the operand witness
   (:meth:`R2D2Arch.witness`) of its transformed kernel, which passed
   the translation check (:mod:`repro.transform.translation`);
2. feeds the traces to every trace-analyzing architecture (baseline,
   ideal WP/TB/LN, DAC, DARSIE, DARSIE+Scalar, R2D2), each with a fresh
   L2, except that DARSIE and DARSIE+Scalar share one replay per launch.
   R2D2 replays each trace derived to its transformed kernel: the
   translation check and the witness prove that executing the
   transformed kernel would leave exactly that trace and the baseline's
   outputs, so this is the workload's only functional execution;
3. executes the R2D2-transformed kernels on a second device only when
   that proof fails — then R2D2 replays the executed traces, and their
   outputs are compared bit-for-bit with the baseline device's — or
   under ``R2D2_VERIFY=1``, which raises unless the executed traces
   equal the derived ones (``src_hash`` aside) and the outputs are
   identical;
4. returns an :class:`ArchStats` per architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from ..sim.config import GPUConfig, small, verify_enabled
from ..sim.executor import Witness
from ..sim.gpu import Device
from ..sim.trace import KernelTrace, trace_differences
from ..transform.translation import (
    DERIVED_FIELDS,
    DerivationMismatch,
    TranslationError,
)
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
#: Architectures one timing replay per launch serves when a run asks
#: for both (:class:`DARSIEArch`'s ``darsie`` ledger).
DARSIE_PAIR = ("darsie", "darsie+scalar")


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
    #: R2D2's outputs equal the baseline's (set on verified runs).  The
    #: evidence is the translation check plus every launch's operand
    #: witness, or — when that proof fails — a bit-for-bit comparison
    #: of the executed transformed launches' outputs.
    outputs_identical: bool = False
    #: Per-launch megawarp outcomes (dicts from
    #: ``DecisionEvent.to_dict``): engage/skip/bail with a
    #: machine-readable reason for the run report.  Baseline launches
    #: come first, then — only when the transformed kernels executed
    #: (failed proof, ``R2D2_VERIFY=1``) — R2D2 launches (transformed
    #: kernels are named ``<kernel>.r2d2``).
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

    r2d2 = None
    if "r2d2" in arch_names:
        r2d2 = make_architecture("r2d2", **r2d2_kwargs)
    result_key = trace_key = None
    if tcache is not None:
        try:
            result_key = workload_result_key(
                workload, launches, config, arch_names, r2d2_kwargs,
                verify,
            )
            # Verified runs need the device's output state, so they
            # always execute: only unverified runs read or write traces.
            # Their witness verdicts depend on the R2D2 transform.
            if not verify:
                trace_key = functional_trace_key(
                    workload, launches, config,
                    r2d2_kwargs if r2d2 is not None else None,
                )
        except UnhashableKeyPart:
            obs.inc("cache.unhashable", abbr=workload.abbr)
            tcache = None
        else:
            hit = tcache.get("result", result_key)
            if isinstance(hit, WorkloadResult):
                return hit

    # The operand witness of every launch R2D2 derives a trace from;
    # ``unproven`` is (reason, kernel, detail) of the first gap in
    # R2D2's proof.
    witnesses: List[Optional[Witness]] = []
    unproven: Optional[Tuple[str, str, str]] = None
    if r2d2 is not None:
        with obs.span("r2d2"):
            for spec in launches:
                try:
                    witnesses.append(r2d2.witness(
                        spec.kernel, spec.grid, spec.block, spec.args,
                        config,
                    ))
                except TranslationError as exc:
                    unproven = ("translation-failed", spec.kernel.name,
                                str(exc))
                    break
    if unproven is not None or r2d2 is None:
        witnesses = [None] * len(launches)

    traces = None
    if trace_key is not None:
        traces = tcache.get("trace", trace_key)
    if traces is None:
        with obs.span("execute"):
            traces = [
                device.launch(
                    spec.kernel, spec.grid, spec.block, spec.args,
                    witness=witness,
                )
                for spec, witness in zip(launches, witnesses)
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
    if r2d2 is not None and unproven is None:
        unproven = next((
            ("witness-failed", t.kernel.name, t.witness.failure)
            for t in traces if t.witness is not None and not t.witness.ok
        ), None)

    trace_arches = [
        n for n in arch_names if n != "r2d2" or unproven is None
    ]
    with obs.span("analyze"):
        cells = {
            ",".join(names): (
                traces, config, names,
                r2d2 if names == ("r2d2",) else None,
            )
            for names in _trace_arch_cells(trace_arches)
        }
        done = fan_out("trace-arch", _trace_arch_cell, cells, jobs)
        stats: Dict[str, ArchStats] = {}
        for label, args in cells.items():
            if label not in done:
                done[label] = _trace_arch_cell(*args)
            stats.update(done[label])
        for name in trace_arches:
            result.stats[name] = stats[name]

    # ------------------------------------------------------------ 3
    if r2d2 is not None and (unproven is not None or verify_enabled()):
        if unproven is not None:
            reason, kernel, detail = unproven
            obs.engine_fallback("r2d2", kernel, reason, detail=detail,
                                bailed=True)
        with obs.span("r2d2"):
            workload2, device2, executed, stats = _execute_r2d2(
                factory, config, r2d2, result
            )
            identical = _outputs_match(workload, device, workload2, device2)
            if unproven is None:
                _check_derivation(r2d2, config, traces, executed,
                                  identical, workload.abbr)
            else:
                result.stats["r2d2"] = stats
                if verify:
                    result.outputs_identical = identical
                    # The baseline outputs already passed the numpy
                    # reference check in step 1, so bit-identical R2D2
                    # outputs are correct by transitivity and the second
                    # (expensive) reference check only runs to diagnose
                    # an actual mismatch.
                    if not (identical and workload2.output_buffers()):
                        workload2.check(device2)
    if r2d2 is not None and verify and unproven is None:
        result.outputs_identical = True

    if tcache is not None and result_key is not None:
        tcache.put("result", result_key, result)
    return result


def _execute_r2d2(
    factory: WorkloadFactory,
    config: GPUConfig,
    r2d2: R2D2Arch,
    result: WorkloadResult,
) -> Tuple[Workload, Device, List[KernelTrace], ArchStats]:
    """Execute every R2D2 launch on a second device and replay it:
    ``(workload, device, traces, stats)``, each launch's megawarp
    decision appended to ``result``."""
    workload2 = factory()
    device2 = Device(config)
    launches2 = workload2.prepare(device2)
    stats = r2d2.make_stats()
    l2 = Cache(config.l2)
    traces = []
    for spec in launches2:
        trace = r2d2.execute_launch(
            device2, spec.kernel, spec.grid, spec.block, spec.args,
            config, stats, l2=l2,
        )
        if trace.vector is not None:
            result.engine_decisions.append(
                trace.vector.to_decision().to_dict()
            )
        traces.append(trace)
    return workload2, device2, traces, stats


def _check_derivation(
    r2d2: R2D2Arch,
    config: GPUConfig,
    traces: Sequence[KernelTrace],
    executed: Sequence[KernelTrace],
    identical: bool,
    abbr: str,
) -> None:
    """``R2D2_VERIFY=1`` on a proven run: raise
    :class:`DerivationMismatch` unless every executed R2D2 trace equals
    the one R2D2 replayed (derived from the baseline's ``traces``) in
    every column but ``src_hash``, and the outputs were identical."""
    for base, got in zip(traces, executed):
        _, expected = r2d2.derive(base, config)
        diffs = trace_differences(
            expected.blocks, expected.cols, got.blocks, got.cols,
            DERIVED_FIELDS,
        )
        if diffs:
            raise DerivationMismatch(
                f"{got.kernel.name}: the executed trace differs from the "
                "derived one: " + "; ".join(diffs[:5])
            )
    if not identical:
        raise DerivationMismatch(
            f"{abbr}: the executed R2D2 outputs differ from the baseline's"
        )


def _trace_arch_cells(names: Sequence[str]) -> List[Tuple[str, ...]]:
    """The analyze phase's cells: one per architecture, but one for
    :data:`DARSIE_PAIR` when both run."""
    if not set(DARSIE_PAIR) <= set(names):
        return [(name,) for name in names]
    return [(n,) for n in names if n not in DARSIE_PAIR] + [DARSIE_PAIR]


def _trace_arch_cell(
    traces, config: GPUConfig, names: Tuple[str, ...],
    r2d2: Optional[R2D2Arch] = None,
) -> Dict[str, ArchStats]:
    """One (traces, architectures) cell with one L2; module-level so
    process-pool workers can pickle it.  ``r2d2`` is the run's R2D2
    architecture, whose transforms the witnesses already checked."""
    out: Dict[str, ArchStats] = {}
    if names == DARSIE_PAIR:
        out["darsie"] = ArchStats(name="darsie")
        arch = DARSIEArch(with_scalar=True, darsie=out["darsie"])
    elif names == ("r2d2",):
        arch = r2d2
    else:
        (name,) = names
        arch = make_architecture(name)
    stats = out[arch.name] = arch.make_stats()
    l2 = Cache(config.l2)
    for trace in traces:
        arch.process_trace(trace, config, stats, l2=l2)
    return out


def _outputs_match(w1: Workload, d1: Device, w2: Workload, d2: Device) -> bool:
    for buf1, buf2 in zip(w1.output_buffers(), w2.output_buffers()):
        a = d1.download(buf1.addr, buf1.count, buf1.dtype)
        b = d2.download(buf2.addr, buf2.count, buf2.dtype)
        if not np.array_equal(a, b):
            return False
    return True
