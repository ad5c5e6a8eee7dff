"""Per-layer tracing for the suite benchmark.

A traced process records one span per call into each layer, from
wrappers the benchmark installs around public entry points of the
program (the program itself is unchanged).  Each wrapper is patched at
the import site its caller uses.  Spans stay in memory as
``[name, start, end, parent, app, label]`` lists and are written out as
JSON when the process ends; :func:`layer_metrics` turns them into the
per-layer metrics ``BENCHMARK.json`` declares.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict
from typing import Dict, List, NamedTuple, Sequence, Tuple

#: Engines ``TimingSimulator.run`` reports through its ``timing.engine``
#: counter.
TIMING_ENGINES = ("dedup", "fast", "reference", "verify")

#: Trace-analyzing architectures (everything but R2D2, which executes
#: its own kernels).
TRACE_ARCHES = ("baseline", "wp", "tb", "ln", "dac", "darsie",
                "darsie+scalar")

#: Program counters a traced process reports (totals over labels).
COUNTERS = ("dedup.sms.cloned", "dedup.sms.simulated", "cache.hit",
            "cache.miss", "cache.bytes_read", "cache.bytes_written")

#: The paper's suite averages, printed beside the model outputs.
PAPER = {
    "arch.r2d2.speedup_geomean": 1.25,
    "arch.r2d2.warp_instr_reduction_mean": 0.28,
    "arch.r2d2.energy_reduction_mean": 0.17,
    "arch.dac.speedup_geomean": 1.15,
    "arch.darsie.speedup_geomean": 1.14,
}

#: Indices into a span list.
END, LABEL = 2, 5


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    app: str = ""
    label: str = ""


class Tracer:
    """In-memory span recorder plus counts the wrappers accumulate."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: App whose run is in progress; stamped on every new span.
        self.app = ""
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0,
               self._open[-1] if self._open else -1, self.app, ""]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: List[List[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(
            (max(spans[k].start, s.start), min(spans[k].end, s.end))
            for k in kids
        ):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _wrap_process(tracer: Tracer, fn):
    @functools.wraps(fn)
    def process_trace(self, *args, **kwargs):
        with tracer.span(f"arch.{self.name}.process"):
            return fn(self, *args, **kwargs)
    return process_trace


def _wrap_launch(tracer: Tracer, fn):
    """``Device.launch``, labelled with the functional engine that
    produced the trace (from its extrapolation / vector reports)."""
    counts = tracer.counts

    @functools.wraps(fn)
    def launch(self, *args, **kwargs):
        with tracer.span("sim.execute") as rec:
            trace = fn(self, *args, **kwargs)
        ext, vec = trace.extrapolation, trace.vector
        if ext is not None and ext.blocks_extrapolated:
            rec[LABEL] = "extrapolate"
        elif vec is not None and vec.warps_vectorized:
            rec[LABEL] = "vector"
        else:
            rec[LABEL] = "serial"
        counts["execute.launches"] += 1
        counts[f"execute.{rec[LABEL]}"] += 1
        if ext is not None:
            counts["extrapolate.blocks_total"] += ext.blocks_total
            counts["extrapolate.blocks"] += ext.blocks_extrapolated
        if vec is not None:
            counts["vector.warps_total"] += vec.warps_total
            counts["vector.warps"] += vec.warps_vectorized
            counts["vector.engaged"] += bool(vec.engaged)
            counts["vector.bailed"] += bool(vec.bailed)
        return trace
    return launch


def _wrap_timing(tracer: Tracer, fn, counter_value):
    """``TimingSimulator.run``, labelled with the engine whose
    ``timing.engine`` counter moved during the call."""
    counts = tracer.counts

    @functools.wraps(fn)
    def run(self):
        kname = self.kernel.name
        before = [counter_value("timing.engine", kernel=kname, engine=e)
                  for e in TIMING_ENGINES]
        with tracer.span("sim.timing") as rec:
            result = fn(self)
        rec[LABEL] = "+".join(
            e for e, b in zip(TIMING_ENGINES, before)
            if counter_value("timing.engine", kernel=kname, engine=e) > b
        )
        counts["timing.warp_instrs"] += self.trace.warp_instruction_count()
        return result
    return run


def install(tracer: Tracer, workload_classes) -> None:
    """Patch the layer entry points of this process to record spans.
    There is no uninstall: a traced process runs once and exits."""
    from repro import obs
    from repro.arch import (BaselineArch, DACArch, DARSIEArch, IdealLN,
                            IdealTB, IdealWP, R2D2Arch, ideal)
    from repro.harness import runner
    from repro.perf.trace_cache import TraceCache
    from repro.sim.gpu import Device
    from repro.sim.timing import TimingSimulator
    from repro.transform import decouple

    for cls in workload_classes:
        cls.prepare = _wrap(tracer, "workloads.prepare", cls.prepare)
        cls.check = _wrap(tracer, "workloads.check", cls.check)
    for cls in (BaselineArch, IdealWP, IdealTB, IdealLN, DACArch,
                DARSIEArch):
        cls.process_trace = _wrap_process(tracer, cls.process_trace)
    R2D2Arch.execute_launch = _wrap(
        tracer, "arch.r2d2.execute_launch", R2D2Arch.execute_launch
    )
    R2D2Arch.transform = _wrap(
        tracer, "transform.r2d2_transform", R2D2Arch.transform
    )
    decouple.analyze_kernel = _wrap(
        tracer, "linear.analyze", decouple.analyze_kernel
    )
    ideal.analyze_kernel = _wrap(
        tracer, "linear.analyze", ideal.analyze_kernel
    )
    TraceCache.get = _wrap(tracer, "perf.cache.get", TraceCache.get)
    TraceCache.put = _wrap(tracer, "perf.cache.put", TraceCache.put)
    runner.workload_result_key = _wrap(
        tracer, "perf.cache.key", runner.workload_result_key
    )
    runner.functional_trace_key = _wrap(
        tracer, "perf.cache.key", runner.functional_trace_key
    )
    Device.launch = _wrap_launch(tracer, Device.launch)
    TimingSimulator.run = _wrap_timing(
        tracer, TimingSimulator.run, obs.counter_value
    )


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_selfs(spans: Sequence[Span]):
    selfs = self_times(spans)
    by_name: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for s, t in zip(spans, selfs):
        by_name[s.name] += t
        calls[s.name] += 1
    return selfs, by_name, calls


def layer_metrics(
    cold: dict, warm: dict, untraced_wall: float
) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from one traced cold run and one traced warm
    rerun (child records carrying ``spans``/``counts``/``counters``);
    ``untraced_wall`` is the untraced cold-wall median of the same
    benchmark run, the base of ``trace.overhead_frac``."""
    spans = [Span(*s) for s in cold["spans"]]
    selfs, by_name, calls = _layer_selfs(spans)
    _, warm_by_name, _ = _layer_selfs([Span(*s) for s in warm["spans"]])
    counts = Counter(cold["counts"])
    k, kw = cold["counters"], warm["counters"]
    wall = cold["wall_s"]

    def total(name: str, pred=lambda s: True) -> float:
        return sum((t for s, t in zip(spans, selfs)
                    if s.name == name and pred(s)), 0.0)

    def under_r2d2(s: Span) -> bool:
        return (s.parent >= 0
                and spans[s.parent].name == "arch.r2d2.execute_launch")

    timing_s = total("sim.timing")
    m: Dict[str, Tuple[float, str]] = {
        "sim.execute.baseline_s": (
            total("sim.execute", lambda s: not under_r2d2(s)), "s"),
        "sim.execute.r2d2_s": (total("sim.execute", under_r2d2), "s"),
        "sim.timing.trace_arches_s": (
            total("sim.timing", lambda s: not under_r2d2(s)), "s"),
        "sim.timing.r2d2_s": (total("sim.timing", under_r2d2), "s"),
        "arch.r2d2.execute_launch_self_s": (
            by_name["arch.r2d2.execute_launch"], "s"),
        "sim.timing.dedup_clone_frac": (_ratio(
            k["dedup.sms.cloned"],
            k["dedup.sms.cloned"] + k["dedup.sms.simulated"]), "ratio"),
        "sim.timing.host_ns_per_warp_instr": (
            1e9 * _ratio(timing_s, counts["timing.warp_instrs"]), "ns"),
        "sim.execute.serial_launch_frac": (_ratio(
            counts["execute.serial"], counts["execute.launches"]),
            "ratio"),
        "sim.vector.warp_frac": (_ratio(
            counts["vector.warps"], counts["vector.warps_total"]),
            "ratio"),
        "sim.vector.bail_frac": (_ratio(
            counts["vector.bailed"],
            counts["vector.engaged"] + counts["vector.bailed"]), "ratio"),
        "sim.extrapolate.block_frac": (_ratio(
            counts["extrapolate.blocks"],
            counts["extrapolate.blocks_total"]), "ratio"),
        "workloads.prepare_s": (by_name["workloads.prepare"], "s"),
        "workloads.check_s": (by_name["workloads.check"], "s"),
        "perf.cache.key_s": (by_name["perf.cache.key"], "s"),
        "perf.cache.put_s": (by_name["perf.cache.put"], "s"),
        "perf.cache.bytes_written": (k["cache.bytes_written"], "bytes"),
        "perf.cache.get_s": (warm_by_name["perf.cache.get"], "s"),
        "perf.cache.bytes_read": (kw["cache.bytes_read"], "bytes"),
        "perf.cache.hit_frac": (_ratio(
            kw["cache.hit"], kw["cache.hit"] + kw["cache.miss"]), "ratio"),
        "transform.r2d2_transform_s": (
            by_name["transform.r2d2_transform"], "s"),
        "transform.r2d2_transform_calls": (
            calls["transform.r2d2_transform"], "count"),
        "linear.analyze_s": (by_name["linear.analyze"], "s"),
        "linear.analyze_calls": (calls["linear.analyze"], "count"),
        "harness.figures_s": (by_name["harness.figures"], "s"),
        "harness.runner_self_s": (by_name["harness.runner"], "s"),
        "trace.overhead_frac": (wall / untraced_wall - 1.0, "ratio"),
        "trace.coverage_frac": (
            1.0 - by_name["harness.suite"] / wall, "ratio"),
    }
    for engine in ("dedup", "fast", "reference"):
        m[f"sim.timing.{engine}_s"] = (
            total("sim.timing", lambda s: s.label == engine), "s")
    for engine in ("extrapolate", "vector", "serial"):
        m[f"sim.execute.{engine}_s"] = (
            total("sim.execute", lambda s: s.label == engine), "s")
    for arch in TRACE_ARCHES:
        tag = arch.replace("+", "-")
        m[f"arch.{tag}.process_self_s"] = (
            by_name[f"arch.{arch}.process"], "s")
    for name, value in cold["model"].items():
        m[name] = (value, "x" if name.endswith("speedup_geomean")
                   else "ratio")
    return m

