"""One benchmark process: a cold or warm figure run over one workload.

``python3 bench/figrun.py '<json spec>'`` (with ``src`` on
``PYTHONPATH``; ``run.py`` spawns it that way) runs the workload's apps
serially (``jobs=1``) with ``verify=True`` on all 8 architectures
against the spec's cache directory, renders Figs 4/12/13/14/15/16, and
writes a JSON record of what it measured to ``spec["out"]``.  An empty
cache directory makes it the run a user's first ``python -m repro
fig13`` performs; the directory a cold run filled makes it a warm rerun.

Spec keys: ``workload``, ``seed``, ``smoke``, ``cache_dir``, ``trace``,
``out``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
import zlib
from contextlib import nullcontext
from typing import Dict

import numpy as np

from repro import obs
from repro.harness import experiments
from repro.harness.experiments import SuiteResults, bench_config
from repro.harness.report import geomean, mean
from repro.harness.runner import run_workload
from repro.perf.trace_cache import TraceCache
from repro.workloads import get

import golden
import spans
import suites

FIGURES = (
    experiments.fig4_ideal_machines,
    experiments.fig12_instruction_reduction,
    experiments.fig13_speedup,
    experiments.fig14_instruction_breakdown,
    experiments.fig15_cycle_breakdown,
    experiments.fig16_energy,
)


def workload_class(abbr: str, suite: suites.Suite, smoke: bool) -> type:
    """The class to construct ``abbr`` from; for the reduction ladder, a
    subclass whose ``bench`` preset has the ladder's grid and block."""
    base = get(abbr)
    if suite.scale(smoke) != "bench":
        return base
    grid, block = suite.ladder

    class Bench(base):
        @classmethod
        def scales(cls):
            return {**base.scales(),
                    "bench": {"block": block, "grid": grid}}

    Bench.__name__ = Bench.__qualname__ = f"{base.__name__}Bench"
    return Bench


def seeded_factory(cls: type, scale: str, seed: int):
    """Workload factory for ``--seed``: 0 keeps the native inputs (crc32
    of the abbreviation), any other seed reseeds the input generator
    right after construction.  Every instance of one factory gets the
    same inputs, so the baseline and R2D2 devices see identical data."""
    def make():
        w = cls(scale)
        if seed:
            w.rng = np.random.default_rng(
                [seed, zlib.crc32(w.abbr.encode())]
            )
        return w
    return make


def stats_record(stats) -> Dict[str, object]:
    """Every simulated statistic of one ``ArchStats``, JSON-ready."""
    out = {k: v for k, v in vars(stats).items()
           if k not in ("name", "energy")}
    out["energy"] = dict(sorted(stats.energy.values.items()))
    return out


def model_outputs(results) -> Dict[str, float]:
    """The model's suite averages over ``results`` (what Figs 12, 13
    and 16 summarize)."""
    res = list(results.values())
    return {
        "arch.r2d2.speedup_geomean": geomean(
            r.speedup("r2d2") for r in res),
        "arch.r2d2.warp_instr_reduction_mean": mean(
            r.instruction_reduction("r2d2") for r in res),
        "arch.r2d2.energy_reduction_mean": mean(
            r.energy_reduction("r2d2") for r in res),
        "arch.dac.speedup_geomean": geomean(r.speedup("dac") for r in res),
        "arch.darsie.speedup_geomean": geomean(
            r.speedup("darsie") for r in res),
    }


def figure_run(spec: dict) -> dict:
    suite = suites.WORKLOADS[spec["workload"]]
    smoke = spec["smoke"]
    scale = suite.scale(smoke)
    apps = suite.smoke_apps if smoke else suite.apps
    classes = {a: workload_class(a, suite, smoke) for a in apps}
    tracer = spans.Tracer() if spec["trace"] else None
    if tracer is not None:
        spans.install(tracer, classes.values())

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    config = bench_config()
    cache = TraceCache(spec["cache_dir"])
    results = {}
    apps_out: Dict[str, dict] = {}
    t0 = time.perf_counter()
    with span("harness.suite"):
        for abbr in apps:
            if tracer is not None:
                tracer.app = abbr
            try:
                with span("harness.runner"):
                    res = run_workload(
                        seeded_factory(classes[abbr], scale, spec["seed"]),
                        config=config, verify=True, jobs=1, cache=cache,
                    )
            except Exception:
                # One app's crash is a failed app, not a failed run.
                apps_out[abbr] = {"error": traceback.format_exc(limit=4)}
                continue
            results[abbr] = res
            apps_out[abbr] = {
                "verified": res.verified,
                "outputs_identical": res.outputs_identical,
                "stats": {a: stats_record(s) for a, s in res.stats.items()},
            }
        if tracer is not None:
            tracer.app = ""
        with span("harness.figures"):
            suite_res = SuiteResults(config=config, scale=scale,
                                     results=results)
            figures = "\n\n".join(f(suite_res).render() for f in FIGURES)
    wall = time.perf_counter() - t0

    record = {
        "wall_s": wall,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "apps": apps_out,
        "figures_sha": golden.digest(figures),
        "kwarp": sum(
            r["baseline"].warp_instructions + r["r2d2"].warp_instructions
            for r in results.values()
        ) / 1000.0,
        "model": model_outputs(results),
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
        record["counters"] = {
            name: obs.counter_total(name) for name in spans.COUNTERS
        }
    return record


if __name__ == "__main__":
    t_imported = time.monotonic()
    spec = json.loads(sys.argv[1])
    record = figure_run(spec)
    record["t_imported"] = t_imported
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
