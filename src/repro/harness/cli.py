"""Command-line interface: regenerate the paper's figures and tables.

Usage::

    python -m repro fig12                 # one artifact
    python -m repro fig13 --apps BP NN    # restrict the suite
    python -m repro all --scale tiny      # everything, quickly
    python -m repro fig12 --jobs 4        # parallel suite run
    python -m repro fig12 --metrics-out run.json   # export run metrics
    python -m repro profile BP            # per-phase/per-kernel profile
    python -m repro explain BP            # why instructions stayed/went
    python -m repro cache stats           # persistent-cache usage
    python -m repro cache clear           # drop every cached result
    python -m repro oracle fuzz           # analyzer soundness fuzzing
    python -m repro oracle corpus         # replay saved counterexamples
    python -m repro list                  # what's available

Figure/table runs use the persistent result cache by default (reruns of
the same configuration are nearly free); pass ``--no-cache`` to force
recomputation.  The library default is cache-off, so tests and
programmatic users are unaffected.

Observability: every run records phase timings and fast-path counters
into :mod:`repro.obs`; ``--metrics-out run.json`` exports them,
``R2D2_TRACE_LOG=events.jsonl`` appends JSON-lines events, and
``python -m repro profile <workload>`` prints the per-phase /
per-kernel breakdown (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Optional, Sequence

from . import experiments
from .. import obs
from ..perf import TraceCache, cache_from_env
from ..sim.config import verify_enabled
from ..workloads import all_abbrs, factory
from .experiments import SuiteResults, bench_config, run_suite
from .report import obs_summary
from .runner import ALL_ARCHES, run_workload

#: figure name -> (needs shared suite?, callable)
SUITE_FIGURES = {
    "fig4": experiments.fig4_ideal_machines,
    "fig12": experiments.fig12_instruction_reduction,
    "fig13": experiments.fig13_speedup,
    "fig14": experiments.fig14_instruction_breakdown,
    "fig15": experiments.fig15_cycle_breakdown,
    "fig16": experiments.fig16_energy,
}

STANDALONE_FIGURES = {
    "tab3": lambda config, scale: experiments.table3_blocks_sensitivity(
        config
    ),
    "sec54": lambda config, scale: experiments.sec54_latency_study(
        scale=scale, config=config
    ),
    "sec56": lambda config, scale: experiments.sec56_register_usage(
        scale=scale, config=config
    ),
    "sec57": lambda config, scale: experiments.sec57_persistent_threads(
        config=config, scale=scale
    ),
    "sec58": lambda config, scale: experiments.sec58_sm_scaling(
        scale=scale
    ),
    "reduction": lambda config, scale: experiments.reduction_ablation(
        config=config, scale=scale
    ),
}

ALL_NAMES = list(SUITE_FIGURES) + list(STANDALONE_FIGURES)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the R2D2 paper's evaluation artifacts.",
    )
    parser.add_argument(
        "artifact",
        choices=ALL_NAMES + ["all", "list", "cache"],
        help="which figure/table to regenerate (or 'cache' to manage "
             "the persistent result cache)",
    )
    parser.add_argument(
        "op", nargs="?", choices=("stats", "clear"), default=None,
        help="operation for the 'cache' artifact (default: stats)",
    )
    parser.add_argument(
        "--scale", default="small", choices=("tiny", "small"),
        help="workload scale preset (default: small)",
    )
    parser.add_argument(
        "--sms", type=int, default=4,
        help="number of SMs in the benchmark GPU (default: 4)",
    )
    parser.add_argument(
        "--apps", nargs="*", default=None,
        help="restrict the suite figures to these Table 2 abbreviations",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="run suite workloads in N worker processes; standalone "
             "figures split each workload's architectures instead "
             "(default: $R2D2_JOBS or 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent result cache for this run "
             "(every workload is recomputed)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="export run counters/timings as JSON to PATH "
             "(see docs/OBSERVABILITY.md)",
    )
    return parser


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Run one workload and print the per-phase / "
                    "per-kernel observability breakdown.",
    )
    parser.add_argument(
        "abbr",
        help="Table 2 workload abbreviation",
    )
    parser.add_argument(
        "--scale", default="small", choices=("tiny", "small"),
        help="workload scale preset (default: small)",
    )
    parser.add_argument(
        "--sms", type=int, default=4,
        help="number of SMs in the benchmark GPU (default: 4)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="fan per-arch cells out to N worker processes",
    )
    parser.add_argument(
        "--arches", nargs="*", default=None, choices=ALL_ARCHES,
        help="restrict the run to these architectures",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="also write the same snapshot as JSON to PATH",
    )
    return parser


def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="Run one workload and report per-instruction "
                    "removable/blocked attribution, causal demotion "
                    "chains, and the unified engine-decision trace.",
    )
    parser.add_argument(
        "abbr",
        help="Table 2 workload abbreviation",
    )
    parser.add_argument(
        "--scale", default="small", choices=("tiny", "small"),
        help="workload scale preset (default: small)",
    )
    parser.add_argument(
        "--sms", type=int, default=4,
        help="number of SMs in the benchmark GPU (default: 4)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="fan per-arch cells out to N worker processes",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH", dest="json_out",
        help="write the explanation document as JSON to PATH "
             "('-' for stdout; schema in docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--html", default=None, metavar="PATH", dest="html_out",
        help="write a self-contained HTML report to PATH",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="also export the run's counters/spans/decisions to PATH",
    )
    return parser


def _check_abbr(command: str, abbr: str) -> bool:
    """One-line unknown-workload diagnostic (exit code 2, no traceback)."""
    if abbr in all_abbrs():
        return True
    print(
        f"repro {command}: unknown workload {abbr!r}; valid "
        f"abbreviations: {', '.join(all_abbrs())}",
        file=sys.stderr,
    )
    return False


def explain_main(argv: Sequence[str]) -> int:
    from .explain import build_explanation, render_html, render_text

    args = build_explain_parser().parse_args(list(argv))
    if not _check_abbr("explain", args.abbr):
        return 2
    doc = build_explanation(
        args.abbr, scale=args.scale, sms=args.sms, jobs=args.jobs,
    )
    if args.json_out == "-":
        json.dump(doc, sys.stdout, indent=2, default=str)
        print()
    else:
        print(render_text(doc))
        if args.json_out:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, default=str)
                fh.write("\n")
            print(f"json written to {args.json_out}")
    if args.html_out:
        with open(args.html_out, "w", encoding="utf-8") as fh:
            fh.write(render_html(doc))
        print(f"html written to {args.html_out}")
    if args.metrics_out:
        obs.write_metrics(
            args.metrics_out,
            meta={
                "command": "explain",
                "abbr": args.abbr,
                "scale": args.scale,
                "sms": args.sms,
            },
        )
        print(f"metrics written to {args.metrics_out}")
    return 0


def profile_main(argv: Sequence[str]) -> int:
    args = build_profile_parser().parse_args(list(argv))
    if not _check_abbr("profile", args.abbr):
        return 2
    config = bench_config(args.sms)
    arches = tuple(args.arches) if args.arches else ALL_ARCHES

    # Profiling wants live numbers, so the result cache stays off — a
    # cache hit would skip the very phases being measured.
    obs.reset()
    t0 = time.time()
    run_workload(
        factory(args.abbr, args.scale), config=config,
        arch_names=arches, jobs=args.jobs, cache=False,
    )
    wall = time.time() - t0

    snapshot = obs.snapshot()
    meta = {
        "command": "profile",
        "abbr": args.abbr,
        "scale": args.scale,
        "sms": args.sms,
        "arches": list(arches),
        "jobs": args.jobs,
        "wall_s": round(wall, 3),
    }
    print(f"profile: {args.abbr} scale={args.scale} sms={args.sms} "
          f"arches={len(arches)} wall={wall:.2f}s")
    print()
    print(obs_summary(snapshot))
    if args.metrics_out:
        obs.write_metrics(args.metrics_out, meta=meta)
        print()
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cache_command(op: str) -> int:
    cache = cache_from_env() or TraceCache()
    if op == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached entries from {cache.root}")
        return 0
    info = cache.stats()
    print(f"cache root   : {info['root']} (schema v{info['schema']})")
    print(
        f"entries      : {info['entries']}"
        f" ({info['total_bytes'] / 1e6:.1f} MB"
        f" of {info['max_bytes'] / 1e6:.0f} MB cap)"
    )
    for ns, bucket in sorted(info["namespaces"].items()):
        print(
            f"  {ns:<10}: {bucket['entries']} entries,"
            f" {bucket['bytes'] / 1e6:.1f} MB"
        )
    return 0


@contextlib.contextmanager
def _scoped_env(**values: Optional[str]):
    """Set env vars for the duration of one CLI invocation (so nested
    ``run_workload`` calls inside standalone figures see the knobs) and
    restore them afterwards — ``main()`` stays side-effect free for
    callers like the test suite."""
    saved = {k: os.environ.get(k) for k in values}
    try:
        for key, value in values.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        yield
    finally:
        for key, old in saved.items():
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]

    # A bad R2D2_VERIFY would otherwise surface as a traceback from the
    # first kernel launch.
    try:
        verify_enabled()
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2

    # The oracle has its own subcommand tree; dispatch before the figure
    # parser so its flags don't collide with the artifact choices.
    if argv and argv[0] == "oracle":
        from ..oracle.cli import main as oracle_main

        return oracle_main(argv[1:])

    # Profiling has its own positional arguments; dispatch like oracle.
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])

    # Decision-provenance report; dispatch like profile.
    if argv and argv[0] == "explain":
        return explain_main(argv[1:])

    args = build_parser().parse_args(argv)

    if args.artifact == "list":
        print("suite figures  :", ", ".join(SUITE_FIGURES))
        print("standalone     :", ", ".join(STANDALONE_FIGURES))
        print("maintenance    : cache [stats|clear]")
        print("testing        : oracle [fuzz|replay|corpus]")
        print("observability  : profile <abbr> [--metrics-out run.json]")
        print("                 explain <abbr> [--json out.json]"
              " [--html out.html]")
        return 0

    if args.artifact == "cache":
        return _cache_command(args.op or "stats")

    config = bench_config(args.sms)
    names = ALL_NAMES if args.artifact == "all" else [args.artifact]
    use_cache = not args.no_cache

    env = {"R2D2_CACHE": "1" if use_cache else "0"}
    if args.jobs is not None:
        env["R2D2_JOBS"] = str(args.jobs)
    if args.metrics_out:
        obs.reset()
    with _scoped_env(**env):
        suite: Optional[SuiteResults] = None
        if any(n in SUITE_FIGURES for n in names):
            t0 = time.time()
            print(
                f"running suite (scale={args.scale}, {config.num_sms} SMs)"
                " ...",
                file=sys.stderr,
            )
            suite = run_suite(
                abbrs=args.apps, scale=args.scale, config=config,
                jobs=args.jobs, cache=use_cache,
            )
            print(
                f"suite done in {time.time() - t0:.0f}s", file=sys.stderr
            )

        for name in names:
            if name in SUITE_FIGURES:
                table = SUITE_FIGURES[name](suite)
            else:
                table = STANDALONE_FIGURES[name](config, args.scale)
            print()
            print(table.render())

    if args.metrics_out:
        obs.write_metrics(
            args.metrics_out,
            meta={
                "command": "figures",
                "artifacts": names,
                "scale": args.scale,
                "sms": args.sms,
                "apps": args.apps,
                "jobs": args.jobs,
                "cache": use_cache,
            },
        )
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    return 0
