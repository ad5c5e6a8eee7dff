"""Suite benchmark: cold figure runs, warm reruns, a traced breakdown.

    python3 bench/run.py --workload table2-affine --seed 0 --seconds 40 --trace 0

Each sample is a fresh process (``figrun.py``).  Cold samples get a
fresh empty cache directory each and repeat until at least ``MIN_COLD``
are done and ``COLD_SHARE`` of ``--seconds`` has passed.  With
``--trace 0``, ``WARM_RUNS`` fully cached reruns follow against the
cache the first cold sample wrote, and the end-to-end metrics are
reported.  With ``--trace 1``, one traced cold run and one traced warm
rerun follow instead, and the per-layer metrics are reported.

Every app of every sample must pass the workload's reference check and
the R2D2-vs-baseline output comparison, reproduce the first cold
sample's simulated statistics exactly and, with seed 0, match
``golden/``.  The last stdout line is the JSON result.  A detailed
record is appended to ``.bench_out/runs.jsonl`` (``compare.py`` reads
it), and traced spans go to ``.bench_out/spans-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import golden  # noqa: E402
import spans  # noqa: E402
import suites  # noqa: E402

MIN_COLD = 3
WARM_RUNS = 10
COLD_SHARE = 0.6
#: Every sample must end by then, so that a run exits within 180 s.
DEADLINE_S = 170.0


def parse_args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(suites.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny scale, 2 apps, one sample of each kind")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def spawn(spec: dict, deadline: float) -> dict:
    """Run one ``figrun.py`` process to completion; its record gains
    ``setup_s``, the time from spawn until the harness was imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    t_spawn = time.monotonic()
    # subprocess.run kills and reaps the child if the timeout expires.
    proc = subprocess.run(
        [sys.executable, str(BENCH / "figrun.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"figure run exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    with open(spec["out"], encoding="utf-8") as fh:
        record = json.load(fh)
    # CLOCK_MONOTONIC is system-wide, so the child's reading compares.
    record["setup_s"] = record.pop("t_imported") - t_spawn
    return record


def run_samples(args, work: Path):
    """All samples of one run: (cold, warm, traced [cold, warm])."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    ids = itertools.count()

    def sample(cache_dir: Path, trace: bool) -> dict:
        cache_dir.mkdir(exist_ok=True)
        spec = {
            "workload": args.workload, "seed": args.seed,
            "smoke": args.smoke, "cache_dir": str(cache_dir),
            "trace": trace, "out": str(work / f"record-{next(ids)}.json"),
        }
        return spawn(spec, deadline)

    min_cold = 1 if args.smoke else MIN_COLD
    budget = 0.0 if args.smoke else COLD_SHARE * args.seconds
    warm_cache = work / "cache-0"
    colds: List[dict] = []
    while len(colds) < min_cold or time.monotonic() - start < budget:
        cache_dir = work / f"cache-{len(colds)}"
        colds.append(sample(cache_dir, trace=False))
        if cache_dir != warm_cache:
            shutil.rmtree(cache_dir)
    if args.trace:
        traced_cache = work / "cache-traced"
        traced = [sample(traced_cache, trace=True),
                  sample(traced_cache, trace=True)]
        return colds, [], traced
    n_warm = 1 if args.smoke else WARM_RUNS
    return colds, [sample(warm_cache, trace=False)
                   for _ in range(n_warm)], []


def app_problems(abbr: str, app: Optional[dict], ref: Optional[dict],
                 gold: Optional[dict]) -> List[str]:
    if app is None:
        return [f"{abbr}: missing from the record"]
    if "error" in app:
        return [f"{abbr} raised: {app['error'].strip().splitlines()[-1]}"]
    problems = []
    if not app["verified"]:
        problems.append(f"{abbr}: not verified")
    if not app["outputs_identical"]:
        problems.append(f"{abbr}: R2D2 outputs differ from the baseline's")
    if ref is not None and "stats" in ref and app["stats"] != ref["stats"]:
        problems.append(
            f"{abbr}: simulated stats differ from the first cold sample")
    if gold is not None:
        problems += golden.check_app(abbr, app["stats"], gold)
    return problems


def check(args, records: List[Tuple[str, dict]]):
    """(attempted app runs, failure messages, figures consistent)."""
    suite = suites.WORKLOADS[args.workload]
    apps = suite.smoke_apps if args.smoke else suite.apps
    gold = (golden.load(args.workload, suite.scale(args.smoke))
            if args.seed == 0 else None)
    ref = records[0][1]
    attempted = 0
    failures: List[str] = []
    for i, (kind, rec) in enumerate(records):
        for abbr in apps:
            attempted += 1
            problems = app_problems(abbr, rec["apps"].get(abbr),
                                    ref["apps"].get(abbr), gold)
            if problems:
                failures.append(f"sample {i} ({kind}): "
                                + "; ".join(problems[:5]))
    figures_ok = all(r["figures_sha"] == ref["figures_sha"]
                     for _, r in records)
    return attempted, failures, figures_ok


def summarize(samples: List[float], unit: str) -> dict:
    return {"value": statistics.median(samples), "unit": unit,
            "n": len(samples), "max": max(samples), "samples": samples}


def end_to_end(colds: List[dict], warms: List[dict]) -> Dict[str, dict]:
    walls = [r["wall_s"] for r in colds]
    return {
        "cold_wall_s": summarize(walls, "s"),
        "sim_kwarp_per_s": summarize(
            [colds[0]["kwarp"] / w for w in walls], "kinstr/s"),
        "warm_rerun_s": summarize([r["wall_s"] for r in warms], "s"),
        "setup_s": summarize([r["setup_s"] for r in colds + warms], "s"),
        "peak_rss_mb": summarize([r["peak_rss_mb"] for r in colds], "MB"),
    }


def per_layer(colds: List[dict], traced: List[dict]) -> Dict[str, dict]:
    untraced = statistics.median(r["wall_s"] for r in colds)
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in sorted(
            spans.layer_metrics(traced[0], traced[1], untraced).items())
    }


def print_table(metrics: Dict[str, dict]) -> None:
    print(f"{'metric':<38} {'value':>14} {'unit':<10} {'n':>3} "
          f"{'max':>12}  paper")
    for name, m in metrics.items():
        n = m.get("n", "")
        top = f"{m['max']:.6g}" if "max" in m else ""
        paper = spans.PAPER.get(name, "")
        print(f"{name:<38} {m['value']:>14.6g} {m['unit']:<10} {n:>3} "
              f"{top:>12}  {paper}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        colds, warms, traced = run_samples(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = ([("cold", r) for r in colds] + [("warm", r) for r in warms]
               + list(zip(("traced cold", "traced warm"), traced)))
    attempted, failures, figures_ok = check(args, records)
    for msg in failures[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    if not figures_ok:
        print("FAIL rendered figures differ between samples",
              file=sys.stderr)
    if args.trace:
        metrics = per_layer(colds, traced)
        with open(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json",
                  "w", encoding="utf-8") as fh:
            json.dump({"cold": traced[0]["spans"],
                       "warm": traced[1]["spans"]}, fh)
    else:
        metrics = end_to_end(colds, warms)
    print_table(metrics)

    correct = not failures and figures_ok
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "correct": correct, "attempted": attempted,
        "failed": len(failures), "failures": failures[:20],
        "digest": golden.digest(
            {a: app.get("stats") for a, app in colds[0]["apps"].items()}),
        "metrics": metrics,
    }
    with open(OUT_DIR / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(detail) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
