#!/usr/bin/env python3
"""Benchmark-regression gate over pytest-benchmark JSON artifacts.

Usage::

    PYTHONPATH=src python -m pytest benchmarks -q \
        --benchmark-json=BENCH_sim.json
    python benchmarks/compare.py BENCH_sim.json \
        benchmarks/baseline/BENCH_sim.json [--threshold 0.25]

Two independent checks, both of which must pass:

1. **Baseline regression** — every benchmark present in both files must
   not be more than ``threshold`` (fraction, default 0.25) slower than
   the committed baseline's mean.  Absolute times are machine-dependent,
   so CI sets a looser threshold via ``--threshold`` / the
   ``BENCH_COMPARE_THRESHOLD`` env var; the committed baseline gates
   like-for-like reruns on a developer machine.
2. **Engine speedup pairs** — for each family ``f`` of
   :data:`SPEEDUP_PAIRS`, every ``test_<stem>_<f>_on`` / ``_off`` pair
   in the current run must show at least ``--min-<f>-speedup``
   (``$BENCH_MIN_<F>_SPEEDUP`` overrides the table default), and must
   not fall below 85%% of the speedup committed in
   ``--<f>-baseline`` (default ``benchmarks/baseline/BENCH_<f>.json``;
   ``/dev/null`` disables this retain gate).  ``--<f>-out PATH``
   merge-updates that artifact with the measured seconds and speedup
   per stem.  The families: ``vector`` (megawarp vs serial
   interpretation), ``shard`` (parallel vs serial suite run;
   the ``minisuite`` stem needs real cores and skips itself on
   single-core boxes), ``timing`` (event-driven engine with SM cloning
   vs reference timing loop, on the divergent ``dyntrip`` and the
   regular ``vadd`` trace), ``reduction`` (megawarp vs serial on the
   divergent shared-memory reduction tree).

Exit status 0 on pass, 1 on regression, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional

#: Fraction of the committed speedup the current run must retain.
SPEEDUP_RETAIN = 0.85

#: ``(family, off_key, on_key, default_min)`` per on/off speedup family:
#: benchmarks named ``test_<stem>_<family>_on`` / ``_off``, the seconds
#: columns of their committed artifact, and the required speedup.
SPEEDUP_PAIRS = (
    ("vector", "serial_s", "vector_s", 5.0),
    ("shard", "serial_s", "sharded_s", 2.0),
    ("timing", "reference_s", "fast_s", 5.0),
    ("reduction", "serial_s", "vector_s", 4.0),
)


def load_means(path: str) -> Dict[str, float]:
    with open(path) as fh:
        data = json.load(fh)
    means = {}
    for bench in data.get("benchmarks", []):
        means[bench["name"]] = float(bench["stats"]["mean"])
    return means


def on_off_pairs(
    means: Dict[str, float], family: str, off_key: str, on_key: str,
) -> Dict[str, Dict[str, float]]:
    """``{stem: {off_key, on_key, speedup}}`` for every complete
    ``test_<stem>_<family>_on/_off`` pair in a benchmark run."""
    on_suffix = f"_{family}_on"
    pairs: Dict[str, Dict[str, float]] = {}
    for name, on_mean in means.items():
        if not name.endswith(on_suffix):
            continue
        stem = name[len("test_"):-len(on_suffix)]
        off_mean = means.get(f"test_{stem}_{family}_off")
        if off_mean is None:
            continue
        pairs[stem] = {
            off_key: off_mean,
            on_key: on_mean,
            "speedup": round(off_mean / on_mean, 2),
        }
    return pairs


def _gate_pairs(
    label: str,
    pairs: Dict[str, Dict[str, float]],
    off_key: str,
    on_key: str,
    min_speedup: float,
    baseline_path: str,
    out_path: Optional[str],
) -> bool:
    """Print and evaluate one speedup-pair family; returns True when
    any pair fails the minimum or the committed retain gate."""
    failed = False
    committed: Dict[str, Dict[str, float]] = {}
    if pairs:
        try:
            with open(baseline_path) as fh:
                committed = json.load(fh)
        except (OSError, ValueError):
            committed = {}  # first run: nothing committed yet
    for stem in sorted(pairs):
        cur = pairs[stem]
        ok = cur["speedup"] >= min_speedup
        detail = (
            f"{label} {stem}: {cur['speedup']:.2f}x"
            f" ({cur[off_key] * 1e3:.1f} ms serial ->"
            f" {cur[on_key] * 1e3:.1f} ms)"
            f" (required >= {min_speedup:.1f}x"
        )
        old = committed.get(stem, {}).get("speedup")
        if old is not None:
            floor = old * SPEEDUP_RETAIN
            ok = ok and cur["speedup"] >= floor
            detail += f", committed {old:.2f}x -> floor {floor:.2f}x"
        detail += ")"
        print(f"{'ok' if ok else 'REGRESSION':>10}  {detail}")
        failed = failed or not ok

    if out_path and pairs:
        merged: Dict[str, Dict[str, float]] = {}
        try:
            with open(out_path) as fh:
                merged = json.load(fh)
        except (OSError, ValueError):
            merged = {}
        merged.update(pairs)
        with open(out_path, "w") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{'wrote':>10}  {out_path}"
              f" ({len(pairs)} pair(s) updated)")
    return failed


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh BENCH_sim.json")
    parser.add_argument(
        "baseline", nargs="?", default="benchmarks/baseline/BENCH_sim.json",
        help="committed baseline JSON (default: %(default)s)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("BENCH_COMPARE_THRESHOLD", "0.25")),
        help="max fractional slowdown vs baseline (default: 0.25, i.e. "
             "fail when >25%% slower; $BENCH_COMPARE_THRESHOLD overrides)",
    )
    for family, _, _, default_min in SPEEDUP_PAIRS:
        env = f"BENCH_MIN_{family.upper()}_SPEEDUP"
        parser.add_argument(
            f"--min-{family}-speedup",
            type=float,
            default=float(os.environ.get(env, default_min)),
            help=f"required {family} on-vs-off speedup per pair "
                 f"(default: {default_min}; ${env} overrides)",
        )
        parser.add_argument(
            f"--{family}-baseline",
            default=f"benchmarks/baseline/BENCH_{family}.json",
            help=f"committed {family}-speedup artifact "
                 "(default: %(default)s)",
        )
        parser.add_argument(
            f"--{family}-out", metavar="PATH", default=None,
            help=f"merge-update PATH with the measured {family} "
                 "speedups from the current run",
        )
    parser.add_argument(
        "--allow-missing-baseline", action="store_true",
        help="pass the baseline check when the baseline file is absent",
    )
    args = parser.parse_args(argv)

    try:
        current = load_means(args.current)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read {args.current}: {exc}", file=sys.stderr)
        return 2

    failed = False

    # -- check 1: regression vs committed baseline ----------------------
    try:
        baseline = load_means(args.baseline)
    except OSError as exc:
        if args.allow_missing_baseline:
            print(f"note: no baseline ({exc}); skipping regression check")
            baseline = {}
        else:
            print(
                f"error: cannot read baseline {args.baseline}: {exc}",
                file=sys.stderr,
            )
            return 2
    except (ValueError, KeyError) as exc:
        print(
            f"error: malformed baseline {args.baseline}: {exc}",
            file=sys.stderr,
        )
        return 2

    for name in sorted(set(current) & set(baseline)):
        ratio = current[name] / baseline[name]
        status = "ok"
        if ratio > 1.0 + args.threshold:
            status = "REGRESSION"
            failed = True
        print(
            f"{status:>10}  {name}: {current[name] * 1e3:.3f} ms"
            f" vs baseline {baseline[name] * 1e3:.3f} ms"
            f" ({ratio:.2f}x)"
        )
    for name in sorted(set(current) - set(baseline)):
        print(f"{'new':>10}  {name}: {current[name] * 1e3:.3f} ms")

    # -- check 2: engine speedup pairs (ratio + committed retain gate) --
    opts = vars(args)
    for family, off_key, on_key, _ in SPEEDUP_PAIRS:
        failed |= _gate_pairs(
            family, on_off_pairs(current, family, off_key, on_key),
            off_key, on_key,
            opts[f"min_{family}_speedup"],
            opts[f"{family}_baseline"], opts[f"{family}_out"],
        )

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
