"""Compare two sets of benchmark runs.

    python3 bench/compare.py A.jsonl B.jsonl

Each file holds run records as ``run.py`` appends them to
``.bench_out/runs.jsonl`` (A: the parent commit, B: the change).  For
each workload x end-to-end metric it prints both sides' median and
quartiles over their runs and a verdict against the metric's bound in
``BENCHMARK.json``:

- ``unresolved`` when either side's spread (quartile distance over
  median) is wider than the bound, unless every B run reads better
  than every A run;
- ``worse`` / ``better`` when B's median moved past the bound;
- ``same`` otherwise.

It also checks that runs with the same workload and seed simulated
identical statistics (equal digests), within and across the files.
Exits 1 on any ``worse`` verdict or digest mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]


def load_runs(path: str) -> List[dict]:
    """The file's full-size runs (smoke runs run other apps)."""
    with open(path, encoding="utf-8") as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    return [r for r in runs if not r["smoke"]]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, relative change of B's median, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    if spread > bound:
        improved = all(sign * (y - x) < 0 for x in a for y in b)
        return ("better" if improved else "unresolved"), change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def digest_mismatches(runs_a: List[dict], runs_b: List[dict]) -> List[str]:
    seen: Dict[Tuple[str, int], set] = defaultdict(set)
    for run in runs_a + runs_b:
        seen[(run["workload"], run["seed"])].add(run["digest"])
    return [f"{w} seed {s}: {len(d)} different simulated-stat digests"
            for (w, s), d in sorted(seen.items()) if len(d) > 1]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    bad = False
    print(f"{'workload':<18} {'metric':<16} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'worse by':>8} {'bound':>6}  verdict")
    for workload in sorted({r["workload"] for r in runs_a + runs_b}):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = ([r["metrics"][name]["value"] for r in runs
                     if r["workload"] == workload and not r["trace"]
                     and name in r["metrics"]]
                    for runs in (runs_a, runs_b))
            if not a or not b:
                print(f"{workload:<18} {name:<16} missing runs on "
                      f"{'A' if not a else 'B'}")
                bad = True
                continue
            word, change = verdict(a, b, metric["better"], metric["bound"])
            bad |= word == "worse"
            fa, fb = ("/".join(f"{v:.4g}" for v in quartiles(x))
                      for x in (a, b))
            print(f"{workload:<18} {name:<16} {fa:>30} {fb:>30} "
                  f"{change:>+8.2%} {metric['bound']:>6.0%}  {word} "
                  f"(n={len(a)}/{len(b)})")
    for msg in digest_mismatches(runs_a, runs_b):
        print(f"DIGEST {msg}")
        bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
