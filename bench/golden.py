"""Golden simulated statistics for seed 0.

``golden/<workload>.json`` holds every ``ArchStats`` field of every app x
architecture of one seed-0 run at the benchmark's own sizes.  A run
with seed 0 must reproduce it: integer fields exactly, energy to
``REL_TOL`` relative (the contract of the dedup engine's SM cloning,
whose energy may differ from the reference order in the last ULPs).

Regenerate with ``python3 bench/golden.py``, only in a change of its
own: the file is what proves later changes behaviour-neutral.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH / "golden"
REL_TOL = 1e-9


def digest(obj) -> str:
    """sha256 of ``obj``'s canonical JSON (floats round-trip exactly)."""
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()


def load(workload: str, scale: str) -> Optional[dict]:
    """The golden app -> arch -> stats map for ``workload``, or None when
    there is none for ``scale`` (smoke runs use other sizes)."""
    path = GOLDEN_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["apps"] if doc.get("scale") == scale else None


def check_app(abbr: str, got: Dict[str, dict], golden: dict) -> List[str]:
    """Mismatches of one app's per-arch stats against the golden map,
    each naming the app, architecture and field."""
    want = golden.get(abbr)
    if want is None:
        return [f"{abbr}: no golden entry"]
    problems: List[str] = []
    for arch in sorted(set(want) | set(got)):
        if arch not in got or arch not in want:
            problems.append(f"{abbr}/{arch}: architecture missing from "
                            f"{'run' if arch not in got else 'golden'}")
            continue
        _diff(f"{abbr}/{arch}", got[arch], want[arch], problems)
    return problems


def _diff(path: str, got: dict, want: dict, out: List[str]) -> None:
    for field in sorted(set(got) | set(want)):
        g, w = got.get(field), want.get(field)
        where = f"{path}/{field}"
        if isinstance(g, dict) and isinstance(w, dict):
            _diff(where, g, w, out)
        elif isinstance(g, float) or isinstance(w, float):
            numbers = all(isinstance(x, (int, float)) for x in (g, w))
            if not (numbers and math.isclose(g, w, rel_tol=REL_TOL)):
                out.append(f"{where}: got {g!r}, golden {w!r}")
        elif g != w:
            out.append(f"{where}: got {g!r}, golden {w!r}")


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    sys.path.insert(0, str(BENCH))
    import figrun
    import suites

    out_dir = BENCH.parent / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for name, suite in suites.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=out_dir) as cache_dir:
            record = figrun.figure_run({
                "workload": name, "seed": 0, "smoke": False,
                "cache_dir": cache_dir, "trace": False,
            })
        apps = {}
        for abbr, app in record["apps"].items():
            if "stats" not in app or not (app["verified"]
                                          and app["outputs_identical"]):
                print(f"{name}/{abbr} failed; golden not written",
                      file=sys.stderr)
                return 1
            apps[abbr] = app["stats"]
        doc = {"workload": name, "scale": suite.scale(False), "seed": 0,
               "apps": apps}
        with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote golden/{name}.json ({len(apps)} apps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
