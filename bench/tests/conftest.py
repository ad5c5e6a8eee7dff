"""Make the benchmark modules and the ``repro`` package importable.

Run with ``python3 -m pytest bench/tests`` from the repository root;
these tests are not part of the tier-1 suite (``testpaths = tests``).
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
