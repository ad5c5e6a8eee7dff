"""Differential-testing oracle for analyzer/transform soundness.

The whole reproduction rests on one claim: every instruction the
analyzer classifies as removable-linear evaluates, for every thread, to
exactly what the removed instruction would have computed.  This package
checks that claim systematically:

- :mod:`repro.oracle.kernelgen` — seeded random kernel generator
  emitting valid ``isa.builder`` kernels from a JSON-serializable spec
  grammar (linear address chains, multi-write registers, predicated
  paths, loops, near-overflow arithmetic, random launch geometry);
- :mod:`repro.oracle.invariants` — a probing executor that captures
  per-warp register values and memory address streams, plus the static
  and dynamic soundness invariants checked against them;
- :mod:`repro.oracle.diff` — the end-to-end differential oracle:
  original vs. R2D2-transformed execution (memory outputs, address
  streams), megawarp vs. serial execution, and production vs.
  reference timing replay;
- :mod:`repro.oracle.shrink` — greedy spec minimizer for failing cases;
- :mod:`repro.oracle.cli` — ``python -m repro oracle {fuzz,replay,corpus}``.

Shrunk counterexamples live in ``tests/corpus/`` and are replayed by CI;
every new one an oracle run finds becomes the next bugfix's worklist.
"""

from .cli import spec_explanation
from .diff import OracleReport, check_spec
from .invariants import Violation
from .kernelgen import KernelGen, build_kernel, generate_spec
from .shrink import shrink_spec

__all__ = [
    "KernelGen",
    "OracleReport",
    "Violation",
    "build_kernel",
    "check_spec",
    "generate_spec",
    "shrink_spec",
    "spec_explanation",
]
