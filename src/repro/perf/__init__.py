"""Simulation performance subsystem.

Three cooperating layers keep full-suite runs tractable as grids grow
toward the paper's TITAN-V configuration (see docs/PERFORMANCE.md):

- :mod:`repro.sim.timing_fast` — the event-driven timing engine with
  SM cloning inside :class:`repro.sim.timing.TimingSimulator`;
- :mod:`repro.perf.parallel` — the one process fan-out ``run_suite``
  and ``run_workload`` share (``--jobs`` / ``R2D2_JOBS``);
- :mod:`repro.perf.trace_cache` — the persistent content-addressed
  result cache (``R2D2_CACHE`` / ``R2D2_CACHE_DIR``).
"""

from .parallel import (
    PARALLEL_FALLBACK_ERRORS,
    TASK_TIMEOUT_ERRORS,
    PoolSetupError,
    fallback_reason,
    fan_out,
    is_parallel_fallback,
    make_pool,
    record_demotion,
    resolve_jobs,
    task_timeout,
)
from .trace_cache import (
    SCHEMA_VERSION,
    TraceCache,
    cache_from_env,
    default_cache_dir,
    functional_trace_key,
    resolve_cache,
    workload_result_key,
)

__all__ = [
    "PARALLEL_FALLBACK_ERRORS",
    "PoolSetupError",
    "SCHEMA_VERSION",
    "TASK_TIMEOUT_ERRORS",
    "TraceCache",
    "cache_from_env",
    "default_cache_dir",
    "fallback_reason",
    "fan_out",
    "functional_trace_key",
    "is_parallel_fallback",
    "make_pool",
    "record_demotion",
    "resolve_cache",
    "resolve_jobs",
    "task_timeout",
    "workload_result_key",
]
