"""Simulation performance subsystem.

Four cooperating layers keep full-suite runs tractable as grids grow
toward the paper's TITAN-V configuration (see docs/PERFORMANCE.md):

- :mod:`repro.sim.timing_fast` — the event-driven timing engine with
  SM cloning inside :class:`repro.sim.timing.TimingSimulator`;
- :mod:`repro.perf.parallel` — process fan-out knobs shared by
  ``run_workload`` / ``run_suite`` (``--jobs`` / ``R2D2_JOBS``);
- :mod:`repro.perf.trace_cache` — the persistent content-addressed
  result cache (``R2D2_CACHE`` / ``R2D2_CACHE_DIR``);
- :mod:`repro.perf.shard` — the sharded suite scheduler (LPT placement
  from historical cost, work stealing, incremental reruns keyed by the
  trace cache; ``--shard-plan``).
"""

from .parallel import (
    PARALLEL_FALLBACK_ERRORS,
    TASK_TIMEOUT_ERRORS,
    PoolSetupError,
    fallback_reason,
    is_parallel_fallback,
    make_pool,
    record_demotion,
    resolve_jobs,
    task_timeout,
)
from .shard import (
    SHARD_PLANS,
    CostModel,
    ShardCell,
    ShardReport,
    ShardScheduler,
    arch_groups,
    lpt_assign,
    merge_suite,
    plan_cells,
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
    "CostModel",
    "PARALLEL_FALLBACK_ERRORS",
    "PoolSetupError",
    "SCHEMA_VERSION",
    "SHARD_PLANS",
    "ShardCell",
    "ShardReport",
    "ShardScheduler",
    "TASK_TIMEOUT_ERRORS",
    "TraceCache",
    "arch_groups",
    "cache_from_env",
    "default_cache_dir",
    "fallback_reason",
    "functional_trace_key",
    "is_parallel_fallback",
    "lpt_assign",
    "make_pool",
    "merge_suite",
    "plan_cells",
    "record_demotion",
    "resolve_cache",
    "resolve_jobs",
    "task_timeout",
    "workload_result_key",
]
