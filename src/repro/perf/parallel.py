"""Process fan-out shared by the harness runners.

``run_workload`` and ``run_suite`` accept a ``jobs`` argument; when it is
left ``None`` the ``R2D2_JOBS`` environment variable decides (the CLI
``--jobs`` flag sets both).  ``jobs <= 1`` means strictly serial
execution, which is also the fallback whenever a process pool cannot be
used — e.g. the workload factory closes over unpicklable state, or the
pool dies — so CI on one core behaves identically to a parallel run.

Both runners fan out through :func:`fan_out`: one pool, cells submitted
and collected in canonical order, worker metrics merged in that order.
``run_suite`` fans out workloads whose workers call
``run_workload(jobs=1)``, so pools never nest; ``run_workload`` fans
out its trace-analyzing architectures.  Cells the pool does not deliver
are recomputed serially by the caller.

Demotion policy: only *pool-infrastructure* failures (pickling, pool
breakage, per-task timeouts, pool start-up) may demote a cell to the
serial path.  A genuine bug raised inside a worker — an
``AttributeError`` from workload code, say — re-raises immediately
instead of silently doubling the wall time with a serial re-run that
hits the same bug.  Pickling failures surface as ``PicklingError`` but
also as bare ``AttributeError``/``TypeError`` from the pickle machinery,
so those two types are classified by message
(:func:`is_parallel_fallback`); ``OSError`` is only a fallback when
raised while *starting* the pool (:func:`make_pool` tags that case as
:class:`PoolSetupError`).  Every demoted cell is recorded in the
observability registry (``parallel.demotions``) and the event log.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import warnings
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Optional, Set, Tuple

from .. import obs


class PoolSetupError(RuntimeError):
    """The process pool could not be started at all (fd/process limits,
    missing /dev/shm, ...) — an infrastructure problem, so the run
    demotes to serial instead of failing."""


#: Both flavours of a per-task timeout.  ``Future.result(timeout=...)``
#: raises ``concurrent.futures.TimeoutError``, which is only an alias of
#: the builtin ``TimeoutError`` from Python 3.11 on — on 3.9/3.10 it is
#: a plain ``Exception`` subclass, so catching the builtin alone lets a
#: timed-out cell abort the whole run instead of demoting it to serial.
TASK_TIMEOUT_ERRORS = (TimeoutError, concurrent.futures.TimeoutError)

#: Pool-infrastructure errors that demote a parallel run to the serial
#: path instead of aborting it.  Exceptions raised *inside* a worker
#: that are not of these types (i.e. real workload/model bugs) re-raise
#: unchanged, without a serial retry.  Bare ``AttributeError`` /
#: ``TypeError`` are deliberately absent: use
#: :func:`is_parallel_fallback`, which admits them only when the message
#: identifies the pickle machinery.
PARALLEL_FALLBACK_ERRORS = (
    pickle.PicklingError,
    BrokenProcessPool,
    PoolSetupError,
) + TASK_TIMEOUT_ERRORS

#: Message fragments that identify pickling failures surfaced as bare
#: ``AttributeError``/``TypeError`` (CPython wording): local/lambda
#: objects, unpicklable types, and worker-side lookup failures.
_PICKLE_HINTS = ("pickle", "can't get attribute", "can't get local")


def is_parallel_fallback(exc: BaseException) -> bool:
    """True iff ``exc`` is a pool-infrastructure failure that should
    demote the run to the serial path (rather than a real bug that must
    propagate)."""
    if isinstance(exc, PARALLEL_FALLBACK_ERRORS):
        return True
    if isinstance(exc, (AttributeError, TypeError)):
        msg = str(exc).lower()
        return any(hint in msg for hint in _PICKLE_HINTS)
    return False


def fallback_reason(exc: BaseException) -> str:
    """Machine-readable slug for a demotion's cause."""
    if isinstance(exc, PoolSetupError):
        return "pool-setup"
    if isinstance(exc, BrokenProcessPool):
        return "broken-pool"
    if isinstance(exc, TASK_TIMEOUT_ERRORS):
        return "task-timeout"
    if isinstance(exc, pickle.PicklingError) or isinstance(
        exc, (AttributeError, TypeError)
    ):
        return "unpicklable"
    return type(exc).__name__.lower()


def record_demotion(site: str, exc: BaseException, **fields: object) -> None:
    """Count one parallel→serial demotion and log it to the event log."""
    reason = fallback_reason(exc)
    obs.inc("parallel.demotions", site=site, reason=reason)
    obs.event(
        "parallel.demotion",
        site=site,
        reason=reason,
        error=f"{type(exc).__name__}: {exc}",
        **fields,
    )


def make_pool(max_workers: int):
    """A ``ProcessPoolExecutor``, with start-up failures tagged as
    :class:`PoolSetupError` so callers can tell infrastructure from
    worker bugs."""
    from concurrent.futures import ProcessPoolExecutor

    try:
        return ProcessPoolExecutor(max_workers=max_workers)
    except OSError as exc:
        raise PoolSetupError(f"cannot start process pool: {exc}") from exc


def _cell_task(fn: Callable, args: tuple) -> Tuple[Any, dict]:
    """One cell in a worker: drop the fork-inherited metrics, run the
    cell, and ship its metric deltas back with the result so the
    parent's totals match a serial run exactly."""
    obs.reset()
    result = fn(*args)
    return result, obs.snapshot_and_reset()


def fan_out(
    site: str, fn: Callable, cells: Dict[str, tuple], jobs: int
) -> Dict[str, Any]:
    """Run ``fn(*args)`` for every ``label: args`` cell in one process
    pool and return ``{label: result}`` for the cells it delivered.

    ``fn`` must be a module-level function so workers can unpickle it.
    Cells are submitted and collected in ``cells`` order, and worker
    metrics merge in that order, so the outcome does not depend on which
    worker finishes first.  With ``jobs <= 1`` or fewer than two cells
    no pool starts and nothing is delivered.  A pool-infrastructure
    failure or an ``R2D2_TASK_TIMEOUT`` expiry demotes just the cells it
    hit (``parallel.demotions{site=...}``); the caller computes every
    missing cell serially.  A genuine worker bug re-raises.
    """
    if jobs <= 1 or len(cells) < 2:
        return {}
    try:
        pool = make_pool(min(jobs, len(cells)))
    except PoolSetupError as exc:
        for label in cells:
            record_demotion(site, exc, cell=label)
        return {}
    timeout = task_timeout()
    out: Dict[str, Any] = {}
    try:
        futures = {}
        for label, args in cells.items():
            try:
                futures[label] = pool.submit(_cell_task, fn, args)
            except BrokenProcessPool as exc:  # an earlier worker died
                record_demotion(site, exc, cell=label)
        for label, future in futures.items():
            try:
                result, blob = future.result(timeout=timeout)
            except Exception as exc:
                if not is_parallel_fallback(exc):
                    raise
                future.cancel()
                record_demotion(site, exc, cell=label)
                continue
            obs.merge(blob)
            out[label] = result
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return out


_warned_jobs: Set[str] = set()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Effective worker count: explicit argument, else ``R2D2_JOBS``,
    else 1 (serial).  An unparsable ``R2D2_JOBS`` degrades to serial
    with a one-time warning (counted as ``parallel.invalid_jobs`` and
    logged to the event log) instead of being silently swallowed."""
    if jobs is None:
        env = os.environ.get("R2D2_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                _warn_invalid_jobs(env)
                jobs = 1
        else:
            jobs = 1
    return max(1, int(jobs))


def _warn_invalid_jobs(value: str) -> None:
    if value in _warned_jobs:
        return
    _warned_jobs.add(value)
    obs.inc("parallel.invalid_jobs")
    obs.event("parallel.invalid-jobs", value=value, effective=1)
    warnings.warn(
        f"R2D2_JOBS={value!r} is not an integer; running serially "
        "(jobs=1)",
        RuntimeWarning,
        stacklevel=3,
    )


_warned_timeouts: Set[str] = set()


def task_timeout() -> Optional[float]:
    """Per-task timeout in seconds (``R2D2_TASK_TIMEOUT``), or None for
    no limit.  A timed-out cell is recomputed serially in the parent.
    An unparsable value degrades to no-limit with a one-time warning
    (counted as ``parallel.invalid_timeout`` and logged to the event
    log), matching the ``R2D2_JOBS`` contract; zero/negative values are
    the documented way to say "no limit" and stay silent."""
    env = os.environ.get("R2D2_TASK_TIMEOUT", "").strip()
    if not env:
        return None
    try:
        value = float(env)
    except ValueError:
        _warn_invalid_timeout(env)
        return None
    return value if value > 0 else None


def _warn_invalid_timeout(value: str) -> None:
    if value in _warned_timeouts:
        return
    _warned_timeouts.add(value)
    obs.inc("parallel.invalid_timeout")
    obs.event("parallel.invalid-timeout", value=value, effective=None)
    warnings.warn(
        f"R2D2_TASK_TIMEOUT={value!r} is not a number; running without "
        "a per-task timeout",
        RuntimeWarning,
        stacklevel=3,
    )
