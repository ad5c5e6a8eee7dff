"""Shared test fixtures.

Correctness tests must recompute everything and never touch (or
pollute) the user's real ``~/.cache/repro``: the perf knobs are reset
and the cache root is redirected into the test's tmp dir, so even tests
that exercise the CLI (which enables caching) stay hermetic.
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_perf_env(monkeypatch, tmp_path):
    monkeypatch.setenv("R2D2_CACHE_DIR", str(tmp_path / "repro-cache"))
    monkeypatch.delenv("R2D2_CACHE", raising=False)
    monkeypatch.delenv("R2D2_JOBS", raising=False)
    monkeypatch.delenv("R2D2_TASK_TIMEOUT", raising=False)
    monkeypatch.delenv("R2D2_CACHE_MAX_MB", raising=False)
