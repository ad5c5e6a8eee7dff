"""SSSP's reference check stops relaxing once a round changes nothing;
the full-round loop it replaced must give the same distances."""

import numpy as np
import pytest

from repro.sim import Device, tiny
from repro.workloads import factory
from repro.workloads.graph.sssp import INF


def _bellman_ford_all_rounds(w, rounds: int) -> np.ndarray:
    """Every round runs, converged or not."""
    dist = np.full(w.n, np.int64(INF))
    dist[0] = 0
    for _ in range(rounds):
        snapshot = dist.copy()
        for u in range(w.n):
            if snapshot[u] >= INF:
                continue
            for e in range(w.row_ptr[u], w.row_ptr[u + 1]):
                v = w.col_idx[e]
                cand = snapshot[u] + w.weights[e]
                if cand < dist[v]:
                    dist[v] = cand
    return dist


@pytest.fixture(scope="module")
def sssp():
    w = factory("SSSP", "tiny")()
    w.prepare(Device(tiny()))
    return w


@pytest.mark.parametrize("rounds", ["limited", "exact"])
def test_early_exit_matches_all_rounds(sssp, rounds):
    r = sssp.rounds if rounds == "limited" else sssp.n
    assert np.array_equal(
        sssp._bellman_ford(r), _bellman_ford_all_rounds(sssp, r)
    )


def test_exact_distances_converge_well_before_n_rounds(sssp):
    # The graph's shortest paths have far fewer hops than vertices, so
    # the exact reference stops early.
    depth = next(
        r for r in range(1, sssp.n + 1)
        if np.array_equal(
            _bellman_ford_all_rounds(sssp, r),
            _bellman_ford_all_rounds(sssp, r + 1),
        )
    )
    assert depth < sssp.n // 4
    assert np.array_equal(
        sssp._bellman_ford(depth), sssp._bellman_ford(sssp.n)
    )
