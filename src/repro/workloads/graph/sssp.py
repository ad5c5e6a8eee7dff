"""GraphBIG SSSP: Bellman-Ford-style relaxation rounds with atomic min
(the paper's most irregular app — R2D2 finds little linearity here and
its gain is small, Section 5.2)."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ...isa import AtomOp, CmpOp, DType, KernelBuilder, Param
from ..base import LaunchSpec, Workload, assert_equal
from ..rodinia.bfs import make_graph

INF = np.int32(1 << 29)


def sssp_kernel():
    b = KernelBuilder(
        "sssp_relax",
        params=[
            Param("row_ptr", is_pointer=True),
            Param("col_idx", is_pointer=True),
            Param("weights", is_pointer=True),
            Param("dist", is_pointer=True),
            Param("n", DType.S32),
        ],
    )
    rp, ci, wt, dist = (b.param(i) for i in range(4))
    n = b.param(4)
    u = b.global_tid_x()
    ok = b.setp(CmpOp.LT, u, n)
    with b.if_then(ok):
        du = b.ld_global(b.addr(dist, u, 4), DType.S32)
        reachable = b.setp(CmpOp.LT, du, int(INF))
        with b.if_then(reachable):
            a = b.addr(rp, u, 4)
            start = b.ld_global(a, DType.S32)
            end = b.ld_global(a, DType.S32, disp=4)
            ci_ptr = b.addr(ci, start, 4)
            wt_ptr = b.addr(wt, start, 4)
            with b.for_range(start, end):
                v = b.ld_global(ci_ptr, DType.S32)
                w = b.ld_global(wt_ptr, DType.S32)
                b.add_to(ci_ptr, ci_ptr, 4)
                b.add_to(wt_ptr, wt_ptr, 4)
                cand = b.add(du, w)
                b.atom_global(AtomOp.MIN, b.addr(dist, v, 4), cand,
                              DType.S32)
    return b.build()


class SSSPWorkload(Workload):
    name = "shortest-path"
    abbr = "SSSP"
    suite = "graphBig"

    @classmethod
    def scales(cls) -> Dict[str, Dict[str, object]]:
        return {
            "tiny": {"n": 512, "avg_deg": 3, "rounds": 3},
            "small": {"n": 4096, "avg_deg": 4, "rounds": 4},
        }

    def prepare(self, device) -> List[LaunchSpec]:
        n = self.n = int(self.params["n"])
        rounds = self.rounds = int(self.params["rounds"])
        self.row_ptr, self.col_idx = make_graph(
            self.rng, n, int(self.params["avg_deg"])
        )
        nnz = len(self.col_idx)
        self.weights = self.rand_s32(1, 100, nnz)
        dist = np.full(n, INF, dtype=np.int32)
        dist[0] = 0
        self.d_rp = device.upload(self.row_ptr)
        self.d_ci = device.upload(self.col_idx)
        self.d_wt = device.upload(self.weights)
        self.d_dist = device.upload(dist)
        self.track_output(self.d_dist, n, np.int32)
        kernel = sssp_kernel()
        return [
            LaunchSpec(kernel, grid=(n + 255) // 256, block=256,
                       args=(self.d_rp, self.d_ci, self.d_wt,
                             self.d_dist, n))
            for _ in range(rounds)
        ]

    def check(self, device) -> None:
        got = device.download(self.d_dist, self.n, np.int32)
        # After R rounds every vertex must be <= the best distance over
        # paths of <= R hops (the GPU may do better within a round since
        # earlier warps' relaxations are visible to later warps), and no
        # distance may beat the true shortest path.
        limited = self._bellman_ford(self.rounds)
        exact = self._bellman_ford(self.n)
        assert (got <= limited).all(), "worse than round-limited BF"
        assert (got >= exact).all(), "beats true shortest path"

    def _bellman_ford(self, rounds: int):
        """Distances after ``rounds`` synchronous relaxation rounds.
        A round reads only its snapshot, so once one changes nothing
        every later round is a no-op and the loop stops there."""
        dist = np.full(self.n, np.int64(INF))
        dist[0] = 0
        for _ in range(rounds):
            snapshot = dist.copy()
            for u in range(self.n):
                if snapshot[u] >= INF:
                    continue
                for e in range(self.row_ptr[u], self.row_ptr[u + 1]):
                    v = self.col_idx[e]
                    cand = snapshot[u] + self.weights[e]
                    if cand < dist[v]:
                        dist[v] = cand
            if np.array_equal(dist, snapshot):
                break
        return dist
