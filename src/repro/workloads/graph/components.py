"""GraphBIG connected components: label propagation with atomic min."""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ...isa import AtomOp, CmpOp, DType, KernelBuilder, Param
from ..base import LaunchSpec, Workload, assert_equal
from ..rodinia.bfs import make_graph


def cc_kernel():
    b = KernelBuilder(
        "cc_propagate",
        params=[
            Param("row_ptr", is_pointer=True),
            Param("col_idx", is_pointer=True),
            Param("labels", is_pointer=True),
            Param("changed", is_pointer=True),
            Param("n", DType.S32),
        ],
    )
    rp, ci, lbl, chg = (b.param(i) for i in range(4))
    n = b.param(4)
    u = b.global_tid_x()
    ok = b.setp(CmpOp.LT, u, n)
    with b.if_then(ok):
        my = b.ld_global(b.addr(lbl, u, 4), DType.S32)
        a = b.addr(rp, u, 4)
        start = b.ld_global(a, DType.S32)
        end = b.ld_global(a, DType.S32, disp=4)
        ci_ptr = b.addr(ci, start, 4)
        with b.for_range(start, end):
            v = b.ld_global(ci_ptr, DType.S32)
            b.add_to(ci_ptr, ci_ptr, 4)
            old = b.atom_global(AtomOp.MIN, b.addr(lbl, v, 4), my,
                                DType.S32)
            lowered = b.setp(CmpOp.LT, my, old)
            with b.if_then(lowered):
                b.st_global(b.addr(chg, b.mov(0), 4), 1, DType.S32)
    return b.build()


class ConnectedComponentsWorkload(Workload):
    name = "connected-components"
    abbr = "CCMP"
    suite = "graphBig"

    @classmethod
    def scales(cls) -> Dict[str, Dict[str, object]]:
        return {
            "tiny": {"n": 512, "avg_deg": 3, "rounds": 2},
            "small": {"n": 4096, "avg_deg": 4, "rounds": 3},
        }

    def prepare(self, device) -> List[LaunchSpec]:
        n = self.n = int(self.params["n"])
        rounds = self.rounds = int(self.params["rounds"])
        self.row_ptr, self.col_idx = make_graph(
            self.rng, n, int(self.params["avg_deg"])
        )
        self.d_rp = device.upload(self.row_ptr)
        self.d_ci = device.upload(self.col_idx)
        self.d_lbl = device.upload(np.arange(n, dtype=np.int32))
        self.d_chg = device.upload(np.zeros(1, dtype=np.int32))
        self.track_output(self.d_lbl, n, np.int32)
        kernel = cc_kernel()
        return [
            LaunchSpec(kernel, grid=(n + 255) // 256, block=256,
                       args=(self.d_rp, self.d_ci, self.d_lbl,
                             self.d_chg, n))
            for _ in range(rounds)
        ]

    def check(self, device) -> None:
        got = device.download(self.d_lbl, self.n, np.int32)
        # Propagation with atomics is order-dependent within a round but
        # monotone; the fixed-point after enough rounds is unique.  For a
        # bounded-round check we verify monotone validity instead of an
        # exact match: every label is <= its initial id and >= the true
        # component minimum, and labels only refer to real vertices.
        assert (got <= np.arange(self.n)).all(), "labels must not grow"
        assert (got >= 0).all()
        true_min = self._component_minima()
        assert (got >= true_min).all(), "labels below component minimum"

    def _component_minima(self):
        # union-find over undirected closure of the edges
        parent = np.arange(self.n)

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u in range(self.n):
            for e in range(self.row_ptr[u], self.row_ptr[u + 1]):
                v = int(self.col_idx[e])
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[max(ru, rv)] = min(ru, rv)
        minima = np.empty(self.n, dtype=np.int32)
        for u in range(self.n):
            minima[u] = find(u)
        return minima
