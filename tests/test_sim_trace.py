"""Tests for trace containers and memory-access coalescing."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import Dim3, Kernel, LaunchConfig
from repro.sim import BlockTrace, KernelTrace, WarpTrace
from repro.sim.trace import coalesce_rows

from . import trace_oracles as oracle


def coalesce(addrs):
    """The per-record reference's lines for one access, after checking
    that the row function finds the same ones for those lanes (inactive
    lanes hold a far-away address it must ignore)."""
    addrs = np.asarray(addrs, dtype=np.int64)
    lines = oracle.coalesce(addrs)
    full = np.full((1, 32), 1 << 40, dtype=np.int64)
    full[0, :addrs.size] = addrs
    active = np.arange(32)[None, :] < addrs.size
    n_lines, flat = coalesce_rows(full, active)
    assert n_lines.tolist() == [len(lines)]
    assert tuple(flat.tolist()) == lines
    return lines


class TestCoalesce:
    def test_consecutive_f32_lane_accesses_one_line(self):
        addrs = 1024 + 4 * np.arange(32)
        assert len(coalesce(addrs)) == 1

    def test_unaligned_base_spans_two_lines(self):
        addrs = 1000 + 4 * np.arange(32)
        assert len(coalesce(addrs)) == 2

    def test_strided_access_many_lines(self):
        addrs = 1024 + 128 * np.arange(32)
        assert len(coalesce(addrs)) == 32

    def test_same_address_all_lanes_one_line(self):
        addrs = np.full(32, 4096)
        assert len(coalesce(addrs)) == 1

    def test_empty(self):
        assert coalesce(np.array([], dtype=np.int64)) == ()

    def test_line_addresses_are_aligned(self):
        addrs = np.array([130, 260, 513])
        lines = coalesce(addrs)
        assert all(line % 128 == 0 for line in lines)

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=32))
    def test_line_count_bounded_by_lanes(self, addrs):
        lines = coalesce(np.array(addrs))
        assert 1 <= len(lines) <= len(addrs)
        assert list(lines) == sorted(set(lines))


class TestTraceContainers:
    def _trace(self):
        kernel = Kernel("k", [], [], {})
        trace = KernelTrace(
            kernel, LaunchConfig(Dim3(2), Dim3(64), ())
        )
        for blk in range(2):
            block = BlockTrace(blk, (blk, 0, 0))
            for w in range(2):
                block.warps.append(WarpTrace(blk, w))
            trace.blocks.append(block)
        # (pc, active, uniform, affine, src_hash, shared, bank, lines)
        oracle.set_rows(trace, [
            [
                (0, 32, False, False, None, False, 1, None),
                (1, 16, True, False, 7, False, 1, (128, 256)),
            ]
            for _ in range(4)
        ])
        return trace

    def test_warp_instruction_count(self):
        assert self._trace().warp_instruction_count() == 8

    def test_thread_instruction_count(self):
        assert self._trace().thread_instruction_count() == 4 * (32 + 16)

    def test_records_iterates_all(self):
        trace = self._trace()
        warps = [w for b in trace.blocks for w in b.warps]
        assert [(w.start, w.stop) for w in warps] == [
            (0, 2), (2, 4), (4, 6), (6, 8)
        ]
        assert len(trace.cols) == sum(len(w) for w in warps) == 8
        assert trace.row_blocks().tolist() == [0] * 4 + [1] * 4

    def test_columns_keep_record_fields(self):
        cols = self._trace().cols
        assert cols.pc.tolist() == [0, 1] * 4
        assert cols.uniform.tolist() == [False, True] * 4
        assert cols.hashed.tolist() == [False, True] * 4
        assert cols.src_hash.tolist() == [0, 7] * 4
        assert cols.n_lines.tolist() == [0, 2] * 4
        assert cols.row_lines(1) == (128, 256)
        assert cols.row_lines(0) == ()

    def test_take_reorders_line_segments(self):
        cols = self._trace().cols
        rev = cols.take(np.arange(len(cols))[::-1])
        assert rev.pc.tolist() == [1, 0] * 4
        assert rev.row_lines(0) == (128, 256)
        assert rev.row_lines(1) == ()
        assert rev.lines.tolist() == [128, 256] * 4
