"""Shared-memory bank-conflict model tests."""

import numpy as np
import pytest

from repro.isa import DType, KernelBuilder, Param
from repro.sim import Device, TimingSimulator, tiny
from repro.sim.trace import bank_conflict_rows

from . import trace_oracles as oracle
from .trace_oracles import records


def bank_conflict_degree(addrs):
    """The per-record reference's degree for one access, after checking
    that the row function finds the same for those lanes (inactive
    lanes all hit bank 0, which it must ignore)."""
    addrs = np.asarray(addrs, dtype=np.int64)
    degree = oracle.bank_conflict_degree(addrs)
    full = 128 * np.arange(32, dtype=np.int64)[None, :] + (1 << 20)
    full[0, :addrs.size] = addrs
    active = np.arange(32)[None, :] < addrs.size
    assert bank_conflict_rows(full, active).tolist() == [degree]
    return degree


class TestConflictDegree:
    def test_consecutive_words_conflict_free(self):
        addrs = 4 * np.arange(32)
        assert bank_conflict_degree(addrs) == 1

    def test_same_word_broadcast_is_free(self):
        addrs = np.full(32, 128)
        assert bank_conflict_degree(addrs) == 1

    def test_stride_two_gives_two_way(self):
        addrs = 8 * np.arange(32)  # stride 2 words: banks 0,2,4,...
        assert bank_conflict_degree(addrs) == 2

    def test_stride_32_words_fully_serializes(self):
        addrs = 128 * np.arange(32)  # all lanes hit bank 0
        assert bank_conflict_degree(addrs) == 32

    def test_empty(self):
        assert bank_conflict_degree(np.array([], dtype=np.int64)) == 1

    def test_partial_warp(self):
        addrs = 128 * np.arange(7)
        assert bank_conflict_degree(addrs) == 7


class TestConflictTiming:
    def _shared_kernel(self, stride_words: int):
        b = KernelBuilder(
            "smem",
            params=[Param("out", is_pointer=True)],
            shared_mem_bytes=64 * 1024,
        )
        out = b.param(0)
        t = b.tid_x()
        word = b.mul(t, stride_words)
        saddr = b.cvt(b.shl(word, 2), DType.S64)
        b.st_shared(saddr, t, DType.S32)
        b.bar()
        v = b.ld_shared(saddr, DType.S32)
        b.st_global(b.addr(out, t, 4), v, DType.S32)
        return b.build()

    def _run(self, stride_words: int):
        dev = Device(tiny())
        d = dev.alloc(4 * 256)
        trace = dev.launch(
            self._shared_kernel(stride_words), 1, 256, (d,)
        )
        res = TimingSimulator(tiny(), trace).run()
        got = dev.download(d, 256, np.int32)
        assert np.array_equal(got, np.arange(256, dtype=np.int32))
        return trace, res

    def test_records_carry_conflict_degree(self):
        trace, _ = self._run(32)
        shared_records = [
            r for _b, _w, r in records(trace) if r.shared
        ]
        assert shared_records
        assert max(r.bank_conflict for r in shared_records) == 32

    def test_conflicted_access_is_slower(self):
        _, clean = self._run(1)
        _, conflicted = self._run(32)
        assert conflicted.cycles > clean.cycles

    def test_conflict_free_records(self):
        trace, _ = self._run(1)
        shared_records = [
            r for _b, _w, r in records(trace) if r.shared
        ]
        assert all(r.bank_conflict == 1 for r in shared_records)
