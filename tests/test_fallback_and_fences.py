"""Register-pressure fallback (paper §4.4) and DARSIE's load-memo store
fence."""

import dataclasses

import numpy as np
import pytest

from repro.arch import R2D2Arch
from repro.arch.darsie import skipped_rows
from repro.isa import DType, KernelBuilder, Param
from repro.sim import Cache, Device, tiny
from repro.workloads import factory

from .trace_oracles import darsie_skip_rows


class TestRegisterPressureFallback:
    def _tight_config(self):
        # A register file too small to hold any linear registers.
        return dataclasses.replace(tiny(), registers_per_sm=256)

    def test_fallback_triggers_on_tiny_register_file(self):
        config = self._tight_config()
        dev = Device(config)
        b = KernelBuilder("k", params=[Param("out", is_pointer=True)])
        out = b.param(0)
        i = b.global_tid_x()
        b.st_global(b.addr(out, i, 4), i, DType.S32)
        kernel = b.build()
        arch = R2D2Arch()
        stats = arch.make_stats()
        d = dev.alloc(4 * 512)
        arch.execute_launch(
            dev, kernel, 4, 128, (d,), config, stats,
            l2=Cache(config.l2),
        )
        assert stats.fallback_launches == 1
        # fallback == baseline behaviour: no linear instructions charged
        assert stats.linear_warp_instructions == 0
        # and the kernel still ran correctly
        got = dev.download(d, 512, np.int32)
        assert np.array_equal(got, np.arange(512, dtype=np.int32))

    def test_no_fallback_on_normal_config(self):
        config = tiny()
        dev = Device(config)
        workload = factory("BP", "tiny")()
        launches = workload.prepare(dev)
        arch = R2D2Arch()
        stats = arch.make_stats()
        for spec in launches:
            arch.execute_launch(
                dev, spec.kernel, spec.grid, spec.block, spec.args,
                config, stats, l2=Cache(config.l2),
            )
        assert stats.fallback_launches == 0


class TestDarsieStoreFence:
    def _trace_with_reload(self, store_aliases: bool):
        """Every warp loads the same word from ``buf``; warps also store
        — either into the loaded line (aliasing: the memo must be
        invalidated) or into a distant output buffer (no aliasing: later
        warps may reuse the first warp's load)."""
        dev = Device(tiny())
        b = KernelBuilder(
            "fence",
            params=[Param("buf", is_pointer=True),
                    Param("out", is_pointer=True)],
        )
        buf, out = b.param(0), b.param(1)
        v1 = b.ld_global(buf, DType.S32)
        i = b.global_tid_x()
        if store_aliases:
            b.st_global(buf, b.add(v1, 0), DType.S32, disp=4)
        b.st_global(b.addr(out, i, 4), v1, DType.S32)
        kernel = b.build()
        d_buf = dev.upload(np.array([5, 0], dtype=np.int32))
        d_out = dev.alloc(4 * 256)
        trace = dev.launch(kernel, 1, 128, (d_buf, d_out))
        return trace

    def _skipped_loads(self, trace):
        instrs = trace.kernel.instructions
        skip = skipped_rows(trace)
        # the per-record reference walk agrees row for row
        assert np.array_equal(skip, darsie_skip_rows(trace))
        gload = np.array(
            [i.is_load and i.is_global_memory for i in instrs]
        )
        return int((skip & gload[trace.cols.pc]).sum())

    def test_non_aliasing_stores_allow_load_reuse(self):
        trace = self._trace_with_reload(store_aliases=False)
        # warps 1..3 reuse warp 0's load of buf
        assert self._skipped_loads(trace) == 3

    def test_aliasing_store_fences_load_memo(self):
        clean = self._skipped_loads(
            self._trace_with_reload(store_aliases=False)
        )
        fenced = self._skipped_loads(
            self._trace_with_reload(store_aliases=True)
        )
        assert fenced < clean
        assert fenced == 0
