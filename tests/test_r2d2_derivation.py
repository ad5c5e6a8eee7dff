"""R2D2 replays traces derived from the baseline's.

The derivation is valid because the transformed kernel passes the
translation check and every baseline launch it derives from passes the
operand witness.  These tests pin the three pieces: the derived trace
and ``ArchStats`` equal an executed run's on every workload, the check
rejects broken translations, and a failed witness sends the run back to
executing the transformed kernels.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.arch.r2d2 import R2D2Arch
from repro.harness import runner
from repro.harness.runner import run_workload
from repro.isa import DType, KernelBuilder, Param
from repro.isa.kernel import Dim3, Kernel, LaunchConfig
from repro.isa.opcodes import Opcode
from repro.isa.operands import LinearRef, LinearRegOperand, MemRef, Reg
from repro.sim import vector as vector_engine
from repro.sim.caches import Cache
from repro.sim.config import tiny
from repro.sim.executor import FunctionalExecutor
from repro.sim.gpu import Device, as_dim3
from repro.sim.trace import trace_differences
from repro.sim.vector import VectorMismatch
from repro.transform import values as values_module
from repro.transform.translation import (
    DERIVED_FIELDS,
    TranslationError,
    check_translation,
)
from repro.workloads import all_abbrs
from repro.workloads import factory as workload_factory


def _baseline(abbr, arch, config):
    """The baseline launches of ``abbr`` at ``tiny``, each with the
    witness ``arch`` derives from."""
    workload = workload_factory(abbr, "tiny")()
    device = Device(config)
    return [
        device.launch(
            s.kernel, s.grid, s.block, s.args,
            witness=arch.witness(s.kernel, s.grid, s.block, s.args, config),
        )
        for s in workload.prepare(device)
    ]


@pytest.mark.parametrize("abbr", all_abbrs())
def test_derived_trace_equals_executed(abbr):
    """Every launch: the derived trace is the executed transformed
    trace in every column but ``src_hash``, warp ranges included, and
    the replays give identical ``ArchStats`` (energy key order too)."""
    config = tiny()
    arch = R2D2Arch()
    traces = _baseline(abbr, arch, config)
    assert all(t.witness is None or t.witness.ok for t in traces)
    derived = arch.make_stats()
    l2 = Cache(config.l2)
    for trace in traces:
        arch.process_trace(trace, config, derived, l2=l2)

    workload = workload_factory(abbr, "tiny")()
    device = Device(config)
    executor = R2D2Arch()
    executed = executor.make_stats()
    l2 = Cache(config.l2)
    for spec, base in zip(workload.prepare(device), traces):
        got = executor.execute_launch(
            device, spec.kernel, spec.grid, spec.block, spec.args,
            config, executed, l2=l2,
        )
        _, want = arch.derive(base, config)
        assert got.kernel.name == want.kernel.name
        assert trace_differences(
            want.blocks, want.cols, got.blocks, got.cols, DERIVED_FIELDS
        ) == []
    workload.check(device)
    assert vars(derived) == vars(executed)
    assert list(derived.energy.values) == list(executed.energy.values)


# ----------------------------------------------------------------------
# Translation-check mutants
# ----------------------------------------------------------------------
def _rkernel():
    """A real transformed kernel with stores, loops, rewritten operands
    and linear definitions turned into moves (2MM's first, at
    ``tiny``)."""
    spec = workload_factory("2MM", "tiny")().prepare(Device(tiny()))[0]
    rkernel = R2D2Arch().transform(spec.kernel)
    check_translation(rkernel)
    return rkernel


def _mutant(rkernel, instrs=None, labels=None, removed=None):
    t = rkernel.transformed
    kernel = Kernel(
        t.name, t.params,
        t.instructions if instrs is None else instrs,
        t.labels if labels is None else labels,
        shared_mem_bytes=t.shared_mem_bytes,
    )
    return dataclasses.replace(
        rkernel, transformed=kernel, _translation=None,
        removed_pcs=(rkernel.removed_pcs if removed is None
                     else tuple(sorted(removed))),
    )


def _drop(rkernel, t_pc):
    """``rkernel`` with transformed pc ``t_pc`` removed as well."""
    t = rkernel.transformed
    k_pc = int(np.flatnonzero(
        rkernel.translation().new_pc == t_pc
    )[0])
    return _mutant(
        rkernel,
        instrs=t.instructions[:t_pc] + t.instructions[t_pc + 1:],
        labels={n: p - (p > t_pc) for n, p in t.labels.items()},
        removed=rkernel.removed_pcs + (k_pc,),
    )


def test_translation_rejects_a_dropped_store():
    rkernel = _rkernel()
    t_pc = next(i for i, ins in enumerate(rkernel.transformed.instructions)
                if ins.is_store)
    with pytest.raises(TranslationError, match="side effect"):
        check_translation(_drop(rkernel, t_pc))


def test_translation_rejects_a_removed_live_def():
    rkernel = _rkernel()
    t = rkernel.transformed
    reads = {r.name for ins in t.instructions for r in ins.source_regs()}
    t_pc = next(i for i, ins in enumerate(t.instructions)
                if ins.dst is not None and not ins.is_store
                and ins.opcode not in (Opcode.ATOM_GLOBAL,
                                       Opcode.ATOM_SHARED)
                and ins.dst.name in reads)
    with pytest.raises(TranslationError, match="reads"):
        check_translation(_drop(rkernel, t_pc))


def test_translation_rejects_a_shifted_branch_label():
    rkernel = _rkernel()
    t = rkernel.transformed
    name = next(ins.target for ins in t.instructions if ins.is_branch)
    labels = dict(t.labels)
    labels[name] -= 1
    with pytest.raises(TranslationError, match="label"):
        check_translation(_mutant(rkernel, labels=labels))


def test_translation_rejects_a_non_linear_register_operand():
    rkernel = _rkernel()
    t = rkernel.transformed
    loaded = next(ins.dst for ins in t.instructions
                  if ins.opcode is Opcode.LD_GLOBAL)
    sites = rkernel.translation().sites
    instrs = list(t.instructions)
    for k_pc, site in sites.items():
        slot, op = site.operands[0] if site.operands else (None, None)
        if isinstance(op, LinearRegOperand):
            new = Reg(loaded.name, loaded.dtype)
        elif isinstance(op, LinearRef):
            new = MemRef(Reg(loaded.name, DType.S64), 0)
        else:
            continue
        t_pc = int(rkernel.translation().new_pc[k_pc])
        srcs = list(instrs[t_pc].srcs)
        srcs[slot] = new
        instrs[t_pc] = instrs[t_pc].with_srcs(srcs)
        break
    else:
        pytest.fail("no rewritten operand in the kernel")
    with pytest.raises(TranslationError, match="not a linear operand"):
        check_translation(_mutant(rkernel, instrs=instrs))


def test_translation_is_checked_once_per_kernel():
    rkernel = _rkernel()
    assert rkernel.translation() is rkernel.translation()
    broken = _drop(rkernel, next(
        i for i, ins in enumerate(rkernel.transformed.instructions)
        if ins.is_store
    ))
    for _ in range(2):
        with pytest.raises(TranslationError):
            broken.translation()


# ----------------------------------------------------------------------
# The harness: one execution when the proof holds, two when it fails
# ----------------------------------------------------------------------
def _recording_factory(abbr, checked):
    """``abbr``'s factory whose reference check records each device it
    checks; only the first (the baseline's) is really checked."""
    make = workload_factory(abbr, "tiny")

    def factory():
        workload = make()
        check = workload.check

        def recording_check(device):
            checked.append(device)
            if len(checked) == 1:
                check(device)

        workload.check = recording_check
        return workload
    return factory


def test_failed_witness_executes_the_transformed_kernels(monkeypatch):
    """One ``R2D2Values`` value off by one: the witness fails, so the
    run executes the transformed kernels, finds their outputs differ,
    and runs the reference check on the R2D2 device."""
    init = values_module.R2D2Values.__init__

    def off_by_one(self, plan, launch):
        init(self, plan, launch)
        self._block_consts[0] += 1

    monkeypatch.setattr(values_module.R2D2Values, "__init__", off_by_one)
    monkeypatch.delenv("R2D2_VERIFY", raising=False)
    obs.reset()
    checked = []
    result = run_workload(
        _recording_factory("GEM", checked), config=tiny(),
        arch_names=("baseline", "r2d2"), jobs=1, cache=False,
    )
    assert not result.outputs_identical
    assert len(checked) == 2 and checked[0] is not checked[1]
    assert any(d["kernel"].endswith(".r2d2")
               for d in result.engine_decisions)
    assert obs.counter_value(
        "r2d2.bailed", kernel="gemm", reason="witness-failed"
    ) == 1


def test_failed_translation_executes_the_transformed_kernels(
        monkeypatch):
    """A kernel failing the translation check: nothing is derived, the
    transformed kernels execute, and (being correct) match."""
    from repro.transform import decouple

    def reject(rkernel):
        raise TranslationError(f"{rkernel.transformed.name}: rejected")

    monkeypatch.setattr(decouple, "check_translation", reject)
    monkeypatch.delenv("R2D2_VERIFY", raising=False)
    obs.reset()
    result = run_workload(
        workload_factory("NN", "tiny"), config=tiny(),
        arch_names=("baseline", "r2d2"), jobs=1, cache=False,
    )
    assert result.outputs_identical
    assert any(d["kernel"].endswith(".r2d2")
               for d in result.engine_decisions)
    assert obs.counter_total("r2d2.bailed") == 1


def test_proven_run_executes_once(monkeypatch):
    """With correct values a verified run builds one device, launches
    no transformed kernel, and still reports identical outputs."""
    devices, kernels = [], []

    class CountingDevice(Device):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            devices.append(self)

        def launch(self, kernel, *args, **kwargs):
            kernels.append(kernel.name)
            return super().launch(kernel, *args, **kwargs)

    monkeypatch.setattr(runner, "Device", CountingDevice)
    monkeypatch.delenv("R2D2_VERIFY", raising=False)
    result = run_workload(
        workload_factory("LUD", "tiny"), config=tiny(), verify=True,
        jobs=1, cache=False,
    )
    assert len(devices) == 1
    assert kernels and not any(k.endswith(".r2d2") for k in kernels)
    assert result.verified and result.outputs_identical
    assert result["r2d2"].launches == len(kernels)


# ----------------------------------------------------------------------
# The witness on both engines
# ----------------------------------------------------------------------
def _conflict_kernel():
    """Stores ``c[i] = i`` then reads ``c[0]``, which another warp
    wrote: the megawarp bails on the cross-warp hazard."""
    b = KernelBuilder(
        "wconf",
        params=[Param("a", is_pointer=True), Param("c", is_pointer=True)],
    )
    a_p, c_p = b.param(0), b.param(1)
    i = b.global_tid_x()
    b.st_global(b.addr(c_p, i, 4), i, DType.S32)
    v = b.ld_global(b.addr(c_p, 0, 4, disp=0), DType.S32)
    b.st_global(b.addr(a_p, i, 4), b.add(v, i), DType.S32)
    return b.build()


def _witnessed(kernel, engine):
    """``kernel`` on 8 blocks of 128 threads through ``run_<engine>``,
    with its R2D2 witness; returns the trace."""
    dev = Device(tiny())
    a = dev.alloc(4 * 1024)
    c = dev.alloc(4 * 1024)
    launch = LaunchConfig(grid=Dim3(8), block=Dim3(128), args=(a, c))
    witness = R2D2Arch().witness(kernel, 8, 128, (a, c), tiny())
    assert witness is not None and witness.sites
    executor = FunctionalExecutor(kernel, launch, dev.memory,
                                  witness=witness)
    return getattr(executor, f"run_{engine}")()


def test_bail_discards_the_megawarp_verdict():
    fast = _witnessed(_conflict_kernel(), "fast")
    ref = _witnessed(_conflict_kernel(), "reference")
    assert fast.vector.bailed
    assert fast.witness.ok and fast.witness.rows > 0
    assert fast.witness == ref.witness


def _verify_bp():
    """BP's launch through ``run_verify`` with its witness, on a freshly
    prepared device."""
    device = Device(tiny())
    spec = workload_factory("BP", "tiny")().prepare(device)[0]
    witness = R2D2Arch().witness(
        spec.kernel, spec.grid, spec.block, spec.args, tiny()
    )
    launch = LaunchConfig(grid=as_dim3(spec.grid),
                          block=as_dim3(spec.block), args=tuple(spec.args))
    return FunctionalExecutor(
        spec.kernel, launch, device.memory, witness=witness
    ).run_verify()


def test_engines_agree_on_the_verdict(monkeypatch):
    trace = _verify_bp()
    assert trace.vector.verified and trace.witness.ok

    def disagree(self, pc, *args):
        self._verdict.failure = f"pc {pc}"

    monkeypatch.setattr(vector_engine._MegaWarpEngine, "_witness_rows",
                        disagree)
    with pytest.raises(VectorMismatch, match="witness verdict"):
        _verify_bp()
