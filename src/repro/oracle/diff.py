"""End-to-end differential oracle: original vs. R2D2-transformed.

For one kernel spec this module runs the full soundness gauntlet:

1. build + ISA-validate the kernel;
2. analyze it and check the static invariants;
3. probe-execute the *original* kernel, checking every removable pc's
   coefficient vector against the registers the executor actually wrote
   (:mod:`repro.oracle.invariants`);
4. apply :func:`~repro.transform.decouple.r2d2_transform`, resolve
   launch-time values, probe-execute the *transformed* kernel on an
   identically prepared second device, and require bit-identical memory
   outputs and per-warp data-address streams;
   the original also runs on the megawarp engine (``run_verify``, then
   the committing ``run_fast``) and must match its serial run exactly
   (a transformed kernel runs only on the serial interpreter);
4b. check the proof that lets R2D2 skip that second run: the
   transformed kernel must pass the translation check
   (``r2d2-translation``), the original's megawarp runs must pass the
   operand witness, with both engines agreeing on its verdict
   (``r2d2-witness``), and the original trace derived to the
   transformed kernel must equal the transformed run's trace in every
   column but ``src_hash`` (``r2d2-derivation-mismatch``);
5. replay both traces through the production timing engine (the
   event-driven loop with SM cloning) and through the reference loop,
   requiring every field of :class:`~repro.sim.timing.TimingResult` to
   agree, energy floats included: the transformed trace under R2D2's
   plan, the original under the baseline's, DAC's, and DARSIE+Scalar's
   with its DARSIE ledger (each ledger against its own reference).

Any step that crashes becomes a violation too — a launch-time
``OverflowError`` from an unwrapped coefficient is a soundness bug, not
infrastructure noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import obs
from ..arch.dac import _DACPolicy
from ..arch.darsie import _DARSIEPolicy
from ..arch.r2d2 import R2D2Arch, _R2D2Policy
from ..isa.kernel import Dim3, Kernel, LaunchConfig
from ..isa.validate import collect_errors
from ..linear.analyzer import analyze_kernel
from ..sim.config import GPUConfig, tiny
from ..sim.executor import FunctionalExecutor, Witness
from ..sim.vector import VectorMismatch
from ..sim.gpu import Device
from ..sim.timing import TimingSimulator, timing_differences
from ..sim.trace import trace_differences
from ..transform.decouple import r2d2_transform
from ..transform.translation import DERIVED_FIELDS, TranslationError
from ..transform.values import R2D2Values
from .invariants import (
    ProbeExecutor,
    Violation,
    check_dynamic,
    check_static,
)
from .kernelgen import build_kernel


@dataclass
class OracleReport:
    """Outcome of running the oracle over one spec."""

    name: str
    violations: List[Violation] = field(default_factory=list)
    plan_empty: bool = True
    removable_pcs: int = 0
    stores_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        extra = "plan empty" if self.plan_empty else "transform exercised"
        return (
            f"{self.name}: {status} ({extra}, "
            f"{self.removable_pcs} removable pcs)"
        )


def _prepare_device(
    spec: Dict, config: GPUConfig
) -> Tuple[Device, Tuple[object, ...], List[Tuple[str, int, int, object]]]:
    """A fresh device with deterministically filled buffers.  The bump
    allocator gives identical addresses for identical alloc sequences, so
    two calls produce interchangeable launch args."""
    dev = Device(config=config)
    args: List[object] = []
    buffers: List[Tuple[str, int, int, object]] = []
    for p in spec["params"]:
        if p["kind"] == "ptr":
            np_dt = np.int32 if int(p["esize"]) == 4 else np.int64
            rs = np.random.RandomState(int(p.get("fill", 0)) % (2 ** 32))
            host = rs.randint(0, 100, size=int(p["elems"])).astype(np_dt)
            addr = dev.upload(host)
            args.append(addr)
            buffers.append((p["name"], addr, int(p["elems"]), np_dt))
        else:
            args.append(int(p["value"]))
    return dev, tuple(args), buffers


def _timing_engine_diffs(
    config: GPUConfig,
    trace,
    policy=None,
    regs_per_thread: Optional[int] = None,
    ledgers=(),
) -> List[Tuple[str, str]]:
    """Production timing replay (the event-driven engine with SM
    cloning) against the reference loop, each from a fresh L2, as
    ``(violation-kind, detail)`` pairs: every field, energy floats
    included, for the result and each ledger (whose reference is a
    replay of its own plan) — the ``TimingSimulator.run_verify``
    contract."""
    kwargs = dict(
        policy=policy, regs_per_thread=regs_per_thread, ledgers=ledgers
    )
    fast = TimingSimulator(config, trace, **kwargs).run_fast()
    ref = TimingSimulator(config, trace, **kwargs).run_reference()
    return [
        ("timing-fast-mismatch", d) for d in timing_differences(fast, ref)
    ]


def check_spec(
    spec: Dict,
    config: Optional[GPUConfig] = None,
    max_violations: int = 8,
) -> OracleReport:
    """Run every oracle check over one spec, recording the outcome in
    the observability registry (``oracle.specs`` / ``oracle.violations``
    by kind) and event log."""
    report = _check_spec(spec, config, max_violations)
    obs.inc("oracle.specs")
    for v in report.violations:
        obs.inc("oracle.violations", kind=v.kind)
        obs.event(
            "oracle.violation",
            spec=report.name,
            kind=v.kind,
            detail=v.detail,
        )
    return report


def _check_spec(
    spec: Dict,
    config: Optional[GPUConfig],
    max_violations: int,
) -> OracleReport:
    config = config or tiny()
    report = OracleReport(name=spec.get("name", "<anon>"))
    vio = report.violations

    # --- build + validate ---------------------------------------------
    try:
        kernel = build_kernel(spec)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        vio.append(Violation("spec-build-crash", f"{type(exc).__name__}: {exc}"))
        return report
    errors = collect_errors(kernel)
    if errors:
        vio.append(Violation("invalid-kernel", "; ".join(errors)))
        return report

    launch_geom = dict(
        grid=Dim3(*spec["grid"]), block=Dim3(*spec["block"])
    )

    # --- analyze + static invariants ----------------------------------
    try:
        analysis = analyze_kernel(kernel)
    except Exception as exc:  # noqa: BLE001
        vio.append(Violation("analyzer-crash", f"{type(exc).__name__}: {exc}"))
        return report
    report.removable_pcs = sum(
        1 for pc in analysis.vec_by_pc
    ) + len(analysis.uniform_updates)
    vio.extend(check_static(kernel, analysis))

    # --- probe-run the original ---------------------------------------
    dev_a, args_a, buffers_a = _prepare_device(spec, config)
    launch_a = LaunchConfig(args=args_a, **launch_geom)
    try:
        ex_a = ProbeExecutor(kernel, launch_a, dev_a.memory)
        trace_a = ex_a.run_reference()
    except Exception as exc:  # noqa: BLE001
        vio.append(
            Violation("original-run-crash", f"{type(exc).__name__}: {exc}")
        )
        return report
    vio.extend(
        check_dynamic(
            kernel, analysis, launch_a, ex_a.probes,
            max_violations=max_violations,
        )
    )

    # --- transform + the proof's static half --------------------------
    rkernel = translation = witness = None
    try:
        rkernel = r2d2_transform(kernel)
    except Exception as exc:  # noqa: BLE001
        vio.append(
            Violation("transform-crash", f"{type(exc).__name__}: {exc}")
        )
    if rkernel is not None and not rkernel.plan.is_empty():
        try:
            translation = rkernel.translation()
            witness = Witness(
                R2D2Values(rkernel.plan, launch_a), translation.sites
            )
        except TranslationError as exc:
            vio.append(Violation("r2d2-translation", str(exc)))
        except Exception:  # noqa: BLE001 - reported below
            pass

    # --- megawarp vectorization (the witness on both engines) ---------
    vio.extend(
        _megawarp_violations(
            spec, config, kernel, launch_geom, dev_a, witness=witness,
        )
    )
    if rkernel is None:
        return report
    report.plan_empty = rkernel.plan.is_empty()

    if not report.plan_empty:
        dev_b, args_b, buffers_b = _prepare_device(spec, config)
        launch_b = LaunchConfig(args=args_b, **launch_geom)
        try:
            values = R2D2Values(rkernel.plan, launch_b)
        except Exception as exc:  # noqa: BLE001
            vio.append(
                Violation(
                    "launch-values-crash",
                    f"{type(exc).__name__}: {exc}",
                )
            )
            return report
        try:
            ex_b = ProbeExecutor(
                rkernel.transformed, launch_b, dev_b.memory,
                linear_values=values,
            )
            trace_b = ex_b.run_reference()
        except Exception as exc:  # noqa: BLE001
            vio.append(
                Violation(
                    "transformed-run-crash",
                    f"{type(exc).__name__}: {exc}",
                )
            )
            return report

        # memory outputs must be bit-identical
        for (name, addr_a, elems, np_dt), (_, addr_b, _, _) in zip(
            buffers_a, buffers_b
        ):
            out_a = dev_a.download(addr_a, elems, np_dt)
            out_b = dev_b.download(addr_b, elems, np_dt)
            if not np.array_equal(out_a, out_b):
                bad = np.nonzero(out_a != out_b)[0]
                i = int(bad[0])
                vio.append(
                    Violation(
                        "memory-mismatch",
                        f"buffer {name!r} differs at {len(bad)} "
                        f"element(s); first at [{i}]: original="
                        f"{out_a[i]} transformed={out_b[i]}",
                    )
                )
            report.stores_checked += elems

        # per-warp data-address streams must be identical
        for key in sorted(set(ex_a.probes) | set(ex_b.probes)):
            stream_a = ex_a.probes[key].stream if key in ex_a.probes else []
            stream_b = ex_b.probes[key].stream if key in ex_b.probes else []
            if stream_a != stream_b:
                vio.append(
                    Violation(
                        "address-stream-mismatch",
                        f"warp {key}: original issued "
                        f"{len(stream_a)} memory writes, transformed "
                        f"{len(stream_b)}; first divergence at index "
                        f"{_first_divergence(stream_a, stream_b)}",
                    )
                )

        # the original trace derived to the transformed kernel is the
        # transformed run's trace
        if translation is not None:
            derived = trace_a.derive(
                rkernel.transformed, translation.new_pc
            )
            for diff in trace_differences(
                derived.blocks, derived.cols, trace_b.blocks, trace_b.cols,
                DERIVED_FIELDS,
            )[:max_violations]:
                vio.append(Violation("r2d2-derivation-mismatch", diff))

        # fast-engine / reference timing equality on the transformed
        # trace (SM cloning and R2D2 issue plans included)
        counts = R2D2Arch().linear_phase_counts(rkernel, launch_b, config)
        policy = _R2D2Policy(rkernel, counts, config)
        for kind, diff in _timing_engine_diffs(
            config, trace_b, policy=policy,
            regs_per_thread=rkernel.register_usage.original_regs_per_thread,
        ):
            vio.append(Violation(kind, f"r2d2 {diff}"))

    # fast-engine / reference timing equality on the original trace,
    # under the plans of every architecture that replays it
    darsie = _DARSIEPolicy(trace_a, with_scalar=True)
    for label, timing in (
        ("baseline", {}),
        ("dac", dict(policy=_DACPolicy(trace_a))),
        ("darsie", dict(policy=darsie, ledgers=(
            _DARSIEPolicy(trace_a, with_scalar=False, skip=darsie.skip),
        ))),
    ):
        for kind, diff in _timing_engine_diffs(config, trace_a, **timing):
            vio.append(Violation(kind, f"{label} {diff}"))

    return report


def _megawarp_violations(
    spec: Dict,
    config: GPUConfig,
    kernel: Kernel,
    launch_geom: Dict[str, Dim3],
    serial: Device,
    witness: Optional[Witness] = None,
) -> List[Violation]:
    """Megawarp equivalence on one original kernel, divergent ones
    included: ``run_verify`` must find it bit-identical to serial (trace
    records + memory, and the ``witness`` verdict when one is given);
    then the committing path (``run_fast``) must leave the same memory
    as the ``serial`` run, its trace must replay identically through
    every timing engine, and it must pass the ``witness``."""

    def fresh():
        """A freshly prepared device and an executor of the launch."""
        dev, args, _ = _prepare_device(spec, config)
        launch = LaunchConfig(args=args, **launch_geom)
        return dev, FunctionalExecutor(
            kernel, launch, dev.memory, witness=witness
        )

    try:
        _, ex = fresh()
        ex.run_verify()
    except VectorMismatch as exc:
        return [Violation("vector-mismatch", str(exc))]
    except Exception as exc:  # noqa: BLE001
        return [Violation(
            "vector-run-crash", f"{type(exc).__name__}: {exc}"
        )]
    try:
        dev, ex = fresh()
        trace = ex.run_fast()
    except Exception as exc:  # noqa: BLE001
        return [Violation(
            "vector-run-crash", f"{type(exc).__name__}: {exc}"
        )]
    vio: List[Violation] = []
    if trace.witness is not None and not trace.witness.ok:
        vio.append(Violation("r2d2-witness", trace.witness.failure))
    if not np.array_equal(dev.memory.buf, serial.memory.buf):
        bad = np.flatnonzero(dev.memory.buf != serial.memory.buf)
        vio.append(Violation(
            "vector-commit-mismatch",
            f"memory differs at {bad.size} byte(s), first at address "
            f"{int(bad[0])}",
        ))
    for kind, diff in _timing_engine_diffs(config, trace):
        vio.append(Violation(kind, f"vectorized {diff}"))
    return vio


def _first_divergence(a: List, b: List) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))
