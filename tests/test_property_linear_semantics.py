"""Property-based end-to-end check of the analyzer's semantics.

For randomly generated chains of linearity-preserving operations over
built-in indices, parameters, and immediates, the coefficient vector the
analyzer assigns to each register must evaluate — for every thread — to
exactly the value the functional executor computes.  This ties together
the symbolic algebra, the transfer functions, and the SIMT execution
model.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import DType, KernelBuilder, Param, SpecialReg
from repro.linear import LinearKind, analyze_kernel, launch_env
from repro.sim import Device, tiny

BLOCK = (8, 4, 1)
GRID = (3, 2, 1)
PARAM_VALUES = (7, 1000, 13)

SOURCES = [
    "tid_x", "tid_y", "ctaid_x", "ctaid_y", "ntid_x", "param0",
    "param1", "imm",
]

OPS = ["add", "sub", "mul_imm", "shl", "mad_imm", "mov"]


@st.composite
def random_linear_program(draw):
    """A list of abstract ops to replay through the builder."""
    n_ops = draw(st.integers(2, 12))
    program = []
    for _ in range(n_ops):
        op = draw(st.sampled_from(OPS))
        program.append(
            (
                op,
                draw(st.integers(0, 100)),   # which existing value (mod)
                draw(st.integers(0, 100)),   # second value (mod)
                draw(st.integers(-7, 7)),    # immediate
                draw(st.integers(0, 4)),     # shift amount
            )
        )
    return program


def build_kernel(program):
    b = KernelBuilder(
        "prop",
        params=[
            Param("out", is_pointer=True),
            Param("p1", DType.S32),
            Param("p2", DType.S32),
        ],
    )
    out = b.param(0)
    values = [
        b.param(1),
        b.param(2),
        b.tid_x(),
        b.tid_y(),
        b.ctaid_x(),
        b.ctaid_y(),
        b.ntid_x(),
    ]
    tracked = []
    for op, i1, i2, imm, sh in program:
        a = values[i1 % len(values)]
        c = values[i2 % len(values)]
        if op == "add":
            r = b.add(a, c)
        elif op == "sub":
            r = b.sub(a, c)
        elif op == "mul_imm":
            r = b.mul(a, imm)
        elif op == "shl":
            r = b.shl(a, sh)
        elif op == "mad_imm":
            r = b.mad(a, imm, c)
        else:
            r = b.mov(a)
        values.append(r)
        tracked.append(r)
    # keep every tracked value alive via stores so nothing is DCE'd and
    # every value is observable in the register state
    flat = b.mad(
        b.mad(b.ctaid_y(), b.nctaid_x(), b.ctaid_x()),
        b.mul(b.ntid_x(), b.ntid_y()),
        b.mad(b.tid_y(), b.ntid_x(), b.tid_x()),
    )
    acc = b.mov(0)
    for r in tracked:
        acc = b.add(acc, r)
    b.st_global(b.addr(out, flat, 4), acc, DType.S32)
    return b.build(), [r.name for r in tracked]


@given(random_linear_program())
@settings(max_examples=40, deadline=None)
def test_coefficient_vectors_predict_register_values(program):
    kernel, tracked = build_kernel(program)
    analysis = analyze_kernel(kernel)
    env = launch_env(
        {1: PARAM_VALUES[0], 2: PARAM_VALUES[2]},
        block=BLOCK,
        grid=GRID,
    )

    # Execute functionally and capture per-warp register state.
    from repro.isa import LaunchConfig, Dim3
    from repro.sim.executor import FunctionalExecutor, WarpContext

    dev = Device(tiny())
    d_out = dev.alloc(4 * 4096)
    launch = LaunchConfig(
        Dim3(*GRID), Dim3(*BLOCK),
        args=(d_out, PARAM_VALUES[0], PARAM_VALUES[2]),
    )

    # Run one warp of one block and inspect its registers.
    ex = FunctionalExecutor(kernel, launch, dev.memory)
    block_xyz = (1, 1, 0)
    n_instr = len(kernel.instructions)
    warp = WarpContext(0, block_xyz, BLOCK, n_instr)
    from repro.sim.memory import SharedMemory
    ex._run_warp_until_break(warp, 0, SharedMemory(16))

    # Compare analyzer predictions against actual register contents.
    vec_by_reg = {}
    for pc, vec in analysis.vec_by_pc.items():
        kind = analysis.kind_by_pc.get(pc)
        instr = kernel.instructions[pc]
        if instr.dst is not None and kind in (
            LinearKind.SCALAR,
            LinearKind.THREAD,
            LinearKind.BLOCK,
            LinearKind.FULL,
        ):
            vec_by_reg[instr.dst.name] = vec

    checked = 0
    for name in tracked:
        vec = vec_by_reg.get(name)
        if vec is None:
            continue
        actual = warp.regs[name]
        for lane in (0, 5, 17, 31):
            tid = (
                int(warp.tid_x[lane]),
                int(warp.tid_y[lane]),
                int(warp.tid_z[lane]),
            )
            predicted = vec.evaluate(env, tid, block_xyz)
            assert predicted == int(actual[lane]), (
                f"{name} lane {lane}: vec {vec} predicted {predicted}, "
                f"executor computed {int(actual[lane])}"
            )
        checked += 1
    # Every generated op is linearity-preserving, so everything must be
    # tracked (mul/mad by immediates, shl by constants, add/sub/mov).
    assert checked == len(tracked)
