"""Shared kernel builders for the dense linear-algebra workloads.

PolyBench's 2mm/3mm/gemm and the matvec family (atax, bicg, mvt,
gesummv) compile to the same PTX shapes; these builders mirror the CUDA
reference implementations' address generation (row-major, 2D blocks for
GEMM-style kernels, 1D blocks for matvec-style kernels, inner loops with
multi-write accumulators and loop counters).
"""

from __future__ import annotations

import numpy as np

from ..isa import CmpOp, DType, Kernel, KernelBuilder, Param


def gemm_kernel(name: str = "gemm", alpha_beta: bool = False) -> Kernel:
    """C[i,j] (+)= alpha * sum_k A[i,k]*B[k,j] (+ beta*C[i,j]).

    Params: A, B, C, ni, nj, nk [, alpha, beta as f32 bit patterns is
    avoided — alpha/beta ride as immediates when ``alpha_beta`` is False].
    2D (32, 4) thread blocks; thread (tx, ty) computes C[row=by*4+ty,
    col=bx*32+tx].
    """
    params = [
        Param("A", is_pointer=True),
        Param("B", is_pointer=True),
        Param("C", is_pointer=True),
        Param("ni", DType.S32),
        Param("nj", DType.S32),
        Param("nk", DType.S32),
    ]
    b = KernelBuilder(name, params=params)
    a_p, b_p, c_p = b.param(0), b.param(1), b.param(2)
    ni, nj, nk = b.param(3), b.param(4), b.param(5)

    col = b.mad(b.ctaid_x(), b.ntid_x(), b.tid_x())
    row = b.mad(b.ctaid_y(), b.ntid_y(), b.tid_y())
    in_col = b.setp(CmpOp.LT, col, nj)
    in_row = b.setp(CmpOp.LT, row, ni)
    ok = b.and_(in_col, in_row, DType.PRED)
    with b.if_then(ok):
        # Strength-reduced form (what nvcc emits): both operand pointers
        # advance by loop-invariant strides each iteration.
        acc = b.mov(0.0, DType.F32)
        row_base = b.mul(row, nk)          # A row offset in elements
        a_ptr = b.addr(a_p, row_base, 4)
        b_ptr = b.addr(b_p, col, 4)
        b_stride = b.cvt(b.shl(nj, 2), DType.S64)
        with b.for_range(0, nk):
            av = b.ld_global(a_ptr, DType.F32)
            bv = b.ld_global(b_ptr, DType.F32)
            b.mov_to(acc, b.fma(av, bv, acc))
            b.add_to(a_ptr, a_ptr, 4)
            b.add_to(b_ptr, b_ptr, b_stride)
        c_off = b.mad(row, nj, col)
        c_addr = b.addr(c_p, c_off, 4)
        if alpha_beta:
            old = b.ld_global(c_addr, DType.F32)
            scaled = b.mul(acc, 0.5, DType.F32)      # alpha = 0.5
            b.st_global(
                c_addr, b.fma(old, 0.25, scaled), DType.F32
            )  # beta = 0.25
        else:
            b.st_global(c_addr, acc, DType.F32)
    return b.build()


def gemm_reference(A: np.ndarray, B: np.ndarray,
                   alpha_beta: bool = False,
                   C0: np.ndarray = None) -> np.ndarray:
    prod = (A.astype(np.float64) @ B.astype(np.float64)).astype(np.float32)
    if alpha_beta:
        return (0.5 * prod + 0.25 * C0).astype(np.float32)
    return prod


def matvec_kernel(name: str = "matvec", transpose: bool = False,
                  accumulate: bool = False) -> Kernel:
    """y[i] = sum_j M[i,j] * x[j]   (or M[j,i] when ``transpose``).

    Params: M, x, y, n_rows, n_cols. 1D blocks of 256 threads; row per
    thread.  ``accumulate`` adds into y instead of overwriting (used by
    gesummv-style kernels).
    """
    params = [
        Param("M", is_pointer=True),
        Param("x", is_pointer=True),
        Param("y", is_pointer=True),
        Param("nr", DType.S32),
        Param("nc", DType.S32),
    ]
    b = KernelBuilder(name, params=params)
    m_p, x_p, y_p = b.param(0), b.param(1), b.param(2)
    nr, nc = b.param(3), b.param(4)
    i = b.global_tid_x()
    ok = b.setp(CmpOp.LT, i, nr)
    with b.if_then(ok):
        acc = b.mov(0.0, DType.F32)
        if transpose:
            m_ptr = b.addr(m_p, i, 4)
            m_stride = b.cvt(b.shl(nr, 2), DType.S64)
        else:
            row_off = b.mul(i, nc)
            m_ptr = b.addr(m_p, row_off, 4)
        x_ptr = b.addr(x_p, b.mov(0), 4)
        with b.for_range(0, nc):
            mv = b.ld_global(m_ptr, DType.F32)
            xv = b.ld_global(x_ptr, DType.F32)
            b.mov_to(acc, b.fma(mv, xv, acc))
            if transpose:
                b.add_to(m_ptr, m_ptr, m_stride)
            else:
                b.add_to(m_ptr, m_ptr, 4)
            b.add_to(x_ptr, x_ptr, 4)
        y_addr = b.addr(y_p, i, 4)
        if accumulate:
            old = b.ld_global(y_addr, DType.F32)
            b.st_global(y_addr, b.add(old, acc, DType.F32), DType.F32)
        else:
            b.st_global(y_addr, acc, DType.F32)
    return b.build()


def matvec_reference(M: np.ndarray, x: np.ndarray,
                     transpose: bool = False) -> np.ndarray:
    M64 = M.astype(np.float64)
    if transpose:
        M64 = M64.T
    return (M64 @ x.astype(np.float64)).astype(np.float32)


# ----------------------------------------------------------------------
# Reduction family (workloads/reduction)
# ----------------------------------------------------------------------
def reduction_input(rng: np.random.Generator, n: int) -> np.ndarray:
    """Deterministic int32 input for the reduction ladder.

    Values stay in [0, 100) so any association order of partial sums is
    exact in int32 — the engines can be compared bit-for-bit and the
    numpy reference needs no widening tricks.
    """
    return rng.integers(0, 100, size=n, dtype=np.int32)


def reduction_block_sums(x: np.ndarray, chunk: int,
                         blocks: int) -> np.ndarray:
    """Per-block partial sums: block ``c`` owns ``x[c*chunk:(c+1)*chunk]``."""
    assert x.size == chunk * blocks, (x.size, chunk, blocks)
    return (
        x.reshape(blocks, chunk).sum(axis=1, dtype=np.int64)
        .astype(np.int32)
    )
