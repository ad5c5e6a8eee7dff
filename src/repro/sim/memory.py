"""Device memory models: a byte-addressable global space and per-block
shared memory, both backed by numpy buffers with typed vector access."""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..isa.opcodes import AtomOp, DType

_NP_DTYPES = {
    DType.S32: np.dtype("<i4"),
    DType.U32: np.dtype("<u4"),
    DType.S64: np.dtype("<i8"),
    DType.U64: np.dtype("<u8"),
    DType.F32: np.dtype("<f4"),
    DType.F64: np.dtype("<f8"),
}


class MemoryError_(Exception):
    """Out-of-bounds or misaligned device memory access."""


class ByteSpace:
    """A flat byte-addressable memory with typed scalar/vector accessors.

    Address 0 is reserved (allocations start at ``base``) so that a zero
    pointer faults instead of silently reading garbage.
    """

    def __init__(self, size_bytes: int, base: int = 256) -> None:
        self.size = size_bytes
        self.base = base
        self.buf = np.zeros(size_bytes, dtype=np.uint8)
        self._views: Dict[DType, np.ndarray] = {}

    def _view(self, dtype: DType) -> np.ndarray:
        view = self._views.get(dtype)
        if view is None:
            np_dtype = _NP_DTYPES[dtype]
            usable = (self.size // np_dtype.itemsize) * np_dtype.itemsize
            view = self.buf[:usable].view(np_dtype)
            self._views[dtype] = view
        return view

    def fork(self) -> "ByteSpace":
        """An independent copy sharing geometry but not contents.

        The dtype view cache starts empty — cached views alias ``buf``
        and must never leak across the fork boundary.  Speculative
        execution (the megawarp engine) runs against a fork and
        either commits it back with ``buf[:] = fork.buf`` (in place, so
        the original's views stay valid) or discards it.
        """
        twin = ByteSpace.__new__(ByteSpace)
        twin.size = self.size
        twin.base = self.base
        twin.buf = self.buf.copy()
        twin._views = {}
        return twin

    # ------------------------------------------------------------------
    def _check(self, addrs: np.ndarray, itemsize: int) -> None:
        if addrs.size == 0:
            return
        lo = int(addrs.min())
        hi = int(addrs.max())
        if lo < self.base or hi + itemsize > self.size:
            raise MemoryError_(
                f"access [{lo}, {hi + itemsize}) outside "
                f"[{self.base}, {self.size})"
            )
        if np.any(addrs % itemsize):
            bad = int(addrs[addrs % itemsize != 0][0])
            raise MemoryError_(
                f"misaligned {itemsize}-byte access at address {bad}"
            )

    def gather(self, addrs: np.ndarray, dtype: DType) -> np.ndarray:
        """Per-lane typed loads; returns int64 for ints, float64 for
        floats (the executor's uniform register width)."""
        np_dtype = _NP_DTYPES[dtype]
        self._check(addrs, np_dtype.itemsize)
        values = self._view(dtype)[addrs // np_dtype.itemsize]
        if dtype.is_float:
            return values.astype(np.float64)
        return values.astype(np.int64)

    def scatter(self, addrs: np.ndarray, values: np.ndarray,
                dtype: DType) -> None:
        """Per-lane typed stores.  Later lanes win on address collisions
        (matching the CUDA guarantee that *some* lane's value lands)."""
        np_dtype = _NP_DTYPES[dtype]
        self._check(addrs, np_dtype.itemsize)
        self._view(dtype)[addrs // np_dtype.itemsize] = values.astype(
            np_dtype
        )

    def atomic(self, op: AtomOp, addrs: np.ndarray, values: np.ndarray,
               dtype: DType) -> np.ndarray:
        """Lane-serial atomics; returns the old values."""
        np_dtype = _NP_DTYPES[dtype]
        self._check(addrs, np_dtype.itemsize)
        view = self._view(dtype)
        old = np.empty(len(addrs), dtype=np.float64 if dtype.is_float
                       else np.int64)
        for i, (addr, val) in enumerate(zip(addrs, values)):
            idx = int(addr) // np_dtype.itemsize
            prev = view[idx]
            old[i] = prev
            if op is AtomOp.ADD:
                view[idx] = prev + val
            elif op is AtomOp.MIN:
                view[idx] = min(prev, val)
            elif op is AtomOp.MAX:
                view[idx] = max(prev, val)
            elif op is AtomOp.EXCH:
                view[idx] = val
            else:
                raise NotImplementedError(f"atomic {op}")
        return old


class GlobalMemory(ByteSpace):
    """Device global memory with a bump allocator and host copy helpers."""

    def __init__(self, size_bytes: int = 64 * 1024 * 1024) -> None:
        super().__init__(size_bytes)
        self._next = self.base

    def alloc(self, nbytes: int, align: int = 256) -> int:
        """Allocate ``nbytes`` and return the device byte address."""
        addr = (self._next + align - 1) // align * align
        if addr + nbytes > self.size:
            raise MemoryError_(
                f"device OOM: need {nbytes} at {addr}, have {self.size}"
            )
        self._next = addr + nbytes
        return addr

    def alloc_array(self, array: np.ndarray) -> int:
        """Allocate and copy a host array; returns the device address."""
        data = np.ascontiguousarray(array)
        addr = self.alloc(data.nbytes)
        self.write_bytes(addr, data)
        return addr

    def write_bytes(self, addr: int, array: np.ndarray) -> None:
        data = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        if addr < self.base or addr + data.size > self.size:
            raise MemoryError_(f"host write outside device memory at {addr}")
        self.buf[addr:addr + data.size] = data

    def read_array(self, addr: int, count: int,
                   dtype: np.dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = count * dtype.itemsize
        if addr < self.base or addr + nbytes > self.size:
            raise MemoryError_(f"host read outside device memory at {addr}")
        return self.buf[addr:addr + nbytes].view(dtype).copy()


class SharedMemory(ByteSpace):
    """Per-thread-block scratchpad; address 0 is valid here."""

    def __init__(self, size_bytes: int) -> None:
        super().__init__(max(size_bytes, 16), base=0)
