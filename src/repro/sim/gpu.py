"""Device front-end: memory management and kernel launching.

This is the CUDA-runtime-shaped API the examples and workloads use::

    dev = Device(config=tiny())
    a = dev.upload(np.arange(1024, dtype=np.float32))
    trace = dev.launch(kernel, grid=Dim3(4), block=Dim3(256), args=(a, 1024))
    out = dev.download(a, 1024, np.float32)
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..isa.kernel import Dim3, Kernel, LaunchConfig
from .config import GPUConfig, tiny
from .executor import FunctionalExecutor, LinearValueProvider
from .memory import GlobalMemory
from .trace import KernelTrace

DimLike = Union[Dim3, int, Tuple[int, ...]]


def as_dim3(value: DimLike) -> Dim3:
    if isinstance(value, Dim3):
        return value
    if isinstance(value, int):
        return Dim3(value)
    return Dim3(*value)


class Device:
    """A simulated GPU device: global memory plus a launch entry point."""

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        memory_bytes: int = 64 * 1024 * 1024,
    ) -> None:
        self.config = config or tiny()
        self.memory = GlobalMemory(memory_bytes)

    # ------------------------------------------------------------------
    # Memory management
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int) -> int:
        return self.memory.alloc(nbytes)

    def upload(self, array: np.ndarray) -> int:
        """Copy a host array to the device; returns its device address."""
        return self.memory.alloc_array(array)

    def download(self, addr: int, count: int, dtype) -> np.ndarray:
        """Copy ``count`` elements of ``dtype`` back to the host."""
        return self.memory.read_array(addr, count, np.dtype(dtype))

    def write(self, addr: int, array: np.ndarray) -> None:
        self.memory.write_bytes(addr, array)

    # ------------------------------------------------------------------
    # Kernel launch (functional execution + trace capture)
    # ------------------------------------------------------------------
    def launch(
        self,
        kernel: Kernel,
        grid: DimLike,
        block: DimLike,
        args: Sequence[object] = (),
        linear_values: Optional[LinearValueProvider] = None,
    ) -> KernelTrace:
        launch = LaunchConfig(
            grid=as_dim3(grid), block=as_dim3(block), args=tuple(args)
        )
        executor = FunctionalExecutor(
            kernel, launch, self.memory, linear_values=linear_values
        )
        return executor.run()
