"""GPU simulator substrate: functional SIMT execution + timing replay."""

from .caches import Cache, CacheStats, MemoryHierarchy
from .config import (
    CacheConfig,
    EnergyConfig,
    GPUConfig,
    LatencyConfig,
    small,
    tiny,
    titan_v,
)
from .executor import (
    ExecutionError,
    FunctionalExecutor,
    LinearValueProvider,
    WarpContext,
    WARP_SIZE,
)
from .gpu import Device, as_dim3
from .memory import ByteSpace, GlobalMemory, MemoryError_, SharedMemory
from .timing import (
    EnergyBreakdown,
    IssueMode,
    IssuePolicy,
    TimingResult,
    TimingSimulator,
    TimingVerifyMismatch,
    timing_differences,
)
from .vector import VectorMismatch, VectorReport
from .trace import (
    BlockTrace,
    KernelTrace,
    TraceColumns,
    WarpTrace,
    bank_conflict_degree,
    coalesce,
)

__all__ = [
    "BlockTrace",
    "ByteSpace",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "Device",
    "EnergyBreakdown",
    "EnergyConfig",
    "ExecutionError",
    "FunctionalExecutor",
    "GlobalMemory",
    "GPUConfig",
    "IssueMode",
    "IssuePolicy",
    "KernelTrace",
    "LatencyConfig",
    "LinearValueProvider",
    "MemoryError_",
    "MemoryHierarchy",
    "SharedMemory",
    "TimingResult",
    "TimingSimulator",
    "TimingVerifyMismatch",
    "TraceColumns",
    "VectorMismatch",
    "VectorReport",
    "WarpContext",
    "WarpTrace",
    "WARP_SIZE",
    "as_dim3",
    "bank_conflict_degree",
    "coalesce",
    "timing_differences",
    "small",
    "tiny",
    "titan_v",
]
