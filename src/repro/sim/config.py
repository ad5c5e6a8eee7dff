"""GPU configuration (paper Table 1) and scaled presets.

The paper models an NVIDIA TITAN V (Volta): 80 SMs, up to 64 warps and 32
thread blocks per SM, 4 GTO warp schedulers per SM, 96 KB L1, 4.5 MB 24-way
L2, 256 KB register file in 8 banks, with register-file energies of
14.2 pJ/read and 20.9 pJ/write.  ``titan_v()`` reproduces that
configuration; ``small()``/``tiny()`` are scaled presets that keep the
per-SM ratios while making Python-speed simulation practical.
:func:`verify_enabled` reads ``R2D2_VERIFY``, the one switch that makes
both simulator layers check their fast engine against its oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative cache with LRU replacement."""

    size_bytes: int
    line_bytes: int = 128
    ways: int = 4

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.ways)


@dataclass(frozen=True)
class LatencyConfig:
    """Issue-to-writeback latencies in core cycles.

    The R2D2-specific entries model the paper's Section 5.4 study: extra
    fetch latency for the starting-PC table, extra cycles for linear
    physical-register-ID computation, and the thread-index + block-index
    addition performed by the LD/ST unit (assumed equal to a baseline add,
    4 cycles).
    """

    alu: int = 4
    mul: int = 4
    sfu: int = 16
    shared_mem: int = 24
    l1_hit: int = 28
    l2_hit: int = 190
    dram: int = 400
    param_load: int = 4
    barrier_min: int = 1
    # R2D2 overhead knobs (Section 5.4)
    r2d2_fetch_extra: int = 0
    r2d2_regid_extra: int = 0
    r2d2_address_add: int = 4


@dataclass(frozen=True)
class EnergyConfig:
    """Per-event energies in picojoules.

    Register-file numbers come from the paper's Table 1; the rest follow
    GPUWattch/CACTI-style magnitudes.  Only relative magnitudes matter
    for the reproduction (Figure 16 reports normalized energy).
    """

    rf_read_pj: float = 14.2
    rf_write_pj: float = 20.9
    fetch_decode_pj: float = 25.0
    int_lane_pj: float = 4.0
    float_lane_pj: float = 8.0
    sfu_lane_pj: float = 30.0
    l1_access_pj: float = 120.0
    l2_access_pj: float = 350.0
    dram_access_pj: float = 2200.0
    shared_access_pj: float = 60.0
    static_pj_per_sm_cycle: float = 80.0
    scalar_op_pj: float = 6.0


@dataclass(frozen=True)
class GPUConfig:
    """Whole-GPU model parameters."""

    name: str = "titan-v"
    num_sms: int = 80
    warp_size: int = 32
    max_warps_per_sm: int = 64
    max_blocks_per_sm: int = 32
    num_schedulers: int = 4
    registers_per_sm: int = 65536  # 4-byte registers (256 KB)
    shared_mem_per_sm: int = 96 * 1024
    scheduler_policy: str = "gto"  # or "rr"
    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(96 * 1024, 128, 4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(4608 * 1024, 128, 24)
    )
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    energy: EnergyConfig = field(default_factory=EnergyConfig)
    #: Global-memory transactions serviced per core cycle per SM.
    mem_ports_per_sm: int = 1

    def with_sms(self, num_sms: int) -> "GPUConfig":
        return replace(self, num_sms=num_sms, name=f"{self.name}-{num_sms}sm")

    def with_latency(self, **kw) -> "GPUConfig":
        return replace(self, latency=replace(self.latency, **kw))

    def with_scheduler(self, policy: str) -> "GPUConfig":
        if policy not in ("gto", "rr"):
            raise ValueError(f"unknown scheduler policy {policy!r}")
        return replace(self, scheduler_policy=policy)


def titan_v() -> GPUConfig:
    """The paper's Table 1 baseline."""
    return GPUConfig()


def small() -> GPUConfig:
    """A 16-SM configuration for the benchmark harness."""
    return replace(
        titan_v(),
        name="small",
        num_sms=16,
        l2=CacheConfig(1024 * 1024, 128, 16),
    )


def tiny() -> GPUConfig:
    """A 4-SM configuration for unit tests."""
    return replace(
        titan_v(),
        name="tiny",
        num_sms=4,
        max_warps_per_sm=32,
        max_blocks_per_sm=8,
        l1=CacheConfig(32 * 1024, 128, 4),
        l2=CacheConfig(256 * 1024, 128, 8),
    )


def verify_enabled() -> bool:
    """The ``R2D2_VERIFY`` switch.  Unset, empty or ``0``: the
    production engines.  ``1``: every functional launch and every
    timing replay also runs its oracle and raises on any difference
    (``FunctionalExecutor.run_verify``, ``TimingSimulator.run_verify``).
    Any other value raises ``ValueError``, so a typo cannot turn
    verification off."""
    raw = os.environ.get("R2D2_VERIFY", "")
    if raw in ("", "0"):
        return False
    if raw == "1":
        return True
    raise ValueError(f"R2D2_VERIFY must be 0 or 1, got {raw!r}")
