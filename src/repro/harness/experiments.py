"""Per-figure/table experiment definitions (paper Section 5).

Each ``figNN_*``/``secNN_*`` function regenerates the rows/series of one
evaluation artifact.  ``run_suite`` executes the workload × architecture
matrix once; individual figures then read different statistics from the
same results.  See DESIGN.md's experiment index for the mapping.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..perf import fan_out, resolve_cache, resolve_jobs
from ..perf.trace_cache import UnhashableKeyPart, workload_result_key
from ..sim.config import GPUConfig, small, titan_v
from ..sim.gpu import Device
from ..workloads import factory
from .report import Table, geomean, mean, percent
from .runner import ALL_ARCHES, WorkloadResult, run_workload

#: Default benchmark configuration: the Table 1 machine scaled to 4 SMs so
#: the scaled-down grids still put many blocks and near-peak warp
#: occupancy on every SM (the paper runs 80 SMs against grids of
#: thousands of blocks; blocks-per-SM drives linear-phase amortization
#: and warps-per-SM drives latency hiding, so both must stay realistic).
def bench_config(num_sms: int = 4) -> GPUConfig:
    return dataclasses.replace(small(), num_sms=num_sms, name=f"bench-{num_sms}sm")


#: Workloads used for the headline figures: the 42 apps of Table 2.
#: FFT_PT (the Section 5.7 persistent-thread variant) and the RED0-RED6
#: reduction ladder are registered but are not Table-2 apps.
DEFAULT_SUITE: Tuple[str, ...] = (
    "2DC", "2MM", "3DC", "3MM", "ATA", "BFS", "BIC", "BP", "BTR",
    "CCMP", "CFD", "DWT", "FDT", "FFT", "GAS", "GEM", "GSM", "HIS",
    "HSP", "HTW", "KCR", "KM", "LIB", "LMD", "LPS", "LUD", "MRG",
    "MRQ", "MUM", "MVT", "NN", "PTH", "RAY", "RES", "SAD", "SGM",
    "SPM", "SRAD1", "SRAD2", "SSSP", "STC", "VGG",
)

COMPARISON_ARCHES = ("dac", "darsie", "darsie+scalar", "r2d2")
IDEAL_ARCHES = ("wp", "tb", "ln")


@dataclass
class SuiteResults:
    """Results of one workload-suite sweep."""

    config: GPUConfig
    scale: str
    results: Dict[str, WorkloadResult] = field(default_factory=dict)

    def abbrs(self) -> List[str]:
        return sorted(self.results)

    def __getitem__(self, abbr: str) -> WorkloadResult:
        return self.results[abbr]


def run_suite(
    abbrs: Optional[Sequence[str]] = None,
    scale: str = "small",
    config: Optional[GPUConfig] = None,
    arch_names: Sequence[str] = ALL_ARCHES,
    verify: bool = True,
    jobs: Optional[int] = None,
    cache=None,
) -> SuiteResults:
    """Run the workload × architecture matrix.

    ``jobs > 1`` (or ``R2D2_JOBS``) fans the workloads out to one
    process pool (:func:`repro.perf.parallel.fan_out`) whose workers run
    each workload serially, so pools never nest.  With ``cache`` on, a
    workload whose result is already cached is served in the parent and
    never reaches the pool, so a fully warm rerun starts no pool at all.
    Results always merge in canonical suite order, so the suite is
    byte-identical to a serial run.
    """
    config = config or bench_config()
    abbrs = list(abbrs) if abbrs else list(DEFAULT_SUITE)
    arch_names = tuple(arch_names)
    jobs = resolve_jobs(jobs)
    tcache = resolve_cache(cache)
    suite = SuiteResults(config=config, scale=scale)

    with obs.span("suite"):
        done: Dict[str, WorkloadResult] = {}
        if jobs > 1:
            if tcache is not None:
                for abbr in abbrs:
                    hit = _cached_result(
                        abbr, scale, config, arch_names, verify, tcache
                    )
                    if hit is not None:
                        done[abbr] = hit
            done.update(fan_out(
                "suite", _suite_cell,
                {
                    abbr: (abbr, scale, config, arch_names, verify, tcache)
                    for abbr in abbrs if abbr not in done
                },
                jobs,
            ))
        for abbr in abbrs:
            res = done.get(abbr)
            # Serial run, a lone uncached workload, or a cell the pool
            # lost: run it here, where fanning its arches out nests no
            # pool.
            if res is None:
                res = run_workload(
                    factory(abbr, scale), config=config,
                    arch_names=arch_names, verify=verify, jobs=jobs,
                    cache=tcache,
                )
            suite.results[abbr] = res
    return suite


def _suite_cell(
    abbr: str,
    scale: str,
    config: GPUConfig,
    arch_names: Tuple[str, ...],
    verify: bool,
    cache,
) -> WorkloadResult:
    """One workload in a pool worker; module-level so it pickles."""
    return run_workload(
        factory(abbr, scale), config=config, arch_names=arch_names,
        verify=verify, jobs=1, cache=cache,
    )


def _cached_result(
    abbr: str,
    scale: str,
    config: GPUConfig,
    arch_names: Tuple[str, ...],
    verify: bool,
    tcache,
) -> Optional[WorkloadResult]:
    """The workload's cached result, looked up with the key
    ``run_workload`` computes.  Only a present entry is fetched, so a
    cold workload counts its single ``cache.miss`` in the worker, the
    same as a serial run."""
    workload = factory(abbr, scale)()
    launches = workload.prepare(Device(config))
    try:
        key = workload_result_key(
            workload, launches, config, arch_names, {}, verify
        )
    except UnhashableKeyPart:
        return None
    if not tcache.contains("result", key):
        return None
    hit = tcache.get("result", key)
    return hit if isinstance(hit, WorkloadResult) else None


# ----------------------------------------------------------------------
# Figure 4 — ideal machines (WP / TB / LN)
# ----------------------------------------------------------------------
def fig4_ideal_machines(suite: SuiteResults) -> Table:
    """Dynamic thread-instruction reduction of the ideal machines.

    Paper averages: WP 27%, TB 22%, LN 33% — with LN above both.
    """
    table = Table(
        "Figure 4: ideal-machine dynamic thread-instruction reduction",
        ["app", "WP", "TB", "LN"],
    )
    sums = {a: [] for a in IDEAL_ARCHES}
    for abbr in suite.abbrs():
        res = suite[abbr]
        cells = []
        for arch in IDEAL_ARCHES:
            red = res.thread_instruction_reduction(arch)
            sums[arch].append(red)
            cells.append(percent(red))
        table.add_row(abbr, *cells)
    table.set_summary(
        "AVG", *[percent(mean(sums[a])) for a in IDEAL_ARCHES]
    )
    return table


# ----------------------------------------------------------------------
# Figure 12 — dynamic warp-instruction reduction
# ----------------------------------------------------------------------
def fig12_instruction_reduction(suite: SuiteResults) -> Table:
    """Paper averages: DAC 20%, DARSIE 18%, DARSIE+Scalar 19%, R2D2 28%."""
    table = Table(
        "Figure 12: dynamic warp-instruction reduction vs baseline",
        ["app", "DAC", "DARSIE", "DARSIE+S", "R2D2"],
    )
    sums = {a: [] for a in COMPARISON_ARCHES}
    for abbr in suite.abbrs():
        res = suite[abbr]
        cells = []
        for arch in COMPARISON_ARCHES:
            red = res.instruction_reduction(arch)
            sums[arch].append(red)
            cells.append(percent(red))
        table.add_row(abbr, *cells)
    table.set_summary(
        "AVG", *[percent(mean(sums[a])) for a in COMPARISON_ARCHES]
    )
    return table


# ----------------------------------------------------------------------
# Figure 13 — speedup
# ----------------------------------------------------------------------
def fig13_speedup(suite: SuiteResults) -> Table:
    """Paper geomeans: DAC 1.15x, DARSIE 1.14x, DARSIE+S 1.14x, R2D2 1.25x."""
    table = Table(
        "Figure 13: speedup over baseline",
        ["app", "DAC", "DARSIE", "DARSIE+S", "R2D2"],
    )
    sums = {a: [] for a in COMPARISON_ARCHES}
    for abbr in suite.abbrs():
        res = suite[abbr]
        cells = []
        for arch in COMPARISON_ARCHES:
            s = res.speedup(arch)
            sums[arch].append(s)
            cells.append(f"{s:.3f}x")
        table.add_row(abbr, *cells)
    table.set_summary(
        "GEOMEAN", *[f"{geomean(sums[a]):.3f}x" for a in COMPARISON_ARCHES]
    )
    return table


# ----------------------------------------------------------------------
# Figure 14 — R2D2 linear/non-linear instruction breakdown
# ----------------------------------------------------------------------
def fig14_instruction_breakdown(suite: SuiteResults) -> Table:
    """Linear (coefficient/thread/block) vs non-linear dynamic warp
    instructions, normalized to the baseline count (paper: linear ~1%)."""
    table = Table(
        "Figure 14: R2D2 dynamic instruction breakdown (vs baseline=1.0)",
        ["app", "nonlinear", "coef", "thread", "block", "linear_frac"],
    )
    fracs = []
    for abbr in suite.abbrs():
        res = suite[abbr]
        base = res["baseline"].warp_instructions
        r = res["r2d2"]
        nonlinear = r.warp_instructions - r.linear_warp_instructions
        linear = r.linear_warp_instructions
        frac = linear / r.warp_instructions if r.warp_instructions else 0.0
        fracs.append(frac)
        table.add_row(
            abbr,
            f"{nonlinear / base:.3f}",
            f"{r.linear_coef_instructions / base:.4f}",
            f"{r.linear_thread_instructions / base:.4f}",
            f"{r.linear_block_instructions / base:.4f}",
            percent(frac),
        )
    table.set_summary("AVG", "", "", "", "", percent(mean(fracs)))
    return table


# ----------------------------------------------------------------------
# Figure 15 — R2D2 cycle breakdown
# ----------------------------------------------------------------------
def fig15_cycle_breakdown(suite: SuiteResults) -> Table:
    """Cycles spent in the decoupled linear phases vs total (paper ~1%,
    with 3DC and LUD the heaviest)."""
    table = Table(
        "Figure 15: R2D2 execution-cycle breakdown",
        ["app", "total_cycles", "linear_cycles", "linear_frac"],
    )
    fracs = []
    for abbr in suite.abbrs():
        r = suite[abbr]["r2d2"]
        # prologue cycles accumulate across SMs and blocks; dividing by
        # the SMs used compares them against the per-SM critical path.
        per_sm_linear = r.linear_cycles / max(1, r.sms_used)
        frac = min(1.0, per_sm_linear / max(1, r.cycles))
        fracs.append(frac)
        table.add_row(
            abbr, r.cycles, round(per_sm_linear), percent(frac)
        )
    table.set_summary("AVG", "", "", percent(mean(fracs)))
    return table


# ----------------------------------------------------------------------
# Figure 16 — energy
# ----------------------------------------------------------------------
def fig16_energy(suite: SuiteResults) -> Table:
    """Paper averages: DAC 9%, DARSIE 8%, DARSIE+Scalar 9%, R2D2 17%."""
    table = Table(
        "Figure 16: total energy reduction vs baseline",
        ["app", "DAC", "DARSIE", "DARSIE+S", "R2D2"],
    )
    sums = {a: [] for a in COMPARISON_ARCHES}
    for abbr in suite.abbrs():
        res = suite[abbr]
        cells = []
        for arch in COMPARISON_ARCHES:
            red = res.energy_reduction(arch)
            sums[arch].append(red)
            cells.append(percent(red))
        table.add_row(abbr, *cells)
    table.set_summary(
        "AVG", *[percent(mean(sums[a])) for a in COMPARISON_ARCHES]
    )
    return table


# ----------------------------------------------------------------------
# Table 3 — blocks-per-grid sensitivity (backprop)
# ----------------------------------------------------------------------
def table3_blocks_sensitivity(
    config: Optional[GPUConfig] = None,
) -> Table:
    """Instruction reduction and speedup across backprop grid sizes.

    The paper reports BP_04..BP_64: reduction 38.3-39.7%, speedup
    1.35-1.36x — i.e. both metrics stable or gently rising with the
    number of blocks."""
    config = config or bench_config()
    table = Table(
        "Table 3: backprop blocks-per-grid sensitivity",
        ["point", "blocks", "instr_reduction", "speedup"],
    )
    for scale in ("bp04", "bp08", "bp16", "bp32", "bp64"):
        res = run_workload(
            factory("BP", scale), config=config,
            arch_names=("baseline", "r2d2"),
        )
        blocks = {"bp04": 4, "bp08": 8, "bp16": 16, "bp32": 32,
                  "bp64": 64}[scale]
        table.add_row(
            f"BP_{scale[2:]}",
            blocks,
            percent(res.instruction_reduction("r2d2")),
            f"{res.speedup('r2d2'):.3f}x",
        )
    return table


# ----------------------------------------------------------------------
# Section 5.4 — pipeline latency tolerance
# ----------------------------------------------------------------------
def sec54_latency_study(
    abbrs: Sequence[str] = ("BP", "NN", "GEM", "SRAD2"),
    scale: str = "small",
    config: Optional[GPUConfig] = None,
) -> Table:
    """Sweep the three R2D2 latency knobs and report the mean speedup
    drop relative to zero-overhead R2D2.

    Paper: ~1% drop at 7 cycles of fetch latency, ~1% at 5 cycles of
    register-ID computation; the LD/ST addition is assumed 4 cycles."""
    config = config or bench_config()
    table = Table(
        "Section 5.4: R2D2 latency tolerance (speedup drop vs 0-latency)",
        ["knob", "cycles", "mean_speedup", "drop"],
    )

    def mean_speedup(cfg: GPUConfig) -> float:
        speeds = []
        for abbr in abbrs:
            res = run_workload(
                factory(abbr, scale), config=cfg,
                arch_names=("baseline", "r2d2"),
            )
            speeds.append(res.speedup("r2d2"))
        return geomean(speeds)

    base_cfg = config.with_latency(
        r2d2_fetch_extra=0, r2d2_regid_extra=0, r2d2_address_add=0
    )
    reference = mean_speedup(base_cfg)
    table.add_row("none", 0, reference, percent(0.0))
    for knob, values in (
        ("fetch", (3, 7)),
        ("regid", (2, 5)),
        ("address_add", (4,)),
    ):
        for cycles in values:
            kw = {
                "fetch": {"r2d2_fetch_extra": cycles},
                "regid": {"r2d2_regid_extra": cycles},
                "address_add": {"r2d2_address_add": cycles},
            }[knob]
            cfg = base_cfg.with_latency(**kw)
            s = mean_speedup(cfg)
            table.add_row(
                knob, cycles, s, percent((reference - s) / reference)
            )
    return table


# ----------------------------------------------------------------------
# Section 5.6 — register usage
# ----------------------------------------------------------------------
def sec56_register_usage(
    abbrs: Sequence[str] = ("STC", "CCMP", "FFT", "KCR", "SSSP", "RES",
                            "VGG"),
    scale: str = "small",
    config: Optional[GPUConfig] = None,
) -> Table:
    """Linear-register footprints and the fallback decision.

    Paper: the register-bounded kernels (graph analysis, FFT, neural
    nets, STC) all still fit their linear registers."""
    from ..arch import R2D2Arch
    from ..sim.gpu import Device

    config = config or bench_config()
    table = Table(
        "Section 5.6: register usage of R2D2 linear registers",
        ["app", "kernel", "regs/thr", "tr", "lr", "cr",
         "linear_slots", "fits"],
    )
    arch = R2D2Arch()
    for abbr in abbrs:
        workload = factory(abbr, scale)()
        device = Device(config)
        launches = workload.prepare(device)
        seen = set()
        for spec in launches:
            if id(spec.kernel) in seen:
                continue
            seen.add(id(spec.kernel))
            rk = arch.transform(spec.kernel)
            usage = rk.register_usage
            block = spec.block
            threads = (
                block if isinstance(block, int)
                else int(__import__("numpy").prod(list(block)))
            )
            blocks_per_sm = usage.occupancy_blocks(
                config, threads, usage.original_regs_per_thread
            )
            table.add_row(
                abbr,
                spec.kernel.name[:24],
                usage.original_regs_per_thread,
                usage.n_thread_registers,
                usage.n_linear_entries,
                usage.n_coefficient_registers,
                usage.linear_storage_slots(threads, blocks_per_sm),
                rk.fits(config, threads),
            )
    return table


# ----------------------------------------------------------------------
# Section 5.7 — persistent threads
# ----------------------------------------------------------------------
def sec57_persistent_threads(
    config: Optional[GPUConfig] = None, scale: str = "small"
) -> Table:
    """FFT vs FFT_PT under R2D2 (paper: considerable improvement for the
    regular-communication persistent-thread style)."""
    config = config or bench_config()
    table = Table(
        "Section 5.7: persistent-thread case study",
        ["variant", "instr_reduction", "speedup"],
    )
    for abbr in ("FFT", "FFT_PT"):
        res = run_workload(
            factory(abbr, scale), config=config,
            arch_names=("baseline", "r2d2"),
        )
        table.add_row(
            abbr,
            percent(res.instruction_reduction("r2d2")),
            f"{res.speedup('r2d2'):.3f}x",
        )
    return table


# ----------------------------------------------------------------------
# Section 5.8.2 — SM-count sensitivity
# ----------------------------------------------------------------------
def sec58_sm_scaling(
    abbrs: Sequence[str] = ("BP", "GEM", "NN"),
    scale: str = "small",
    sm_counts: Sequence[int] = (4, 8, 12, 16),
) -> Table:
    """R2D2 speedup as SMs scale with fixed kernel size (paper: 80-160
    SMs with no performance drop)."""
    table = Table(
        "Section 5.8.2: SM-count sensitivity (R2D2 speedup)",
        ["SMs"] + list(abbrs),
    )
    for n_sms in sm_counts:
        cfg = bench_config(n_sms)
        cells = []
        for abbr in abbrs:
            res = run_workload(
                factory(abbr, scale), config=cfg,
                arch_names=("baseline", "r2d2"),
            )
            cells.append(f"{res.speedup('r2d2'):.3f}x")
        table.add_row(n_sms, *cells)
    return table


# ----------------------------------------------------------------------
# Reduction ladder — linearity ablation
# ----------------------------------------------------------------------
#: The seven classic reduction variants ordered from fully affine
#: addressing down to fully divergent — the ablation axis.
REDUCTION_LADDER: Tuple[Tuple[str, str], ...] = (
    ("RED5", "affine full unroll"),
    ("RED4", "affine + warp-sync tail"),
    ("RED3", "strided shared tree"),
    ("RED2", "strided shared tree"),
    ("RED6", "grid-stride + tree"),
    ("RED1", "interleaved strided"),
    ("RED0", "divergent tid%(2s)"),
)


def _engine_summary(decisions: Sequence[dict]) -> str:
    """One cell summarizing the run's first megawarp outcome, e.g.
    ``vec:engage`` or ``vec:bail(cross-warp-memory-conflict)``."""
    for d in decisions:
        if d.get("engine") == "vector":
            reason = d.get("reason")
            return f"vec:{d.get('decision', '?')}" + (
                f"({reason})" if reason else ""
            )
    return "-"


def _top_demotion(abbr: str, scale: str) -> str:
    """Most frequent analyzer demotion reason for the variant's kernel —
    the provenance of whatever linearity R2D2 could not prove."""
    from ..linear import analyze_kernel
    from ..workloads import get

    kernel = get(abbr).build_kernel(scale)
    counts: Dict[str, int] = {}
    for ev in analyze_kernel(kernel).demotions:
        counts[ev.reason] = counts.get(ev.reason, 0) + 1
    if not counts:
        return "-"
    reason = max(counts, key=lambda r: (counts[r], r))
    return f"{reason} x{counts[reason]}"


def reduction_ablation(
    config: Optional[GPUConfig] = None,
    scale: str = "small",
    suite: Optional[SuiteResults] = None,
) -> Table:
    """Fig 12/13-style per-variant table over the reduction ladder.

    Rows run from affine addressing (full unroll) down to divergent
    ``tid % (2*s)`` branching, showing how much removable redundancy
    R2D2 still finds at each rung, which engine carried the run, and
    the dominant analyzer demotion reason (the causal "why not more").
    """
    config = config or bench_config()
    abbrs = [a for a, _ in REDUCTION_LADDER]
    if suite is None:
        suite = run_suite(abbrs=abbrs, scale=scale, config=config)
    table = Table(
        "Reduction ladder: removable redundancy vs addressing regime",
        ["app", "addressing", "R2D2 red.", "R2D2 speedup",
         "linear_frac", "engines", "top demotion"],
    )
    reds: List[float] = []
    spds: List[float] = []
    for abbr, regime in REDUCTION_LADDER:
        res = suite[abbr]
        red = res.instruction_reduction("r2d2")
        spd = res.speedup("r2d2")
        r = res["r2d2"]
        frac = (
            r.linear_warp_instructions / r.warp_instructions
            if r.warp_instructions else 0.0
        )
        reds.append(red)
        spds.append(spd)
        table.add_row(
            abbr, regime, percent(red), f"{spd:.3f}x", percent(frac),
            _engine_summary(res.engine_decisions),
            _top_demotion(abbr, scale),
        )
    table.set_summary(
        "AVG/GEO", "", percent(mean(reds)), f"{geomean(spds):.3f}x",
        "", "", "",
    )
    return table
