"""The suite benchmark's workloads: which apps each one runs, at what size.

Pure data, importable without the ``repro`` package, so ``run.py`` can
validate its arguments before it spawns anything.  Why each workload
exists is in ``README.md``; in short, the three load ``arch.r2d2``,
``sim`` timing replay and ``sim`` functional execution very differently,
so an optimisation of one layer shows on one workload and must not show
as a loss on the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Suite:
    name: str
    apps: Tuple[str, ...]
    #: Two cheap apps for ``--smoke`` runs.
    smoke_apps: Tuple[str, ...]
    #: ``(grid, block)`` the reduction ladder is resized to; ``None``
    #: runs the apps at the ``tiny`` scale preset.
    ladder: Optional[Tuple[int, int]] = None

    def scale(self, smoke: bool) -> str:
        """Scale preset name the apps are constructed with."""
        return "bench" if self.ladder and not smoke else "tiny"


#: Table-2 apps run at ``tiny``: one cold run of the irregular set at
#: ``small`` takes ~50 s on a 2-core VM, longer than a whole benchmark
#: run (several cold samples plus ten warm reruns) may take.  Every
#: app the workload names is kept.
WORKLOADS: Dict[str, Suite] = {
    s.name: s for s in (
        Suite(
            "table2-affine",
            ("2MM", "3MM", "GEM", "SGM", "SRAD2", "FDT", "DWT", "RAY",
             "MRQ", "FFT", "BP", "NN", "PTH"),
            smoke_apps=("BP", "NN"),
        ),
        Suite(
            "table2-irregular",
            ("BFS", "SSSP", "CCMP", "KCR", "MRG", "SPM", "MUM", "BTR",
             "HIS", "CFD", "LUD"),
            smoke_apps=("MRG", "HIS"),
        ),
        Suite(
            "reduction-ladder",
            ("RED0", "RED1", "RED2", "RED3", "RED4", "RED5", "RED6"),
            smoke_apps=("RED4", "RED5"),
            # 32 blocks per SM on the 4-SM bench GPU: enough blocks for
            # R2D2's linear prologues to amortize (~1.09x on RED0/RED1).
            ladder=(128, 128),
        ),
    )
}
