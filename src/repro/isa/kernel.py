"""Kernel container: an instruction stream with labels and parameters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .instruction import Instruction
from .opcodes import DType, Opcode
from .operands import Reg


@dataclass(frozen=True)
class Param:
    """A kernel parameter slot.

    Parameters are either pointers (byte addresses of device buffers) or
    scalar values; both are delivered at launch time, which is why the
    paper's analysis represents their coefficients symbolically.
    """

    name: str
    dtype: DType = DType.S64
    is_pointer: bool = False


class Kernel:
    """A compiled kernel: a flat instruction list plus label metadata.

    Instructions are addressed by index (their "PC").  Labels map a name to
    the index of the first instruction at that point.
    """

    def __init__(
        self,
        name: str,
        params: Sequence[Param],
        instructions: Sequence[Instruction],
        labels: Dict[str, int],
        shared_mem_bytes: int = 0,
    ) -> None:
        self.name = name
        self.params: Tuple[Param, ...] = tuple(params)
        self.instructions: List[Instruction] = list(instructions)
        self.labels: Dict[str, int] = dict(labels)
        self.shared_mem_bytes = shared_mem_bytes
        self._validate_labels()

    def _validate_labels(self) -> None:
        n = len(self.instructions)
        for name, pc in self.labels.items():
            if not 0 <= pc <= n:
                raise ValueError(f"label {name!r} points outside kernel ({pc})")
        for pc, instr in enumerate(self.instructions):
            if instr.opcode is Opcode.BRA:
                if instr.target not in self.labels:
                    raise ValueError(
                        f"branch at pc {pc} targets unknown label "
                        f"{instr.target!r}"
                    )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def label_pc(self, name: str) -> int:
        return self.labels[name]

    def registers(self) -> List[Reg]:
        """All distinct virtual registers referenced by the kernel."""
        seen: Dict[str, Reg] = {}
        for instr in self.instructions:
            for reg in instr.dest_regs() + instr.source_regs():
                seen.setdefault(reg.name, reg)
        return list(seen.values())

    def write_counts(self) -> Dict[str, int]:
        """Number of static writes per register name.

        Registers written more than once are the paper's *multi-write
        registers* (Section 3.1.2): they indicate control-flow divergence
        or loop-carried updates in the SSA-style PTX stream.
        """
        counts: Dict[str, int] = {}
        for instr in self.instructions:
            if instr.dst is not None:
                counts[instr.dst.name] = counts.get(instr.dst.name, 0) + 1
        return counts

    def disassemble(self) -> str:
        """Human-readable listing with labels interleaved."""
        by_pc: Dict[int, List[str]] = {}
        for name, pc in self.labels.items():
            by_pc.setdefault(pc, []).append(name)
        lines: List[str] = [f"// kernel {self.name}"]
        for pc, instr in enumerate(self.instructions):
            for lbl in by_pc.get(pc, []):
                lines.append(f"{lbl}:")
            lines.append(f"  /*{pc:04d}*/ {instr}")
        for lbl in by_pc.get(len(self.instructions), []):
            lines.append(f"{lbl}:")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Kernel({self.name!r}, {len(self.params)} params, "
            f"{len(self.instructions)} instrs)"
        )


@dataclass(frozen=True)
class Dim3:
    """A CUDA-style 3-component dimension."""

    x: int = 1
    y: int = 1
    z: int = 1

    def __post_init__(self) -> None:
        if min(self.x, self.y, self.z) < 1:
            raise ValueError(f"dimensions must be >= 1, got {self}")

    @property
    def count(self) -> int:
        return self.x * self.y * self.z

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z

    def linear_to_xyz(self, idx: int) -> Tuple[int, int, int]:
        """Convert a flat index (x-major, matching CUDA) to (x, y, z)."""
        x = idx % self.x
        y = (idx // self.x) % self.y
        z = idx // (self.x * self.y)
        return x, y, z


@dataclass
class LaunchConfig:
    """Grid/block geometry plus parameter values for one kernel launch."""

    grid: Dim3
    block: Dim3
    args: Tuple[object, ...] = ()

    @property
    def threads_per_block(self) -> int:
        return self.block.count

    @property
    def num_blocks(self) -> int:
        return self.grid.count
