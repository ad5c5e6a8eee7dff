"""Operand kinds for the virtual ISA.

Instructions reference four kinds of source operands, mirroring the paper's
taxonomy of the variables that appear in linear address combinations
(Section 2.1): built-in indices (special registers), immediate constants,
kernel parameters (via ``ld.param``), and kernel/grid dimensions (also
special registers).  The R2D2 transformation adds a fifth kind, the
:class:`LinearRef`, which names a pre-computed linear register ``%lr`` plus
an optional constant offset held in a coefficient register ``%cr``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from .opcodes import DType


class SpecialReg(enum.Enum):
    """GPU built-in registers: thread/block indices and launch dimensions."""

    TID_X = "%tid.x"
    TID_Y = "%tid.y"
    TID_Z = "%tid.z"
    CTAID_X = "%ctaid.x"
    CTAID_Y = "%ctaid.y"
    CTAID_Z = "%ctaid.z"
    NTID_X = "%ntid.x"
    NTID_Y = "%ntid.y"
    NTID_Z = "%ntid.z"
    NCTAID_X = "%nctaid.x"
    NCTAID_Y = "%nctaid.y"
    NCTAID_Z = "%nctaid.z"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def is_thread_index(self) -> bool:
        return self in (SpecialReg.TID_X, SpecialReg.TID_Y, SpecialReg.TID_Z)

    @property
    def is_block_index(self) -> bool:
        return self in (
            SpecialReg.CTAID_X,
            SpecialReg.CTAID_Y,
            SpecialReg.CTAID_Z,
        )


#: Thread-index specials in coefficient-vector order (x, y, z).
THREAD_INDEX_REGS = (SpecialReg.TID_X, SpecialReg.TID_Y, SpecialReg.TID_Z)

#: Block-index specials in coefficient-vector order (X, Y, Z).
BLOCK_INDEX_REGS = (
    SpecialReg.CTAID_X,
    SpecialReg.CTAID_Y,
    SpecialReg.CTAID_Z,
)


@dataclass(frozen=True)
class Reg:
    """A virtual (architectural) register.

    PTX-style naming: the builder assigns ``%r``/``%rd``/``%f``/``%fd``/``%p``
    prefixes by type.  Registers are plain value objects; identity is the
    name.
    """

    name: str
    dtype: DType = DType.S32

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Imm:
    """An immediate constant."""

    value: Union[int, float]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.value)


@dataclass(frozen=True)
class ParamRef:
    """Reference to a kernel parameter slot, as used by ``ld.param``."""

    index: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[P{self.index}]"


@dataclass(frozen=True)
class MemRef:
    """A memory operand ``[base + disp]`` for loads and stores.

    ``base`` is a register holding a byte address; ``disp`` is a constant
    byte displacement, matching PTX addressing.
    """

    base: Reg
    disp: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.disp:
            return f"[{self.base.name}+{self.disp}]"
        return f"[{self.base.name}]"


@dataclass(frozen=True)
class LinearRef:
    """A memory operand referencing a pre-computed linear register ``%lr``.

    Produced by the R2D2 transformation (Section 3.2): the effective
    address is ``%tr(tid) + %br(block) [+ %cr offset] + disp``.  ``lr_id``
    indexes the register table; ``cr_id`` (optional) names a coefficient
    register holding a constant delta shared between grouped linear
    registers (paper Figure 8); ``disp`` is a compile-time constant
    byte displacement.
    """

    lr_id: Optional[int]
    cr_id: Optional[int] = None
    disp: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"%lr{self.lr_id}" if self.lr_id is not None else "%cr-base"]
        if self.cr_id is not None:
            parts.append(f"%cr{self.cr_id}")
        if self.disp:
            parts.append(str(self.disp))
        return "[" + "+".join(parts) + "]"


@dataclass(frozen=True)
class CoeffRegOperand:
    """A register operand reading a coefficient register ``%cr``.

    Coefficient registers hold kernel-uniform values computed once by the
    scalar pipeline (paper Section 3.2.1); rewritten non-linear
    instructions read them in place of the removed scalar computation
    chains.
    """

    cr_id: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"%cr{self.cr_id}"


@dataclass(frozen=True)
class LinearRegOperand:
    """A *register* operand reading the value of linear register ``%lr``.

    Used when a rewritten non-linear instruction needs the pre-computed
    linear combination as an arithmetic source rather than as a memory
    address (e.g. a linear value stored to memory or compared against a
    bound).
    """

    lr_id: int
    cr_id: Optional[int] = None
    disp: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        text = f"%lr{self.lr_id}"
        if self.cr_id is not None:
            text += f"(+%cr{self.cr_id})"
        if self.disp:
            text += f"(+{self.disp})"
        return text


Operand = Union[
    Reg,
    Imm,
    SpecialReg,
    ParamRef,
    MemRef,
    LinearRef,
    CoeffRegOperand,
    LinearRegOperand,
]
