"""Symbolic integer expressions for coefficient vectors.

Kernel parameters and launch dimensions are unknown at compile time, so
the R2D2 analyzer "writes the coefficient vectors using variable symbols"
(paper Section 3.1.1, e.g. ``16*(P1+1)``).  :class:`LinExpr` is a small
multivariate integer polynomial in canonical form — sums of integer-scaled
monomials over symbols like ``P1`` or ``NTID_X`` — which gives exact
structural equality (needed for the sharing/grouping pass of Section
3.1.4) and exact launch-time evaluation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple, Union

Monomial = Tuple[str, ...]  # sorted symbol names, with multiplicity
Number = Union[int, "LinExpr"]


class LinExpr:
    """An immutable multivariate polynomial with integer coefficients.

    Internally a mapping from monomial (a sorted tuple of symbol names) to
    its integer coefficient; the empty monomial is the constant term.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] = ()) -> None:
        cleaned = {m: c for m, c in dict(terms).items() if c != 0}
        self._terms: Dict[Monomial, int] = cleaned
        self._hash = hash(frozenset(cleaned.items()))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def const(value: int) -> "LinExpr":
        if not isinstance(value, int):
            raise TypeError(f"LinExpr constants must be int, got {value!r}")
        return LinExpr({(): value})

    @staticmethod
    def symbol(name: str) -> "LinExpr":
        return LinExpr({(name,): 1})

    @staticmethod
    def coerce(value: Number) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        return LinExpr.const(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def terms(self) -> Mapping[Monomial, int]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(m == () for m in self._terms)

    @property
    def constant_value(self) -> int:
        """The value if constant; raises otherwise."""
        if not self.is_constant:
            raise ValueError(f"{self} is not a constant")
        return self._terms.get((), 0)

    def symbols(self) -> Iterable[str]:
        seen = set()
        for monomial in self._terms:
            for sym in monomial:
                if sym not in seen:
                    seen.add(sym)
                    yield sym

    def degree(self) -> int:
        return max((len(m) for m in self._terms), default=0)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Number) -> "LinExpr":
        other = LinExpr.coerce(other)
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, 0) + c
        return LinExpr(terms)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: Number) -> "LinExpr":
        return self + (-LinExpr.coerce(other))

    def __rsub__(self, other: Number) -> "LinExpr":
        return LinExpr.coerce(other) + (-self)

    def __mul__(self, other: Number) -> "LinExpr":
        other = LinExpr.coerce(other)
        terms: Dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = tuple(sorted(m1 + m2))
                terms[m] = terms.get(m, 0) + c1 * c2
        return LinExpr(terms)

    __rmul__ = __mul__

    def shifted_left(self, bits: int) -> "LinExpr":
        return self * (1 << bits)

    # ------------------------------------------------------------------
    # Equality / hashing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LinExpr.const(other)
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate with concrete symbol values (kernel launch time)."""
        total = 0
        for monomial, coeff in self._terms.items():
            value = coeff
            for sym in monomial:
                try:
                    value *= env[sym]
                except KeyError:
                    raise KeyError(
                        f"no value for symbol {sym!r} while evaluating {self}"
                    ) from None
            total += value
        return total

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for monomial in sorted(self._terms, key=lambda m: (len(m), m)):
            coeff = self._terms[monomial]
            if monomial == ():
                parts.append(str(coeff))
            else:
                sym_text = "*".join(monomial)
                if coeff == 1:
                    parts.append(sym_text)
                elif coeff == -1:
                    parts.append(f"-{sym_text}")
                else:
                    parts.append(f"{coeff}*{sym_text}")
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text


ZERO = LinExpr()
ONE = LinExpr.const(1)


def param_symbol(index: int) -> LinExpr:
    """Symbol for kernel parameter slot ``index`` (paper: ``P1`` etc.)."""
    return LinExpr.symbol(f"P{index}")


def dim_symbol(name: str) -> LinExpr:
    """Symbol for a launch dimension special register, e.g. ``NTID_X``."""
    return LinExpr.symbol(name)


def launch_env(
    param_values: Mapping[int, int],
    block: Tuple[int, int, int],
    grid: Tuple[int, int, int],
) -> Dict[str, int]:
    """Build the evaluation environment available at kernel launch."""
    env: Dict[str, int] = {f"P{i}": int(v) for i, v in param_values.items()}
    env["NTID_X"], env["NTID_Y"], env["NTID_Z"] = block
    env["NCTAID_X"], env["NCTAID_Y"], env["NCTAID_Z"] = grid
    return env
