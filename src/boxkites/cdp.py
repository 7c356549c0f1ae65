"""Exact arithmetic for Cayley-Dickson basis units and sparse elements.

Basis units of the 2^n-dimensional algebra carry indices 0 .. 2^n - 1,
index 0 being the real unit.  A product of two basis units lands on the
XOR of the factors' indices; its sign comes from the doubling
construction and does not depend on the ambient dimension, so one signed
table serves every level (lower tables sit in the corner of higher ones).

Coefficients are exact (int or Fraction); floats are rejected so that
zero detection is never approximate.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

Coeff = Union[int, Fraction]

#: sign tables are memoized up to this level, and it is the sweep ceiling too:
#: zd.check_strut, sign_table and theorems.run_suite refuse any level above it,
#: where only single products answer, by the bare sign loop
MEMO_MAX_N = 8


class IndexRangeError(ValueError):
    """A basis index does not fit the ambient 2^n-ion level."""


class InvariantError(RuntimeError):
    """An identity that holds by construction came out false: a bug, not
    bad input."""


@dataclass(frozen=True, slots=True)
class Level:
    """Ambient level: the 2^n-ions, whose generator has index 2^(n-1)."""

    n: int

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"level exponent must be a positive int: {self.n!r}")

    @property
    def g(self) -> int:
        """Index of the unit whose adjunction produced this level."""
        return 1 << (self.n - 1)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def __repr__(self) -> str:
        return f"Level({self.n})"


class SignedUnit(NamedTuple):
    sign: int
    index: int


def _basis_sign(a: int, b: int) -> int:
    """Sign of the basis product i_a * i_b, by unrolled doubling.

    One doubling step views a unit of the 2h-dimensional algebra as a
    pair of h-dimensional units, multiplied by

        (p, q) * (r, t) = (p r - t* q,  t p + q r*)

    with * the conjugation.  Unrolled to single basis units this leaves
    the four index cases below, each reducing the pair to one in the
    h-dimensional algebra, so the loop strips one top bit per pass and
    ends at the reals.  The result is the same at every level that
    contains both factors.
    """
    sign = 1
    while a and b:
        if a == b:
            return -sign
        h = 1 << ((a | b).bit_length() - 1)
        if a < h:  # low * high:  (e_a, 0)(0, e_j) = (0, e_j e_a)
            a, b = b - h, a
        elif b < h:  # high * low:  (0, e_i)(e_b, 0) = (0, e_i e_b*)
            a, sign = a - h, -sign
        else:  # high * high: (0, e_i)(0, e_j) = (-e_j* e_i, 0)
            i, j = a - h, b - h
            if j == 0:
                return -sign
            a, b = j, i
    return sign


def _validate_convention() -> None:
    """Import-time self-check of the sign convention.

    Two facts pin the whole table down: a unit indexed below a
    power-of-two generator g satisfies i_L * i_g = +i_(g+L), and the
    quaternion cycle (1,2,3) doubles into the six oriented octonion
    cycles listed here.  A doubling variant with conjugations placed the
    other way would break these; guard against regressions.
    """
    for g in (2, 4, 8, 16):
        for lo in range(1, g):
            if _basis_sign(lo, g) != 1:
                raise InvariantError(f"i_{lo} * i_{g} is not +i_{lo + g}")
    cycles = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7), (1, 7, 6), (2, 5, 7), (3, 6, 5))
    for x, y, z in cycles:
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
            if p ^ q != r or _basis_sign(p, q) != 1:
                raise InvariantError(f"i_{p} * i_{q} is not +i_{r}")


_validate_convention()

_TABLES: dict[int, list[list[int]]] = {}


def _double(lower: list[list[int]]) -> list[list[int]]:
    """The sign table one doubling above ``lower``, read off its rows.

    With h = len(lower) and L = lower, cell (a, b) of the doubled table
    falls in one of _basis_sign's cases:

    - a < h, b < h: no top bit to strip, so the sign is L[a][b];
    - a < h, b = h + j: low * high goes to sign(j, a) = L[j][a], which
      is +1 at j = 0 (a real left factor), so the row's right half is
      column a of L;
    - a = h + i, b = 0: i_0 is the identity, +1;
    - a = h + i, 0 < b < h: high * low goes to -sign(i, b) = -L[i][b],
      also at i = 0, where the loop ends on a = 0 with the sign flipped;
    - a = h + i, b = h: high * high with j = 0 is -1, also at i = 0,
      where a == b;
    - a = h + i, b = h + j, j > 0: high * high goes to sign(j, i) =
      L[j][i], which is -1 at i == j as a == b requires.

    So low row a is L[a] followed by column a of L, and high row h + i is
    +1, the negated L[i][1:], -1, and column i of L without its first
    entry.  Every cell is one read of the lower table, and sign_table(n)
    equals _basis_sign at every cell for n = 1..8
    (tests/test_cdp.py::test_doubled_sign_tables_match_basis_sign).
    """
    h = len(lower)
    cols = list(zip(*lower))
    low = [[*lower[a], *cols[a]] for a in range(h)]
    high = [[1, *[-v for v in lower[i][1:]], -1, *cols[i][1:]] for i in range(h)]
    return low + high


def sign_table(n: int) -> list[list[int]]:
    """Signed multiplication table for the 2^n-ions, memoized for n <= 8.

    A missing table is doubled up from the highest one already built
    below it (from the reals' [[1]] when there is none), and every level
    passed on the way is kept, so each level is built once.
    """
    if not 1 <= n <= MEMO_MAX_N:
        raise ValueError(f"sign tables are kept only for 1 <= n <= {MEMO_MAX_N}: {n}")
    tbl = _TABLES.get(n)
    if tbl is None:
        base = max((m for m in _TABLES if m < n), default=0)
        tbl = _TABLES[base] if base else [[1]]
        for m in range(base + 1, n + 1):
            tbl = _TABLES[m] = _double(tbl)
    return tbl


def mul_basis(a: int, b: int, lvl: Level) -> SignedUnit:
    """Signed product of two basis units at the given level.

    The result index is a ^ b; i_0 is a two-sided identity and every
    other unit squares to -1.  The range check shifts the indices by n
    instead of building 2^n, so a level of any size costs nothing here.
    """
    n = lvl.n
    if not (a >= 0 and b >= 0 and not a >> n and not b >> n):
        raise IndexRangeError(f"basis indices ({a}, {b}) out of range for 2^{n}-ions")
    if n <= MEMO_MAX_N:
        tbl = _TABLES.get(n) or sign_table(n)
        return SignedUnit(tbl[a][b], a ^ b)
    return SignedUnit(_basis_sign(a, b), a ^ b)


def _check_coeff(v: Coeff) -> Coeff:
    if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
        raise TypeError(f"coefficients must be exact int or Fraction, got {type(v).__name__}")
    return v


class Element:
    """Sparse exact element: a finite signed sum of basis units.

    Stored as {index: coefficient} with zero coefficients dropped, so
    equality is canonical and exact cancelation yields the zero element.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Coeff] | Iterable[tuple[int, Coeff]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Coeff] = {}
        for k, v in items:
            if isinstance(k, bool) or not isinstance(k, int) or k < 0:
                raise IndexRangeError(f"basis index must be a non-negative int: {k!r}")
            _check_coeff(v)
            acc[k] = acc.get(k, 0) + v
        self._terms = {k: v for k, v in acc.items() if v != 0}

    @classmethod
    def unit(cls, index: int, coeff: Coeff = 1) -> "Element":
        return cls({index: coeff})

    @classmethod
    def scalar(cls, value: Coeff) -> "Element":
        return cls({0: value})

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @property
    def terms(self) -> dict[int, Coeff]:
        return dict(self._terms)

    def coeff(self, index: int) -> Coeff:
        return self._terms.get(index, 0)

    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        acc = dict(self._terms)
        for k, v in other._terms.items():
            acc[k] = acc.get(k, 0) + v
        return Element(acc)

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Element":
        out = Element.__new__(Element)
        out._terms = {k: -v for k, v in self._terms.items()}
        return out

    def __mul__(self, other: Coeff) -> "Element":
        if isinstance(other, Element):
            raise TypeError("element products need an ambient level; use mul_element")
        _check_coeff(other)
        if other == 0:
            return Element.zero()
        out = Element.__new__(Element)
        out._terms = {k: v * other for k, v in self._terms.items()}
        return out

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Element) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {v!r}" for k, v in sorted(self._terms.items()))
        return f"Element({{{inner}}})"


def mul_element(x: Element, y: Element, lvl: Level) -> Element:
    """Bilinear product: distribute mul_basis over all term pairs.

    Like terms collect, so exact cancelation can return the zero element.
    Neither operand is ever mutated and the product is a new element, so
    an element may be shared by any number of products (each assessor
    plane shares its two diagonals this way).
    """
    n = lvl.n
    tbl = _TABLES.get(n)
    if tbl is None and n <= MEMO_MAX_N:
        tbl = sign_table(n)
    # a built table is 2^n rows long; above the tables (dim 0) the range
    # check shifts by n instead of building 2^n
    dim = len(tbl) if tbl is not None else 0
    for terms in (x._terms, y._terms):
        for k in terms:
            if k >= dim and (dim or k >> n):
                raise IndexRangeError(f"term index {k} outside 2^{n}-ions (level mismatch)")
    acc: dict[int, Coeff] = {}
    for i, ci in x._terms.items():
        row = tbl[i] if tbl is not None else None
        for j, cj in y._terms.items():
            s = row[j] if row is not None else _basis_sign(i, j)
            k = i ^ j
            c = acc.get(k, 0) + (ci * cj if s > 0 else -(ci * cj))
            if c:
                acc[k] = c
            elif k in acc:
                del acc[k]
    out = Element.__new__(Element)
    out._terms = acc
    return out


def conjugate(x: Element) -> Element:
    """Negate every imaginary coefficient, fixing the real part."""
    out = Element.__new__(Element)
    out._terms = {k: (v if k == 0 else -v) for k, v in x._terms.items()}
    return out
