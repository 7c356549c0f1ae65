"""Exact arithmetic for Cayley-Dickson basis units and sparse elements.

Basis units of the 2^n-dimensional algebra carry indices 0 .. 2^n - 1,
index 0 being the real unit.  A product of two basis units lands on the
XOR of the factors' indices; its sign comes from the doubling
construction and does not depend on the ambient dimension.  So one sign
table serves every level: the negative-sign bit rows of the top level
(cdp.MEMO_MAX_N), built once at import, each lower level their corner.

Coefficients are exact (int or Fraction); floats are rejected so that
zero detection is never approximate.

The package's records (``Level`` here, and the trips, planes, kites,
tables and theorem results of the other modules) are named tuples:
immutable, hashed and compared as the tuple of their fields, so a record
has a length, iterates over its fields and equals a plain tuple of the
same values.  A record with a constraint on its fields (``Level``,
``trips.Trip``, ``zd.Assessor``, ``zd.Diagonal``) refuses bad ones in
``__new__``, which its ``_make``, ``_replace`` and unpickling go through.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from typing import NamedTuple, Union

Coeff = Union[int, Fraction]

#: the level of the one sign table, and the sweep ceiling too: zd.check_strut,
#: sign_table and theorems.run_suite refuse any level above it, where only
#: single products answer, by the bare sign loop
MEMO_MAX_N = 8


class IndexRangeError(ValueError):
    """A basis index does not fit the ambient 2^n-ion level."""


class InvariantError(RuntimeError):
    """An identity that holds by construction came out false: a bug, not
    bad input."""


class Level(NamedTuple("Level", [("n", int)])):
    """Ambient level: the 2^n-ions, whose generator has index 2^(n-1)."""

    __slots__ = ()

    def __new__(cls, n: int) -> Level:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"level exponent must be a positive int: {n!r}")
        return tuple.__new__(cls, (n,))

    @classmethod
    def _make(cls, fields) -> Level:
        """Build through __new__, so ``_replace`` refuses a bad field too."""
        return cls(*fields)

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


def _double(rows: list[int]) -> list[int]:
    """The negative-sign bit rows one doubling above ``rows``.

    Bit b of row a is set when i_a * i_b has sign -1.  With h = len(rows)
    and t(a, b) the lower level's sign, cell (a, b) of the doubled table
    falls in one of _basis_sign's cases:

    - a < h, b < h: no top bit to strip, so the sign is t(a, b);
    - a < h, b = h + j: low * high goes to t(j, a), which is +1 at
      j = 0 (a real left factor), so the row's upper half is column a;
    - a = h + i, b = 0: i_0 is the identity, +1;
    - a = h + i, 0 < b < h: high * low goes to -t(i, b), also at i = 0,
      where the loop ends on a = 0 with the sign flipped;
    - a = h + i, b = h: high * high with j = 0 is -1, also at i = 0,
      where a == b;
    - a = h + i, b = h + j, j > 0: high * high goes to t(j, i), which is
      -1 at i == j as a == b requires.

    So low row a is row a followed by column a, and high row h + i is
    row i with its bits 1..h-1 flipped and bit 0 clear, followed by
    column i with bit 0 (the cell b = h) set.

    A column is read off its row.  At every level i_0 is a two-sided
    identity, every other unit squares to -1 and distinct imaginary
    units anticommute.  This holds for the reals' one row, and each
    doubling keeps it, as the cases show, given it one level down:
    t(h+i, 0) = +1; t(h+i, h+i) = -1; t(a, h+j) = t(j, a) = -t(h+j, a)
    for a > 0; t(h, h+j) = t(j, 0) = +1 = -t(h+j, h) for j > 0; and
    t(h+i, h+j) = t(j, i) = -t(i, j) = -t(h+j, h+i) for distinct
    i, j > 0.  So column a of a level, a > 0, is its row a with every
    bit flipped but bit 0 (t(0, a) = +1) and bit a (t(a, a) = -1), and
    column 0 is clear.

    sign_table(n) equals _basis_sign at every cell for n = 1..8
    (tests/test_cdp.py::test_sign_table_bits_equal_basis_sign).
    """
    h = len(rows)
    flip = (1 << h) - 2  # bits 1..h-1
    cols = [0] + [r ^ flip ^ (1 << a) for a, r in enumerate(rows) if a]
    low = [r | c << h for r, c in zip(rows, cols)]
    high = [r ^ flip | (c | 1) << h for r, c in zip(rows, cols)]
    return low + high


def _build_rows() -> tuple[int, ...]:
    rows = [0]  # the reals: i_0 * i_0 = +1
    for _ in range(MEMO_MAX_N):
        rows = _double(rows)
    return tuple(rows)


#: the top level's negative-sign bit rows: bit b of row a is set when
#: i_a * i_b has sign -1; level n's table is their 2^n x 2^n corner
_ROWS = _build_rows()


def sign_table(n: int) -> tuple[int, ...]:
    """The 2^n-ions' negative-sign bit rows, for 1 <= n <= MEMO_MAX_N.

    Row a has bit b set when i_a * i_b has sign -1.  The rows are the
    corner of the one table: its first 2^n rows, masked to 2^n bits.
    """
    if not 1 <= n <= MEMO_MAX_N:
        raise ValueError(f"sign tables are kept only for 1 <= n <= {MEMO_MAX_N}: {n}")
    mask = (1 << (1 << n)) - 1
    return tuple(r & mask for r in _ROWS[: 1 << n])


def mul_basis(a: int, b: int, lvl: Level) -> SignedUnit:
    """Signed product of two basis units at the given level.

    The result index is a ^ b; i_0 is a two-sided identity and every
    other unit squares to -1.  The range check shifts the indices by n
    instead of building 2^n, so a level of any size costs nothing here.
    Below the ceiling the sign is bit b of the one table's row a; above
    it the sign loop answers.
    """
    n = lvl.n
    if not (a >= 0 and b >= 0 and not a >> n and not b >> n):
        raise IndexRangeError(f"basis indices ({a}, {b}) out of range for 2^{n}-ions")
    if n <= MEMO_MAX_N:
        return SignedUnit(-1 if _ROWS[a] >> b & 1 else 1, a ^ b)
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
    an element may be shared by any number of products.

    One range check serves every level: an index fits the 2^n-ions iff
    shifting it by n leaves 0.  Below the ceiling each sign is bit j of
    the one table's row i, which is level n's own sign as the indices
    fit the corner; above it the sign loop answers.
    """
    n = lvl.n
    for terms in (x._terms, y._terms):
        for k in terms:
            if k >> n:
                raise IndexRangeError(f"term index {k} outside 2^{n}-ions (level mismatch)")
    acc: dict[int, Coeff] = {}
    for i, ci in x._terms.items():
        row = _ROWS[i] if n <= MEMO_MAX_N else None
        for j, cj in y._terms.items():
            neg = row >> j & 1 if row is not None else _basis_sign(i, j) < 0
            k = i ^ j
            c = acc.get(k, 0) + (-(ci * cj) if neg else ci * cj)
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
