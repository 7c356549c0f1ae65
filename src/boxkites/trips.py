"""Associative triplets: recognition, orientation, enumeration, counting.

A triple of distinct nonzero indices (a, b, c) with a ^ b = c spans an
associative (quaternionic) subalgebra.  Written in cyclically positive
order (CPO), left-to-right products of adjacent members come out
positive.  A trip stored ascending is "good" when ascending order is
already CPO and "bad" when the cycle runs the other way.

``Trip`` and ``TripCount`` are named tuples (see ``cdp``): a trip is
also the 4-tuple (a, b, c, good).
"""

from __future__ import annotations

from typing import NamedTuple

from .cdp import IndexRangeError, InvariantError, Level, mul_basis, sign_table


class NotTripError(ValueError):
    """The given indices do not form an associative triplet."""


class Trip(NamedTuple("Trip", [("a", int), ("b", int), ("c", int), ("good", bool)])):
    """Canonical trip: indices ascending, orientation in the good flag."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, good: bool) -> Trip:
        if not 0 < a < b < c:
            raise ValueError(f"trip must be stored ascending: {(a, b, c)}")
        if a ^ b != c:
            raise ValueError(f"not closed under XOR: {(a, b, c)}")
        return tuple.__new__(cls, (a, b, c, good))

    @classmethod
    def _make(cls, fields) -> Trip:
        """Build through __new__, so ``_replace`` refuses a bad field too."""
        return cls(*fields)

    def indices(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def cpo(self) -> tuple[int, int, int]:
        """CPO rotation starting from the smallest index."""
        a, b, c, good = self
        return (a, b, c) if good else (a, c, b)


class TripCount(NamedTuple):
    n: int
    total: int
    good: int
    bad: int


def is_trip(a: int, b: int, c: int, lvl: Level) -> bool:
    """True when the indices are distinct, nonzero, and XOR-closed."""
    # shifted by n instead of compared with 2^n, which a huge level cannot build
    for k in (a, b, c):
        if k < 0 or k >> lvl.n:
            raise IndexRangeError(f"index {k} out of range for 2^{lvl.n}-ions")
    if 0 in (a, b, c) or len({a, b, c}) != 3:
        return False
    return a ^ b == c


def cpo_orient(a: int, b: int, c: int, lvl: Level) -> Trip:
    """Classify a trip, fixing its canonical ascending storage and flag."""
    if not is_trip(a, b, c, lvl):
        raise NotTripError(f"{(a, b, c)} is not an associative triplet")
    x, y, z = sorted((a, b, c))
    return Trip(x, y, z, mul_basis(x, y, lvl).sign > 0)


def enumerate_trips(lvl: Level) -> list[Trip]:
    """All trips at a level, ascending storage, sorted by (a, b, c).

    Orientations are read off the level's sign table: a trip is good
    when bit b of row a is clear, i_a i_b = +i_c.  sign_table refuses a
    level above cdp.MEMO_MAX_N before anything is enumerated.
    """
    table = sign_table(lvl.n)
    out: list[Trip] = []
    for a in range(1, lvl.dim):
        row = table[a]
        for b in range(a + 1, lvl.dim):
            c = a ^ b
            if c > b:
                out.append(Trip(a, b, c, not row >> b & 1))
    return out


def _closed_form(n: int) -> int:
    d = 1 << n
    return (d - 1) * (d - 2) // 6


def trip_count(n: int) -> TripCount:
    """Closed-form trip census for the 2^n-ions.

    The total is the choose-two-then-divide count over the imaginary
    units; the bad share equals twice the previous level's total, and
    the remainder, including the fresh generator triples, is good.
    """
    if n < 1:
        raise ValueError(f"need n >= 1: {n}")
    total = _closed_form(n)
    bad = 2 * _closed_form(n - 1)
    return TripCount(n, total, total - bad, bad)


def rule2_expand(t: Trip | tuple[int, int, int], g: int) -> list[tuple[int, int, int]]:
    """Expand one CPO triple through a doubling by generator g.

    Each rotation (x, y, z) of the input yields (x, z + g, y + g):
    adding the generator to two members reverses the cycle.  Accepts a
    Trip or a bare CPO tuple and returns the three expansions, each a
    CPO tuple, in rotation order.
    """
    cpo = t.cpo() if isinstance(t, Trip) else tuple(t)
    if len(cpo) != 3:
        raise NotTripError(f"need exactly three indices: {cpo!r}")
    if g < 2 or g & (g - 1):
        raise ValueError(f"generator must be a power of two >= 2: {g}")
    if not all(0 < k < g for k in cpo):
        raise IndexRangeError(f"indices {cpo} must lie strictly below the generator {g}")
    lvl = Level(g.bit_length())  # results live one doubling up
    x, y, z = cpo
    if not is_trip(x, y, z, lvl) or mul_basis(x, y, lvl).sign < 0:
        raise NotTripError(f"{cpo} is not in cyclically positive order")
    out = []
    for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
        new = (p, r + g, q + g)
        if new[0] ^ new[1] != new[2] or mul_basis(new[0], new[1], lvl).sign < 0:
            raise InvariantError(f"Rule 2 took {(p, q, r)} to {new}, not a CPO trip")
        out.append(new)
    return out


def trips_to_lines(trips: list[Trip]) -> list[str]:
    """Stable text export: one "a b c good|bad" line per trip."""
    ordered = sorted(trips, key=lambda t: (t.a, t.b, t.c))
    return [f"{t.a} {t.b} {t.c} {'good' if t.good else 'bad'}" for t in ordered]
