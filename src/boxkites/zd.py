"""Zero-divisor machinery over assessor planes.

An assessor is the plane spanned by one unit indexed below the ambient
generator (its L-index) and one indexed above it (its U-index).  Its two
diagonals, the sum and the difference of those units, are the primitive
zero-divisor lines.  Two assessors whose suitably signed diagonals
multiply to exactly zero are "dyads making zero" (DMZs); every DMZ pair
annihilates in exactly one slope class, emanates a third assessor, and
twists into a partner pair with another strut constant.

Nothing here reasons from sign patterns, because above 16 dimensions
the patterns that hold there silently break (carrybit overflow), and the
breakage is part of the subject matter.  A cluster's zeros are decided
by ``relation``: four reads of the exact sign table per plane pair,
with the proof that those reads decide the product written next to it.
``dmz_scan``, ``etable.build_et``, ``kites.survey`` and Theorems 3, 5
and 6 read it.  ``dmz_pattern``, ``emanate``, ``twist`` and
``diagonal_product`` (and ``kites.build_boxkite`` and ``trace_lanyard``
through them) answer single queries by exact element arithmetic and are
the oracle the relation is tested against; each plane builds its two
diagonal elements once, on first use, and every product taken with the
plane multiplies those.  What the sweeps skip are the pairs that index arithmetic alone
proves nonzero: a two-term product can only vanish when both factors
have the same XOR of their two indices (the lemma at ``_xor_buckets``),
so all-level sweeps look only within a cluster or an XOR bucket.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import NamedTuple

from .cdp import (
    MEMO_MAX_N,
    Element,
    IndexRangeError,
    InvariantError,
    Level,
    mul_basis,
    mul_element,
    sign_table,
)

SLASH = 1
BACKSLASH = -1

_SLOPE_CHAR = {SLASH: "/", BACKSLASH: "\\"}


class NotDmzError(ValueError):
    """Operands were expected to make zero and do not."""


@dataclass(frozen=True, slots=True)
class Assessor:
    """Plane spanned by i_lo (below the generator) and i_hi (above it).

    Its two diagonals are built once, on first use, and shared by every
    product taken with the plane; equality, hash and repr see only
    (lo, hi, lvl).
    """

    lo: int
    hi: int
    lvl: Level
    _diagonals: tuple[Element, Element] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for k in (self.lo, self.hi):
            if isinstance(k, bool) or not isinstance(k, int):
                raise IndexRangeError(f"assessor index must be an int: {k!r}")
        # checked by bit length, never building 2^(n-1) or 2^n, so a level
        # of any size costs nothing here: an L-index has fewer than n bits,
        # a U-index exactly n and is not g, the only power of 2 with n bits
        n = self.lvl.n
        if not (self.lo > 0 and self.lo.bit_length() < n):
            raise ValueError(f"L-index must lie in 1..2^{n - 1} - 1: {self.lo}")
        if not (self.hi > 0 and self.hi.bit_length() == n and self.hi & (self.hi - 1)):
            raise ValueError(f"U-index must lie in 2^{n - 1} + 1..2^{n} - 1: {self.hi}")

    @property
    def strut_constant(self) -> int:
        """Low index excluded from this plane's cluster: lo ^ hi ^ g."""
        return self.lo ^ self.hi ^ self.lvl.g

    @property
    def diagonals(self) -> tuple[Element, Element]:
        """(slash, backslash): the elements i_lo + i_hi and i_lo - i_hi."""
        pair = self._diagonals
        if pair is None:
            pair = (Element({self.lo: 1, self.hi: 1}), Element({self.lo: 1, self.hi: -1}))
            object.__setattr__(self, "_diagonals", pair)
        return pair

    def element(self, slope: int) -> Element:
        return self.diagonals[0 if slope > 0 else 1]

    def __repr__(self) -> str:
        return f"Assessor({self.lo}, {self.hi})"


@dataclass(frozen=True, slots=True)
class Diagonal:
    """One zero-divisor line of an assessor: i_lo + i_hi or i_lo - i_hi.

    Real scalings stay on the same line and never change annihilation
    behavior, so the slope symbol identifies the line fully.
    """

    assessor: Assessor
    slope: int

    def __post_init__(self) -> None:
        if self.slope not in (SLASH, BACKSLASH):
            raise ValueError(f"slope must be +1 (slash) or -1 (backslash): {self.slope}")

    def element(self) -> Element:
        return self.assessor.element(self.slope)

    def __repr__(self) -> str:
        return f"Diagonal({self.assessor.lo}, {self.assessor.hi}, {_SLOPE_CHAR[self.slope]!r})"


@dataclass(frozen=True, slots=True)
class DmzPattern:
    """Which slope pairing annihilates for a DMZ assessor pair."""

    same_slope_zero: bool

    @property
    def word(self) -> str:
        return "same" if self.same_slope_zero else "opposite"


def _require_same_level(l1: Level, l2: Level) -> Level:
    if l1 != l2:
        raise ValueError(f"operands live at different levels: {l1} vs {l2}")
    return l1


def diagonal_product(d1: Diagonal, d2: Diagonal) -> Element:
    """Exact four-term product of two diagonals."""
    lvl = _require_same_level(d1.assessor.lvl, d2.assessor.lvl)
    return mul_element(d1.element(), d2.element(), lvl)


#: the only two results dmz_pattern returns for a pair that makes zero
_SAME_SLOPE_ZERO = DmzPattern(same_slope_zero=True)
_OPPOSITE_SLOPE_ZERO = DmzPattern(same_slope_zero=False)


def dmz_pattern(a1: Assessor, a2: Assessor) -> DmzPattern | None:
    """Annihilation pattern of an assessor pair, or None if nothing cancels.

    All four slope pairings, (/,/), (/,\\), (\\,/) and (\\,\\), are
    multiplied out exactly on every call; only the planes' diagonal
    elements are reused, each built once per plane.  When anything
    cancels, the two pairings of one slope class must vanish together
    while the other class stays nonzero; both facts are checked rather
    than assumed.

    Planes of one cluster share one Level object, so the level check
    compares identity first and falls back to equality only for distinct
    objects; with the levels equal, a plane is paired with itself exactly
    when (lo, hi) agree.  A zero returns one of two shared module
    constants, never a new pattern.
    """
    lvl = a1.lvl
    if a2.lvl is not lvl:
        lvl = _require_same_level(lvl, a2.lvl)
    if a1.lo == a2.lo and a1.hi == a2.hi:
        raise ValueError("an assessor cannot be paired with itself")
    slash1, back1 = a1.diagonals
    slash2, back2 = a2.diagonals
    same = mul_element(slash1, slash2, lvl).is_zero()
    opposite = mul_element(slash1, back2, lvl).is_zero()
    opposite_too = mul_element(back1, slash2, lvl).is_zero()
    same_too = mul_element(back1, back2, lvl).is_zero()
    if same_too != same or opposite_too != opposite:
        raise InvariantError(f"{a1} x {a2}: a slope class vanishes only in part")
    if same and opposite:
        raise InvariantError(f"{a1} x {a2}: both slope classes vanish")
    if not (same or opposite):
        return None
    return _SAME_SLOPE_ZERO if same else _OPPOSITE_SLOPE_ZERO


class Relation(NamedTuple):
    """The zero relation of one cluster, as bitmasks over L-indices.

    Bit b of ``zero[a]`` is set when the planes of L-indices a and b make
    zero; ``same[a]`` keeps those of them whose same-slope class vanishes,
    the others vanishing in the opposite-slope class.  Both tuples have
    one entry per L-index 0..g-1, so the entries at 0 and s are empty.
    """

    zero: tuple[int, ...]
    same: tuple[int, ...]

    def pattern(self, a: int, b: int) -> DmzPattern | None:
        """dmz_pattern's answer for the planes of L-indices a and b."""
        if not self.zero[a] >> b & 1:
            return None
        return _SAME_SLOPE_ZERO if self.same[a] >> b & 1 else _OPPOSITE_SLOPE_ZERO


def relation(lvl: Level, s: int) -> Relation:
    """The zero relation of cluster(lvl, s), four sign reads a pair, no product.

    Proof.  Take planes (a, A) and (b, B) of the cluster, a != b, with
    A = a ^ x, B = b ^ x and x = g + s, and let t(p, q) be the sign of
    i_p i_q.  Then A ^ B = a ^ b and a ^ B = A ^ b, so for slopes
    sa, sb = +-1 the four terms of (i_a + sa i_A)(i_b + sb i_B) collect
    on two indices:

        (t(a,b) + sa sb t(A,B)) i_(a^b)  +  (sb t(a,B) + sa t(A,b)) i_(a^B)

    and a ^ b != a ^ B because b != B.  The product is zero iff both
    coefficients are: t(a,b) = -sa sb t(A,B) and t(a,B) = -sa sb t(A,b).
    The slopes enter only through sa sb, so a class vanishes as a whole:
    the same-slope class (sa sb = 1) iff t(a,b) = -t(A,B) and
    t(a,B) = -t(A,b), the opposite-slope class iff both are equalities.
    Signs are +-1, so the two classes never vanish together.  In the
    order (b, a) each of the four reads is negated, since distinct
    imaginary units anticommute, and the conditions are unchanged: the
    relation is symmetric and so is its class.

    t is the exact table that cdp._double builds (mul_basis above
    MEMO_MAX_N), so no sign pattern is assumed; tests/test_zd.py holds
    the kernel to dmz_pattern's exact products.
    """
    check_strut(lvl, s)
    g = lvl.g
    x = g | s
    lows = [k for k in range(1, g) if k != s]
    if lvl.n <= MEMO_MAX_N:
        row = sign_table(lvl.n).__getitem__
    else:  # above the kept tables: only the two rows the current a reads, cell by cell

        def row(r: int) -> list[int]:
            return [mul_basis(r, c, lvl).sign for c in range(lvl.dim)]

    zero, same = [0] * g, [0] * g
    for i, a in enumerate(lows):
        ta, tA = row(a), row(a ^ x)
        for b in lows[i + 1 :]:
            B = b ^ x
            u = ta[b] * tA[B]  # -1 when the i_(a^b) coefficient cancels in the same-slope class
            if u == ta[B] * tA[b]:
                zero[a] |= 1 << b
                zero[b] |= 1 << a
                if u < 0:
                    same[a] |= 1 << b
                    same[b] |= 1 << a
    return Relation(tuple(zero), tuple(same))


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _dyads(indices) -> list[tuple[int, int, int]]:
    """All two-term dyads (a, b, s) over the index pool, both inner signs."""
    out = []
    for a, b in combinations(indices, 2):
        out.append((a, b, 1))
        out.append((a, b, -1))
    return out


def _dyad_element(d: tuple[int, int, int]) -> Element:
    a, b, s = d
    return Element({a: 1, b: s})


def _xor_buckets(dyads) -> dict[int, list[int]]:
    """Positions of the dyads (a, b, ...) in their pool, keyed by a ^ b.

    Lemma: with a != b and c != d, (i_a + sb i_b)(i_c + sd i_d) can be
    zero only if a ^ b == c ^ d.  Its four terms are signed units at
    a^c, a^d, b^c and b^d, and each must be cancelled by another term at
    the same index.  a^c differs from a^d (c != d) and from b^c (a != b),
    so it can only meet b^d, and a^c == b^d is a^b == c^d.  Hence a pair
    from two different buckets is never zero and need not be multiplied;
    a pair within one bucket still is, because whether its terms cancel
    is a matter of signs.  An assessor's diagonals are such dyads with
    lo ^ hi == g ^ s, so a bucket of diagonals is a cluster.

    Positions come in pool order, so a sweep that walks a bucket meets
    the zeros in the order a sweep over the whole pool would.
    """
    buckets: dict[int, list[int]] = {}
    for i, (a, b, *_) in enumerate(dyads):
        buckets.setdefault(a ^ b, []).append(i)
    return buckets


def theorem1_check(lvl: Level):
    """Scan for a forbidden zero product involving an all-low dyad.

    An all-low dyad must never annihilate a one-low-one-high (mixed)
    dyad: the all-low dyad's XOR lies below g and the mixed one's at or
    above it, so by the lemma at _xor_buckets that law holds by index
    arithmetic and no such product is multiplied.  Zeros among all-low
    pairs must be inherited, reproducing verbatim one level down;
    through 16 dimensions the low half is a division algebra and no such
    zero may exist at all.  (From 32 dimensions on, all-low zeros are the
    previous level's zero divisors riding along.)  Only all-low pairs
    within one XOR bucket are multiplied.

    All-high partners are outside the law and stay out of the sweep:
    already among the 32-dimensional numbers an all-low dyad can
    annihilate an all-high one, e.g. (i_1 + i_10)(i_20 - i_31) = 0.

    Returns None on a clean scan, else the first counterexample
    ((a, b, sb), (c, d, sd)) meaning (i_a + sb i_b)(i_c + sd i_d) = 0.
    """
    low = _dyads(range(1, lvl.g))
    elems = [_dyad_element(p) for p in low]
    buckets = _xor_buckets(low)
    below = Level(lvl.n - 1) if lvl.n > 4 else None
    for i, p in enumerate(low):
        for j in buckets[p[0] ^ p[1]]:
            if j < i:
                continue
            if mul_element(elems[i], elems[j], lvl).is_zero():
                if below is None or not mul_element(elems[i], elems[j], below).is_zero():
                    return p, low[j]
    return None


def theorem2_check(lvl: Level):
    """Scan for a zero product involving a dyad containing the generator unit.

    Each such dyad is multiplied against its own XOR bucket only (the
    lemma at _xor_buckets rules out every other partner).  Returns None
    on a clean scan, else the first counterexample in the same shape as
    theorem1_check.
    """
    g = lvl.g
    pool = _dyads(range(1, lvl.dim))
    elems = [_dyad_element(q) for q in pool]
    buckets = _xor_buckets(pool)
    for i, p in enumerate(pool):
        if g not in p[:2]:
            continue
        for j in buckets[p[0] ^ p[1]]:
            if mul_element(elems[i], elems[j], lvl).is_zero():
                return p, pool[j]
    return None


def theorem3_check(lvl: Level) -> tuple[int, int]:
    """Slope-class dichotomy over every candidate assessor pair.

    Every annihilating pair must kill exactly one slope class, both of
    its members together.  Within a cluster that is what ``relation``
    proves of each pair it reads: a class vanishes under one pair of
    sign conditions for both its members, and the two classes under
    contrary ones (tests/test_zd.py holds the relation to dmz_pattern,
    which checks both facts on exact products).  So the check counts
    the level's relations, one per strut constant.  Pairs across
    clusters are proven silent by the lemma at _xor_buckets, so they
    hold the dichotomy trivially and are counted without a product.
    Returns (candidate_pairs, pairs_annihilating).
    """
    rels = (relation(lvl, s) for s in range(1, lvl.g))
    hits = sum(m.bit_count() for rel in rels for m in rel.zero) // 2
    return comb(len(enumerate_assessors(lvl)), 2), hits


def theorem4_check(a: Assessor) -> bool:
    """The two diagonals of one plane never make zero with each other.

    Either cross product collapses to twice the signed unit on the
    plane's own trip index, which is visibly nonzero.
    """
    k = a.lo ^ a.hi
    for s1, s2 in ((SLASH, BACKSLASH), (BACKSLASH, SLASH)):
        prod = mul_element(a.element(s1), a.element(s2), a.lvl)
        if prod.is_zero() or prod.indices() != (k,) or abs(prod.coeff(k)) != 2:
            return False
    return True


def emanate(a1: Assessor, a2: Assessor) -> Assessor:
    """Third assessor produced by a DMZ pair.

    Its L-index is the XOR of the inputs' L-indices, its U-index the XOR
    of either L-index with the other's U-index; a DMZ pair always agrees
    on the two cross readings.  Raises NotDmzError when the inputs make
    no zero.
    """
    lvl = _require_same_level(a1.lvl, a2.lvl)
    if dmz_pattern(a1, a2) is None:
        raise NotDmzError(f"{a1} and {a2} make no zero; nothing to emanate")
    lo = a1.lo ^ a2.lo
    hi = a1.lo ^ a2.hi
    if hi != a1.hi ^ a2.lo:
        raise InvariantError(f"{a1} and {a2} disagree on the emanated U-index")
    return Assessor(lo, hi, lvl)


@dataclass(frozen=True, slots=True)
class TwistResult:
    pair: tuple[Diagonal, Diagonal]
    valid: bool


def twist(d1: Diagonal, d2: Diagonal) -> TwistResult:
    """Twist product of a DMZ diagonal pair: swap the planes' U-partners.

    The twisted pair lands in the cluster whose strut constant is the
    XOR of both L-indices into the original one.  It comes back with a
    validity flag instead of a guarantee: from 32 dimensions up, twists
    of genuine DMZs can fail to make zero, and those failures are data,
    not errors.
    """
    lvl = _require_same_level(d1.assessor.lvl, d2.assessor.lvl)
    if not diagonal_product(d1, d2).is_zero():
        raise NotDmzError("twist needs a pair of diagonals that make zero")
    a1, a2 = d1.assessor, d2.assessor
    t1 = Diagonal(Assessor(a2.lo, a1.hi, lvl), d2.slope)
    t2 = Diagonal(Assessor(a1.lo, a2.hi, lvl), -d1.slope)
    return TwistResult((t1, t2), diagonal_product(t1, t2).is_zero())


def check_strut(lvl: Level, s: int) -> None:
    """Refuse a level without zero divisors or a strut constant outside 1..g-1."""
    if lvl.n < 4:
        raise ValueError("no zero divisors below 16 dimensions")
    if not 1 <= s < lvl.g:
        raise ValueError(f"strut constant must lie in 1..{lvl.g - 1}: {s}")


def check_span(lvl: Level, s_from: int, s_to: int) -> None:
    """Refuse a strut-constant range s_from..s_to with a bad end or running backwards."""
    check_strut(lvl, s_from)
    check_strut(lvl, s_to)
    if s_from > s_to:
        raise ValueError(f"range runs backwards: {s_from}..{s_to}")


def cluster(lvl: Level, s: int) -> tuple[Assessor, ...]:
    """The candidate planes of strut constant s, in L-index order.

    Every low index k other than s spans the plane (k, k ^ (g + s)); this
    is the one place that rule is written, and every per-s view (DMZ
    scan, emanation table, box-kite survey) reads its planes from here.
    """
    check_strut(lvl, s)
    return tuple(Assessor(k, k ^ (lvl.g | s), lvl) for k in range(1, lvl.g) if k != s)


def cluster_assessors(lvl: Level) -> dict[int, list[Assessor]]:
    """Candidate planes grouped by strut constant (the excluded low index)."""
    if lvl.n < 4:
        return {}
    return {s: list(cluster(lvl, s)) for s in range(1, lvl.g)}


def enumerate_assessors(lvl: Level) -> list[Assessor]:
    """All candidate planes, sorted by (lo, hi): the clusters joined.

    Each low index meets each high index except the partner that would
    put the pair in a generator triple.  Below 16 dimensions there are
    no zero divisors and the list is empty.  Every primitive zero
    divisor lies in one of these planes; at 32 dimensions and beyond
    some candidates turn out barren, which only the exact product scans
    can decide.
    """
    planes = [a for group in cluster_assessors(lvl).values() for a in group]
    return sorted(planes, key=lambda a: (a.lo, a.hi))


def dmz_scan(lvl: Level, s: int | None = None) -> list[tuple[Assessor, Assessor, DmzPattern]]:
    """All annihilating candidate pairs, optionally within one cluster.

    Each cluster's pairs are read off its relation, with dmz_pattern's two
    shared patterns; two planes of different clusters have diagonals in
    different XOR buckets, so by the lemma at _xor_buckets they never
    make zero.  Pairs come back sorted by (a1.lo, a1.hi, a2.lo, a2.hi),
    with a1 before a2.
    """
    groups = cluster_assessors(lvl) if s is None else {s: cluster(lvl, s)}
    out = []
    for t, planes in groups.items():
        rel = relation(lvl, t)
        plane = {a.lo: a for a in planes}
        for lo, a1 in plane.items():
            for b in _bits(rel.zero[lo] >> lo + 1 << lo + 1):
                out.append((a1, plane[b], rel.pattern(lo, b)))
    out.sort(key=lambda hit: (hit[0].lo, hit[0].hi, hit[1].lo, hit[1].hi))
    return out


def dmz_report_lines(lvl: Level, s: int | None = None) -> list[str]:
    """Text export: one "lo1 hi1 lo2 hi2 same|opposite" line per DMZ pair."""
    return [f"{a1.lo} {a1.hi} {a2.lo} {a2.hi} {pat.word}" for a1, a2, pat in dmz_scan(lvl, s)]
