"""Zero-divisor machinery over assessor planes.

An assessor is the plane spanned by one unit indexed below the ambient
generator (its L-index) and one indexed above it (its U-index).  Its two
diagonals, the sum and the difference of those units, are the primitive
zero-divisor lines.  Two assessors whose suitably signed diagonals
multiply to exactly zero are "dyads making zero" (DMZs); every DMZ pair
annihilates in exactly one slope class, emanates a third assessor, and
twists into a partner pair with another strut constant.

Nothing here reasons from sign patterns: every zero is established by
exact element arithmetic, because above 16 dimensions the patterns that
hold there silently break (carrybit overflow), and the breakage is part
of the subject matter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .cdp import Element, InvariantError, Level, mul_element

SLASH = 1
BACKSLASH = -1

_SLOPE_CHAR = {SLASH: "/", BACKSLASH: "\\"}


class NotDmzError(ValueError):
    """Operands were expected to make zero and do not."""


@dataclass(frozen=True, slots=True)
class Assessor:
    """Plane spanned by i_lo (below the generator) and i_hi (above it)."""

    lo: int
    hi: int
    lvl: Level

    def __post_init__(self) -> None:
        g, d = self.lvl.g, self.lvl.dim
        if not 1 <= self.lo < g:
            raise ValueError(f"L-index must lie in 1..{g - 1}: {self.lo}")
        if not g < self.hi < d:
            raise ValueError(f"U-index must lie in {g + 1}..{d - 1}: {self.hi}")

    @property
    def strut_constant(self) -> int:
        """Low index excluded from this plane's cluster: lo ^ hi ^ g."""
        return self.lo ^ self.hi ^ self.lvl.g

    def element(self, slope: int) -> Element:
        return Element({self.lo: 1, self.hi: 1 if slope > 0 else -1})

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


def dmz_pattern(a1: Assessor, a2: Assessor) -> DmzPattern | None:
    """Annihilation pattern of an assessor pair, or None if nothing cancels.

    All four slope pairings are multiplied out exactly.  When anything
    cancels, the two pairings of one slope class must vanish together
    while the other class stays nonzero; both facts are checked rather
    than assumed.
    """
    lvl = _require_same_level(a1.lvl, a2.lvl)
    if a1 == a2:
        raise ValueError("an assessor cannot be paired with itself")
    d1 = {slope: a1.element(slope) for slope in (SLASH, BACKSLASH)}
    d2 = {slope: a2.element(slope) for slope in (SLASH, BACKSLASH)}
    zero = {(s1, s2): mul_element(d1[s1], d2[s2], lvl).is_zero() for s1 in d1 for s2 in d2}
    same = zero[(SLASH, SLASH)]
    opposite = zero[(SLASH, BACKSLASH)]
    if zero[(BACKSLASH, BACKSLASH)] != same or zero[(BACKSLASH, SLASH)] != opposite:
        raise InvariantError(f"{a1} x {a2}: a slope class vanishes only in part")
    if same and opposite:
        raise InvariantError(f"{a1} x {a2}: both slope classes vanish")
    if not (same or opposite):
        return None
    return DmzPattern(same_slope_zero=same)


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


def theorem1_check(lvl: Level):
    """Scan for a forbidden zero product involving an all-low dyad.

    Two sweeps.  First, an all-low dyad against any one-low-one-high
    dyad must never annihilate: the partner's two high-index product
    terms would have to cancel each other and they cannot.  Second,
    zeros among all-low pairs must be inherited, reproducing verbatim
    one level down; through 16 dimensions the low half is a division
    algebra and no such zero may exist at all.  (From 32 dimensions on,
    all-low zeros are the previous level's zero divisors riding along.)

    All-high partners are outside the law and stay out of the sweep:
    already among the 32-dimensional numbers an all-low dyad can
    annihilate an all-high one, e.g. (i_1 + i_10)(i_20 - i_31) = 0.

    Returns None on a clean scan, else the first counterexample
    ((a, b, sb), (c, d, sd)) meaning (i_a + sb i_b)(i_c + sd i_d) = 0.
    """
    g = lvl.g
    low = [(p, _dyad_element(p)) for p in _dyads(range(1, g))]
    mixed = [(q, _dyad_element(q)) for q in _dyads(range(1, lvl.dim)) if q[0] < g <= q[1]]
    for p, ep in low:
        for q, eq in mixed:
            if mul_element(ep, eq, lvl).is_zero():
                return p, q
    below = Level(lvl.n - 1) if lvl.n > 4 else None
    for i, (p, ep) in enumerate(low):
        for q, eq in low[i:]:
            if mul_element(ep, eq, lvl).is_zero():
                if below is None or not mul_element(ep, eq, below).is_zero():
                    return p, q
    return None


def theorem2_check(lvl: Level):
    """Scan for a zero product involving a dyad containing the generator unit.

    Returns None on a clean scan, else the first counterexample in the
    same shape as theorem1_check.
    """
    g = lvl.g
    pool = [(q, _dyad_element(q)) for q in _dyads(range(1, lvl.dim))]
    for p, ep in pool:
        if g not in p[:2]:
            continue
        for q, eq in pool:
            if mul_element(ep, eq, lvl).is_zero():
                return p, q
    return None


def theorem3_check(lvl: Level) -> tuple[int, int]:
    """Exhaustive slope-class dichotomy sweep over candidate assessor pairs.

    Every annihilating pair must kill exactly one slope class, both of
    its members together; dmz_pattern checks that on every call, and
    dmz_scan calls it on every candidate pair.
    Returns (pairs_scanned, pairs_annihilating).
    """
    return comb(len(enumerate_assessors(lvl)), 2), len(dmz_scan(lvl))


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


def enumerate_assessors(lvl: Level) -> list[Assessor]:
    """All candidate planes: each low index against each high index except
    the partner that would put the pair in a generator triple.

    Below 16 dimensions there are no zero divisors and the list is
    empty.  Every primitive zero divisor lies in one of these planes; at
    32 dimensions and beyond some candidates turn out barren, which only
    the exact product scans can decide.
    """
    if lvl.n < 4:
        return []
    g = lvl.g
    out = []
    for lo in range(1, g):
        for hi in range(g + 1, lvl.dim):
            if hi != lo ^ g:
                out.append(Assessor(lo, hi, lvl))
    return out


def check_strut(lvl: Level, s: int) -> None:
    """Refuse a level without zero divisors or a strut constant outside 1..g-1."""
    if lvl.n < 4:
        raise ValueError("no zero divisors below 16 dimensions")
    if not 1 <= s < lvl.g:
        raise ValueError(f"strut constant must lie in 1..{lvl.g - 1}: {s}")


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


def dmz_scan(lvl: Level, s: int | None = None) -> list[tuple[Assessor, Assessor, DmzPattern]]:
    """All annihilating candidate pairs, optionally within one cluster.

    Pairs come back sorted with a1 before a2 by (lo, hi).
    """
    cands = enumerate_assessors(lvl) if s is None else cluster(lvl, s)
    out = []
    for a1, a2 in combinations(cands, 2):
        pat = dmz_pattern(a1, a2)
        if pat is not None:
            out.append((a1, a2, pat))
    return out


def dmz_report_lines(lvl: Level, s: int | None = None) -> list[str]:
    """Text export: one "lo1 hi1 lo2 hi2 same|opposite" line per DMZ pair."""
    return [f"{a1.lo} {a1.hi} {a2.lo} {a2.hi} {pat.word}" for a1, a2, pat in dmz_scan(lvl, s)]
