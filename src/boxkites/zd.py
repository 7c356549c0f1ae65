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
breakage is part of the subject matter.  Every sweep decides its zeros
with one kernel, ``_zero_test``: four reads of the exact sign table per
pair of two-term dyads, taken for a whole XOR bucket at once as XORs of
bit matrices, with the proof that those reads decide the product
written next to it.  A two-term product can only vanish when both
factors have the same XOR of their two indices (the lemma there), so a
sweep tests only within a bucket.  ``relation`` feeds it a cluster,
each plane against itself included, read by ``dmz_scan``,
``dmz_report``, ``etable.build_et`` and ``kites.survey``, and by the
suite's walk (``theorems.run_suite``): each survey hands its cluster's
relation on, Theorem 3 counts it and Theorems 5 and 7 check it, and it
is let go once turned into the XOR-diagonal rows that Theorems 4 and 6
read (Theorem 4 reads row 0, each plane against itself); Theorem 1
feeds it the all-low buckets, only through 16 dimensions (above, its
scan is clean by proof), and Theorem 2 the rows of the dyads holding the
generator unit.  ``dmz_pattern``, ``emanate``,
``twist`` and ``diagonal_product`` (and ``kites.build_boxkite`` and
``trace_lanyard`` through them) answer single queries by exact element
arithmetic and are the oracle the kernel is tested against; they build
a plane's diagonal elements for each product they take.

``Assessor``, ``Diagonal``, ``DmzPattern`` and ``TwistResult`` are named
tuples (see ``cdp``): a plane is also the tuple (lo, hi, lvl).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import cache
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


class Assessor(NamedTuple("Assessor", [("lo", int), ("hi", int), ("lvl", Level)])):
    """Plane spanned by i_lo (below the generator) and i_hi (above it).

    A named tuple of (lo, hi, lvl).  Its two diagonal elements are built
    on each read; only the exact-product oracle reads them.
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int, lvl: Level) -> Assessor:
        for k in (lo, hi):
            if isinstance(k, bool) or not isinstance(k, int):
                raise IndexRangeError(f"assessor index must be an int: {k!r}")
        # checked by bit length, never building 2^(n-1) or 2^n, so a level
        # of any size costs nothing here: an L-index has fewer than n bits,
        # a U-index exactly n and is not g, the only power of 2 with n bits
        n = lvl.n
        if not (lo > 0 and lo.bit_length() < n):
            raise ValueError(f"L-index must lie in 1..2^{n - 1} - 1: {lo}")
        if not (hi > 0 and hi.bit_length() == n and hi & (hi - 1)):
            raise ValueError(f"U-index must lie in 2^{n - 1} + 1..2^{n} - 1: {hi}")
        return tuple.__new__(cls, (lo, hi, lvl))

    @classmethod
    def _make(cls, fields) -> Assessor:
        """Build through __new__, so ``_replace`` refuses a bad field too."""
        return cls(*fields)

    @property
    def strut_constant(self) -> int:
        """Low index excluded from this plane's cluster: lo ^ hi ^ g."""
        return self.lo ^ self.hi ^ self.lvl.g

    @property
    def diagonals(self) -> tuple[Element, Element]:
        """(slash, backslash): the elements i_lo + i_hi and i_lo - i_hi."""
        lo, hi, _ = self
        return Element({lo: 1, hi: 1}), Element({lo: 1, hi: -1})

    def element(self, slope: int) -> Element:
        lo, hi, _ = self
        return Element({lo: 1, hi: 1 if slope > 0 else -1})

    def __repr__(self) -> str:
        return f"Assessor({self.lo}, {self.hi})"


class Diagonal(NamedTuple("Diagonal", [("assessor", Assessor), ("slope", int)])):
    """One zero-divisor line of an assessor: i_lo + i_hi or i_lo - i_hi.

    Real scalings stay on the same line and never change annihilation
    behavior, so the slope symbol identifies the line fully.
    """

    __slots__ = ()

    def __new__(cls, assessor: Assessor, slope: int) -> Diagonal:
        if slope not in (SLASH, BACKSLASH):
            raise ValueError(f"slope must be +1 (slash) or -1 (backslash): {slope}")
        return tuple.__new__(cls, (assessor, slope))

    @classmethod
    def _make(cls, fields) -> Diagonal:
        """Build through __new__, so ``_replace`` refuses a bad field too."""
        return cls(*fields)

    def element(self) -> Element:
        return self.assessor.element(self.slope)

    def __repr__(self) -> str:
        return f"Diagonal({self.assessor.lo}, {self.assessor.hi}, {_SLOPE_CHAR[self.slope]!r})"


class DmzPattern(NamedTuple):
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
    multiplied out exactly on every call, from the planes' diagonal
    elements built for the call.  When anything cancels, the two
    pairings of one slope class must vanish together while the other
    class stays nonzero; both facts are checked rather than assumed.

    Planes at different levels and a plane paired with itself are
    refused, whatever objects carry them.  A zero returns one of two
    shared module constants, never a new pattern.  The sweeps read
    ``relation`` instead; this is the exact oracle it is tested against.
    """
    lvl = _require_same_level(a1.lvl, a2.lvl)
    if a1 == a2:
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
    Bit a of ``zero[a]`` is the plane's two diagonals against each
    other: it is clear exactly when Theorem 4 holds of that plane, so on
    the exact sign table the diagonal is clear.
    """

    zero: tuple[int, ...]
    same: tuple[int, ...]

    def pattern(self, a: int, b: int) -> DmzPattern | None:
        """dmz_pattern's answer for the planes of L-indices a and b."""
        if not self.zero[a] >> b & 1:
            return None
        return _SAME_SLOPE_ZERO if self.same[a] >> b & 1 else _OPPOSITE_SLOPE_ZERO


def relation(lvl: Level, s: int) -> Relation:
    """The zero relation of cluster(lvl, s), read off the exact sign table.

    The planes (a, A) and (b, B) of the cluster, A = a ^ x and B = b ^ x
    with x = g + s, carry diagonals that are dyads of one XOR bucket, so
    _zero_test's proof decides each pair from four sign reads, slope
    class included.  In the order (b, a) each of the four reads is
    negated, since distinct imaginary units anticommute, and the
    conditions are unchanged: the relation is symmetric and so is its
    class.

    The diagonal.  Cell (a, a) is the plane (a, A) against itself, and
    the proof covers it (it never uses c != a).  Its reads t(a,a) and
    t(A,A) are both -1, as every imaginary unit squares to -1, so the
    same-slope class never vanishes, and the cell is zero, in the
    opposite-slope class, iff t(a,A) = t(A,a): exactly when the plane's
    two diagonals make zero and theorem4_check fails.  As distinct units
    anticommute (the proof at cdp._double), t(a,A) = -t(A,a) and the
    diagonal is clear; it is read, not masked, so Theorem 4
    (``theorems._t4``) reads the cell, as bit a of the cluster's
    XOR-diagonal row 0, and tests/test_zd.py holds it to theorem4_check
    on every plane at n = 4..8.

    Word form.  Split the table's negative signs into four g x g bit
    matrices, cell (r, c) at bit r*g + c, over r, c < g: LL(r, c) for
    t(r, c), LH for t(r, g+c), HL for t(g+r, c) and HH for t(g+r, g+c).
    As a, b < g and s < g, A = g + (a ^ s) and B = g + (b ^ s), so the
    four reads t(a,b), t(A,B), t(a,B) and t(A,b) are LL(a, b),
    HH(a^s, b^s), LH(a, b^s) and HL(a^s, b): _zero_test's four matrices,
    with row key s*g and column key s.  The cells kept are those whose
    row and column are L-indices of the cluster (neither 0 nor s).
    Every cell is a read of its own, so building the relation
    does not use its symmetry; Theorem 6 (``theorems._t6``) does: the
    twists of a pair (a, b) land on (b, a) of another cluster, which it
    reads at cell (a, b).  The suite checks the symmetry on every
    cluster it walks: Theorems 5 and 7 hold the joined zero and same rows
    equal to their transposes (``theorems._sail_laws`` and
    ``_strut_laws``).

    The quadrants are sliced from the level's corner of the one exact
    sign table (cdp.sign_table) once per level and kept, so no sign
    pattern is assumed; tests/test_zd.py holds the relation to
    dmz_pattern's exact products and to a pair-by-pair reading of the
    same four signs.
    """
    check_strut(lvl, s)
    n, g = lvl.n, lvl.g
    signs = _split_signs(n)
    rows = signs.rows & ~(1 << s * g)  # L-index rows: neither 0 nor s
    cols = (1 << g) - 2 & ~(1 << s)  # and L-index columns
    keep = rows * cols
    zero, same = _zero_test(signs.ll, signs.hh, signs.lh, signs.hl, s << n - 1, s, g * g, keep)
    return Relation(_rows(zero, g), _rows(same, g))


def _zero_test(
    m1: int, m2: int, m3: int, m4: int, row_key: int, col_key: int, cells: int, keep: int
) -> tuple[int, int]:
    """The zero test of two-term dyads, for every pair of one XOR bucket at once.

    Lemma.  With a != A and c != C, (i_a + sa i_A)(i_c + sc i_C) can be
    zero only if a ^ A == c ^ C.  Its four terms are signed units at a^c,
    a^C, A^c and A^C, and each must be cancelled by another term at the
    same index.  a^c differs from a^C (c != C) and from A^c (a != A), so
    it can only meet A^C, and a^c == A^C is a^A == c^C.  So a pair of
    dyads from two different XOR buckets is never zero and is never
    tested; a pair within one bucket may be, as a matter of signs.  An
    assessor's diagonals are such dyads with lo ^ hi == g ^ s, so a
    bucket of diagonals is a cluster, and planes of different clusters
    never make zero.

    Proof of the test.  Take the bucket x != 0, A = a ^ x and C = c ^ x,
    and let t(p, q) be the sign of i_p i_q.  Then A ^ C = a ^ c and
    a ^ C = A ^ c, so the four terms collect on two indices:

        (t(a,c) + sa sc t(A,C)) i_(a^c)  +  (sc t(a,C) + sa t(A,c)) i_(a^C)

    and a ^ c != a ^ C because c != C.  The product is zero iff both
    coefficients are: t(a,c) = -sa sc t(A,C) and t(a,C) = -sa sc t(A,c).
    The slopes enter only through sa sc, so a class vanishes as a whole:
    the same-slope class (sa sc = 1) iff t(a,c) = -t(A,C) and
    t(a,C) = -t(A,c), the opposite-slope class iff both are equalities.
    Signs are +-1, so the two classes never vanish together.  Nothing
    here depends on which signs the table holds, nor on c != a: with
    c = a, C = A the two indices are 0 and a ^ A, and the product is a
    plane's two diagonals against each other.

    Word form.  Signs multiply as their negative bits XOR, so
    t(a,c) t(A,C) = -1 iff U = 1 and t(a,C) t(A,c) = -1 iff V = 1, where
    U and V XOR the negative bits of those reads.  The pair makes zero
    iff the two products agree, U = V, and in the same-slope class iff
    both are -1, U = 1.  A bit matrix w wide (a power of 2) holds cell
    (r, c) at bit r*w + c, and as c < w, (r*w + c) ^ (i*w + j) =
    (r^i)*w + (c^j): reading every cell (r, c) from (r ^ i, c ^ j) is
    P(i*w + j), the permutation that moves the bit at position p to
    p ^ (i*w + j).  The caller lays the four reads out as matrices over
    the cells (a, c) it asks about, each read taken where its indices
    put it: t(a,c) in m1 at (a, c), t(A,C) in m2 at (a^i, c^j), t(a,C)
    in m3 at (a, c^j) and t(A,c) in m4 at (a^i, c), with row_key = i*w
    and col_key = j.  Then

        U = m1 xor P(row_key + col_key)(m2),
        V = P(col_key)(m3) xor P(row_key)(m4),

    and the result is (zero, same) = (not(U xor V) and keep, U and zero),
    where keep picks the cells asked about among the matrices' ``cells``
    bits.  relation feeds the sign table's four quadrants, theorem1_check
    its low quadrant four times, and theorem2_check two rows of the
    table, each a one-row matrix (so row_key = 0): m1 = m3 the row of a,
    m2 = m4 the row of A.
    """
    u = m1 ^ _xor_permute(m2, row_key | col_key, cells)
    v = _xor_permute(m3, col_key, cells) ^ _xor_permute(m4, row_key, cells)
    zero = ~(u ^ v) & keep
    return zero, u & zero


class _Signs(NamedTuple):
    """One level's negative-sign rows as four quadrant bit matrices.

    Each matrix is g x g with cell (r, c) at bit r*g + c (``relation``
    has the layout), so its row r is the g bits of one table row's half.
    ``rows`` has bit r*g for every row r but 0.
    """

    ll: int
    lh: int
    hl: int
    hh: int
    rows: int


def _join(rows, w: int) -> int:
    """Rows w bits wide as one bit matrix: row r at bits r*w .. r*w + w - 1."""
    m = 0
    for r in reversed(rows):
        m = m << w | r
    return m


@cache
def _split_signs(n: int) -> _Signs:
    """Level n's sign rows split into quadrants, built by the first call and kept.

    Quadrant LL is the low halves of rows 0..g-1, LH their high halves,
    HL and HH the same of rows g..2g-1: each a slice of the rows, shifted
    and masked, joined at width g.  Any g works, down to n = 1.  The swap
    masks that _zero_test permutes them with stay in _swap_masks' cache,
    one tuple per width.
    """
    g = 1 << n - 1
    cells, low = g * g, (1 << g) - 1
    table = sign_table(n)
    halves = table[:g], table[g:]
    ll, lh, hl, hh = (_join([r >> i & low for r in half], g) for half in halves for i in (0, g))
    rows = ((1 << cells) - 1) // ((1 << g) - 1) ^ 1
    return _Signs(ll, lh, hl, hh, rows)


@cache
def _swap_masks(width: int) -> tuple[int, ...]:
    """Entry k: the positions below width whose bit k is clear, for each
    2^k below width (a power of 2)."""
    masks, full = [], (1 << width) - 1
    for k in range(width.bit_length() - 1):
        d = 1 << k
        masks.append(full // ((1 << 2 * d) - 1) * ((1 << d) - 1))
    return tuple(masks)


def _xor_permute(m: int, key: int, width: int) -> int:
    """m with the bit at each position p below width moved to p ^ key.

    The XOR by each set bit d = 2^k of the key swaps the positions whose
    bit k is clear, entry k of _swap_masks(width), with the ones d above;
    width is a multiple of 2d for each of them.  The bits are taken
    lowest first, each peeled off the key as key & -key (the swaps
    commute, so any order gives the same word), and the masks are read
    from the width's one cached tuple.  tests/test_zd.py holds it to a
    bit-by-bit move at every width the sweeps use.
    """
    masks = _swap_masks(width)
    while key:
        d = key & -key
        keep = masks[d.bit_length() - 1]
        m = m >> d & keep | (m & keep) << d
        key ^= d
    return m


def _transpose(m: int, g: int) -> int:
    """The g x g bit matrix m transposed: cell (r, c) moved to (c, r).

    Cell (r, c) sits at position r*g + c, so bit j of its column is bit j
    of the position and bit j of its row is bit h + j, with g = 2^h.  For
    each j, a delta swap exchanges those two bits: the cells with column
    bit j set and row bit j clear (entry h + j of _swap_masks(g*g) less
    entry j) trade places with the cells (g - 1) * 2^j above them, which
    have them the other way round.  After every j each row bit has traded
    places with its column bit.  tests/test_zd.py holds it to a
    cell-by-cell move at every g through 128.
    """
    masks, h = _swap_masks(g * g), g.bit_length() - 1
    for j in range(h):
        d = (g - 1) << j
        t = (m ^ m >> d) & masks[h + j] & ~masks[j]
        m ^= t | t << d
    return m


def _row_xor_permute(m: int, g: int) -> int:
    """The g x g bit matrix m with each row r's columns XOR-permuted by r:
    cell (r, c) read from (r, r ^ c).

    For each j, the rows with bit j set (the complement of entry h + j of
    _swap_masks(g*g), g = 2^h) get their columns XOR-permuted by 2^j, a
    delta swap of the cells with column bit j clear (entry j) with the
    cells 2^j above them, in the same row.  Row r's columns are then
    permuted by the XOR of its set bits, r; the permutation is its own
    inverse, so moving (r, c) to (r, r ^ c) reads (r, c) from there.
    tests/test_zd.py holds it to a cell-by-cell read at every g through 128.
    """
    masks, h = _swap_masks(g * g), g.bit_length() - 1
    for j in range(h):
        d = 1 << j
        t = (m ^ m >> d) & masks[j] & ~masks[h + j]
        m ^= t | t << d
    return m


def _rows(m: int, g: int) -> tuple[int, ...]:
    """The g rows of a g x g bit matrix, as g-bit ints (g a multiple of 8)."""
    width = g // 8
    data = m.to_bytes(g * width, "little")
    return tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))


def _bits(mask: int):
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def theorem1_check(lvl: Level):
    """Scan for a forbidden zero product involving an all-low dyad.

    An all-low dyad must never annihilate a one-low-one-high (mixed)
    dyad: the all-low dyad's XOR lies below g and the mixed one's at or
    above it, so by the lemma at _zero_test that law holds by index
    arithmetic and no such pair is tested.  Zeros among all-low pairs
    must be inherited, reproducing verbatim one level down; through 16
    dimensions the low half is a division algebra and no such zero may
    exist at all.  (From 32 dimensions on, all-low zeros are the
    previous level's zero divisors riding along.)

    All-high partners are outside the law and stay out of the scan:
    already among the 32-dimensional numbers an all-low dyad can
    annihilate an all-high one, e.g. (i_1 + i_10)(i_20 - i_31) = 0.

    The inheritance holds by construction.  Level n - 1's table is the
    corner of level n's (one sign table, ``cdp.sign_table``), so an
    all-low pair's four reads are level n - 1's reads of the same pair,
    and each all-low zero is a zero one level down, in the same slope
    class.  So from 32 dimensions on the scan is clean by proof and runs
    no kernel; only through 16 dimensions, where the low half must make
    no zero at all, is it read.

    Through 16 dimensions each all-low bucket x < g is one _zero_test
    over the level's low quadrant: every read t(a,c), t(A,C), t(a,C),
    t(A,c) has both indices below g.  Its cells (a, c) run over each
    dyad's lower index, a < a ^ x (bit h of a clear, h the top bit of x),
    with 1 <= a <= c: each pair of dyads once, and each dyad with itself.
    Counterexamples are ordered as a sweep over the dyad pool meets them:
    dyads (a, b, sb), a < b, by (a, b), sb = 1 before -1, each against
    the dyads of its bucket from itself on.  A row's first zero is its
    lowest cell with sb = 1, so the first counterexample is the least of
    the buckets' lowest cells.  tests/test_zd.py holds this and
    theorem2_check to those exact Element sweeps.

    A level above cdp.MEMO_MAX_N is refused by its exponent, before any
    table is read; one below 16 dimensions is a clean scan.  Returns None
    on a clean scan, else the first counterexample ((a, b, sb), (c, d, sd))
    meaning (i_a + sb i_b)(i_c + sd i_d) = 0.
    """
    _check_ceiling(lvl)
    n, g = lvl.n, lvl.g
    if n > 4:
        return None
    cells = g * g
    low, masks = _split_signs(n).ll, _swap_masks(cells)
    upper = sum(((1 << g) - (1 << a)) << a * g for a in range(1, g))  # 1 <= a <= c
    first = None
    for x in range(1, g):
        h, key = x.bit_length() - 1, x << n - 1
        keep = upper & masks[n - 1 + h] & masks[h]
        zero, same = _zero_test(low, low, low, low, key, x, cells, keep)
        if zero:
            a, c = divmod((zero & -zero).bit_length() - 1, g)
            hit = (a, a ^ x, 1), (c, c ^ x, 1 if same >> a * g + c & 1 else -1)
            first = hit if first is None else min(first, hit)
    return first


def theorem2_check(lvl: Level):
    """Scan for a zero product involving a dyad containing the generator unit.

    Each such dyad (a, A), a < A, is tested against its own XOR bucket x
    only (the lemma at _zero_test rules out every other partner), by one
    _zero_test over the rows of a and A of the level's sign table, each
    read as it is, a one-row matrix: cell (0, c) stands for the partner
    (c, c ^ x), and the partners run over 1 <= c < c ^ x.  Dyads come in
    pool order, (a, g) for a < g and then (g, b), each dyad's first zero
    being its lowest cell with the sign +1 inside it.  A level above
    cdp.MEMO_MAX_N is refused as in theorem1_check.  Returns None on a
    clean scan, else the first counterexample in the same shape as
    theorem1_check.
    """
    _check_ceiling(lvl)
    g, dim = lvl.g, lvl.dim
    rows = sign_table(lvl.n)
    for a, b in [(a, g) for a in range(1, g)] + [(g, b) for b in range(g + 1, dim)]:
        x = a ^ b
        keep = _swap_masks(dim)[x.bit_length() - 1] & ~1  # 1 <= c < c ^ x
        zero, same = _zero_test(rows[a], rows[b], rows[a], rows[b], 0, x, dim, keep)
        if zero:
            c = (zero & -zero).bit_length() - 1
            return (a, b, 1), (c, c ^ x, 1 if same >> c & 1 else -1)
    return None


def theorem3_check(lvl: Level, relations: Iterable[Relation]) -> tuple[int, int]:
    """Slope-class dichotomy over every candidate assessor pair.

    Every annihilating pair must kill exactly one slope class, both of
    its members together.  Within a cluster that is what ``relation``
    proves of each pair it reads: a class vanishes under one pair of
    sign conditions for both its members, and the two classes under
    contrary ones (tests/test_zd.py holds the relation to dmz_pattern,
    which checks both facts on exact products).  So the check counts the
    zero pairs of the relations it is given, the level's, one per strut
    constant, and builds none of its own (``theorems.run_suite`` hands it
    each survey's relation alone, as its walk meets the cluster, and sums
    the counts): each zero pair is two bits, (a, b) and (b, a).  A bit on
    a relation's diagonal, a plane against itself, is set only where
    Theorem 4 fails (proof at ``relation``), and there it counts as half
    a pair, rounded down over the relations of one call.  Pairs across
    clusters are proven silent by the lemma at _zero_test, so they hold
    the dichotomy trivially and are counted without a test; the
    candidates are the g - 1 clusters' g - 2 planes each, as ``cluster``
    builds them.  Returns (candidate_pairs, pairs_annihilating).
    """
    check_strut(lvl, 1)  # refuses a level out of reach before g is built
    hits = sum(m.bit_count() for rel in relations for m in rel.zero) // 2
    return comb((lvl.g - 1) * (lvl.g - 2), 2), hits


def theorem4_check(a: Assessor) -> bool:
    """The two diagonals of one plane never make zero with each other.

    As each unit squares to -1, (i_lo + i_hi)(i_lo - i_hi) =
    (t(hi,lo) - t(lo,hi)) i_(lo^hi), with t(p, q) the sign of i_p i_q,
    and the other order is its negative.  Both are twice a signed unit,
    so nonzero, iff the plane's two cross signs are opposite: one read of
    each, at any level.  The suite reads the same cell off the plane's
    relation (its diagonal bit, proof at ``relation``); this per-plane
    read is the oracle that reading is tested against.
    """
    lo, hi, lvl = a
    return mul_basis(lo, hi, lvl).sign == -mul_basis(hi, lo, lvl).sign


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


class TwistResult(NamedTuple):
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
    """Refuse a level without zero divisors or above the sign tables, or a
    strut constant outside 1..g-1.

    Every sweep over a cluster or a level comes here first (Theorems 1
    and 2, clean scans below 16 dimensions, only to _check_ceiling), so
    MEMO_MAX_N is the highest level any of them reaches; the level is
    checked by its exponent, before g is built.
    """
    if lvl.n < 4:
        raise ValueError("no zero divisors below 16 dimensions")
    _check_ceiling(lvl)
    if not 1 <= s < lvl.g:
        raise ValueError(f"strut constant must lie in 1..{lvl.g - 1}: {s}")


def _check_ceiling(lvl: Level) -> None:
    """Refuse a level above the sign tables, by its exponent."""
    if lvl.n > MEMO_MAX_N:
        raise ValueError(f"sweeps need at most {2**MEMO_MAX_N} dimensions: n = {lvl.n}")


def check_span(lvl: Level, s_from: int, s_to: int) -> None:
    """Refuse a strut-constant range s_from..s_to with a bad end or running backwards."""
    check_strut(lvl, s_from)
    check_strut(lvl, s_to)
    if s_from > s_to:
        raise ValueError(f"range runs backwards: {s_from}..{s_to}")


def plane_indices(lvl: Level, s: int) -> list[tuple[int, int]]:
    """The (L-index, U-index) of each candidate plane of strut constant s,
    in L-index order.

    Every low index k other than s spans the plane (k, k ^ (g + s)).
    ``cluster`` makes its planes from these pairs, and the ``assessors``
    listing prints them with no plane object built.
    """
    check_strut(lvl, s)
    x = lvl.g | s
    return [(k, k ^ x) for k in range(1, lvl.g) if k != s]


def cluster(lvl: Level, s: int) -> tuple[Assessor, ...]:
    """The candidate planes of strut constant s, in L-index order, one
    Assessor per pair of ``plane_indices``; the DMZ scan and
    ``build_boxkite`` read their planes from here."""
    return tuple([Assessor(lo, hi, lvl) for lo, hi in plane_indices(lvl, s)])


def cluster_indices(lvl: Level) -> dict[int, list[tuple[int, int]]]:
    """Every candidate plane as (L-index, U-index), grouped by strut
    constant; empty below 16 dimensions."""
    if lvl.n < 4:
        return {}
    check_strut(lvl, 1)  # refuses a level out of reach before g is built
    return {s: plane_indices(lvl, s) for s in range(1, lvl.g)}


def cluster_assessors(lvl: Level) -> dict[int, list[Assessor]]:
    """Candidate planes grouped by strut constant (the excluded low index)."""
    return {
        s: [Assessor(lo, hi, lvl) for lo, hi in pairs]
        for s, pairs in cluster_indices(lvl).items()
    }


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


def _dmz_planes(lvl: Level, s: int | None = None):
    """Every plane with a zero partner above it, as (strut constant,
    L-index, mask of those partners, its ``same`` mask), in dmz_scan's
    order.

    The arguments are checked and the relations built on the call; the
    planes then come one at a time.  A plane (lo, hi) of cluster t has
    hi = g + (lo ^ t), so one L-index's planes run in hi order when the
    clusters run in order of lo ^ t; a plane's partners run by L-index,
    and each partner's U-index follows from it.
    """
    if s is not None:
        rels = {s: relation(lvl, s)}
    elif lvl.n < 4:
        rels = {}
    else:
        check_strut(lvl, 1)  # refuses a level out of reach before g is built
        rels = {t: relation(lvl, t) for t in range(1, lvl.g)}
    return _walk_planes(lvl, rels)


def _walk_planes(lvl: Level, rels: dict[int, Relation]):
    for lo in range(1, lvl.g):
        for t in sorted(rels, key=lo.__xor__):
            partners = rels[t].zero[lo] >> lo + 1 << lo + 1
            if partners:
                yield t, lo, partners, rels[t].same[lo]


def dmz_scan(lvl: Level, s: int | None = None) -> list[tuple[Assessor, Assessor, DmzPattern]]:
    """All annihilating candidate pairs, optionally within one cluster.

    Each cluster's pairs are read off its relation, with dmz_pattern's two
    shared patterns; two planes of different clusters have diagonals in
    different XOR buckets, so by the lemma at _zero_test they never
    make zero.  Pairs come back sorted by (a1.lo, a1.hi, a2.lo, a2.hi),
    with a1 before a2.
    """
    planes = _dmz_planes(lvl, s)
    planes_of: dict[int, dict[int, Assessor]] = {}  # each cluster's planes by L-index
    out = []
    for t, a, partners, same in planes:
        if t not in planes_of:
            planes_of[t] = {p.lo: p for p in cluster(lvl, t)}
        plane = planes_of[t]
        for b in _bits(partners):
            pat = _SAME_SLOPE_ZERO if same >> b & 1 else _OPPOSITE_SLOPE_ZERO
            out.append((plane[a], plane[b], pat))
    return out


def dmz_report(lvl: Level, s: int | None = None) -> Iterator[str]:
    """Text export: one "lo1 hi1 lo2 hi2 same|opposite" line per DMZ pair,
    in dmz_scan's order.

    Yields one string per plane that has a zero partner above it: that
    plane's lines, each ending in a newline, formatted when the string is
    asked for.  The arguments are checked and the relations built on the
    call, before the first string.
    """
    planes = _dmz_planes(lvl, s)  # checks the level before g is built
    return _report_blocks(lvl.g, planes)


def _report_blocks(g: int, planes) -> Iterator[str]:
    for t, a, partners, same in planes:
        x = g ^ t
        head = f"{a} {a ^ x} "
        yield "".join(
            [f"{head}{b} {b ^ x} {'same' if same >> b & 1 else 'opposite'}\n" for b in _bits(partners)]
        )
