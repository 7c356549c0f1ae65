"""Executable verification suites for the seven structural laws.

Each check covers every dyad, plane or kite its law speaks of at one
level from 16 to 256 dimensions, and reports a one-line detail.  Pairs
that index arithmetic proves nonzero (the XOR-bucket lemma at
``zd._zero_test``) are never tested, and every zero is a read of the
exact sign table through that one kernel: Theorem 1 per all-low XOR
bucket through 16 dimensions (above, its scan is clean by proof),
Theorem 2 per dyad holding the generator unit, and Theorems 3 to 7
through each cluster's relation (``zd.relation``).  A suite run walks
the clusters once, and each cluster's relation is built once, by its
survey.  Its two g x g words are its zero pairs and their slope class:
Theorem 3 popcounts the zero word, and Theorems 5 and 7 check word laws
on the two (symmetry, sail closure and the strut flips, with their
proofs at ``_sail_laws`` and ``_strut_laws``).  The two words are then
turned into XOR-diagonal rows, row k holding the cells (a, a ^ k), and
only those rows outlive the cluster: Theorem 4 reads row 0, each plane
against itself, and Theorem 6 reads row s ^ t of each pair of clusters
s and t.  No ``Element`` product is taken and ``cdp.mul_basis`` is
never read: a failure is worded from the indices that found it.

Of the kites the suite reads only their count: the laws' proofs say what
they give every kite record ``kites.survey`` returns, so no record is
read.  Violations come back as failed results carrying the
counterexample, so the caller can print PASS/FAIL lines without
re-deriving anything.
"""

from __future__ import annotations

from typing import NamedTuple

from .cdp import Level
from .kites import survey
from .zd import (
    Assessor,
    _bits,
    _row_xor_permute,
    _rows,
    _transpose,
    _xor_permute,
    check_strut,
    theorem1_check,
    theorem2_check,
    theorem3_check,
)


#: by strut constant, the XOR-diagonal rows of a cluster's zero pairs and
#: of their same-slope class (``_xor_rows``)
_XorRows = dict[int, tuple[tuple[int, ...], tuple[int, ...]]]


class TheoremResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _guard(name: str, fn) -> TheoremResult | None:
    try:
        return fn()
    except (RuntimeError, ValueError) as exc:
        return TheoremResult(name, False, f"check aborted: {exc}")


def run_suite(n: int) -> list[TheoremResult]:
    """Run all seven verifications at one level; needs 4 <= n <= cdp.MEMO_MAX_N.

    A level outside that range is refused, as every sweep refuses it
    (``zd.check_strut``), before any survey.  The suite walks the
    clusters once, s = 1..g-1.  Each survey builds its cluster's
    relation and its kites.  The kites are counted, the relation's zero
    pairs are counted for Theorem 3 (``zd.theorem3_check``), and its two
    g x g words, read as they are, carry the laws of Theorems 5 and 7,
    keeping their first failure.  The two words are then turned into the
    cluster's XOR-diagonal rows (``_xor_rows``), and those rows are all
    the walk keeps: the relation, its words and the kites are let go
    when the next survey returns, so no list of the level's kites or
    relations is made.  After the walk Theorems 4 and 6 read the rows;
    the PASS lines of Theorems 5 and 7 and Theorem 6's count check read
    only the kite count.

    At n = 8 a run takes 0.29 to 0.32 s in-process (CPython 3.11 on a
    2-core machine whose speed varies by half from run to run, 6 runs,
    ``BENCH_24.json``): within the walk the 127 surveys, relations
    included, 0.23 to 0.27 s, the row joins and the laws of Theorems 5
    and 7 0.03 s, and the XOR-diagonal rows 0.02 s; after it Theorem 6
    about 6 ms and Theorems 1 to 4 together about 1 ms.
    """
    lvl = Level(n)
    check_strut(lvl, 1)
    g = lvl.g
    xor_rows: _XorRows = {}
    kites = hits = 0
    t5 = t7 = None  # Theorems 5 and 7's first failures
    for s in range(1, g):
        found, _, _, rel = survey(lvl, s)
        kites += len(found)
        pairs, zeros = theorem3_check(lvl, (rel,))
        hits += zeros
        zero, same = rel.zero, rel.same
        zero_read = _row_xor_permute(zero, g)
        t5 = t5 or _sail_laws(lvl, s, zero, zero_read)
        t7 = t7 or _strut_laws(lvl, s, zero, same)
        xor_rows[s] = _xor_rows(zero_read, g), _xor_rows(_row_xor_permute(same, g), g)
    slopes = f"slope-class dichotomy held on all {pairs} candidate pairs ({hits} annihilating)"
    sails = f"every sail edge emanates its third vertex ({4 * kites} sails)"
    laws = f"U-index law and edge sign patterns hold on all {kites} kites"
    return [
        _guard("Theorem 1", lambda: _t1(lvl)),
        _guard("Theorem 2", lambda: _t2(lvl)),
        TheoremResult("Theorem 3", True, slopes),
        _t4(lvl, xor_rows),
        t5 or TheoremResult("Theorem 5", True, sails),
        _t6(lvl, xor_rows, kites),
        t7 or TheoremResult("Theorem 7", True, laws),
    ]


def _xor_rows(read: int, g: int) -> tuple[int, ...]:
    """The XOR-diagonal rows of a g x g word m, from read = zd._row_xor_permute(m, g):
    bit a of row k is cell (a, a ^ k) of m.

    Cell (a, k) of read is cell (a, a ^ k) of m, and the transpose moves
    it to (k, a), bit a of row k.
    """
    return _rows(_transpose(read, g), g)


def _t1(lvl: Level) -> TheoremResult:
    hit = theorem1_check(lvl)
    if hit is None:
        low = (lvl.g - 1) * (lvl.g - 2)  # dyads with both indices low, both signs
        return TheoremResult(
            "Theorem 1",
            True,
            f"all-low dyads ({low}) never annihilate a mixed dyad, and make no "
            "zeros of their own beyond those inherited from one level down",
        )
    return TheoremResult("Theorem 1", False, f"counterexample: {hit[0]} x {hit[1]} = 0")


def _t2(lvl: Level) -> TheoremResult:
    hit = theorem2_check(lvl)
    if hit is None:
        return TheoremResult(
            "Theorem 2",
            True,
            f"no dyad containing i_{lvl.g} annihilates anything",
        )
    return TheoremResult("Theorem 2", False, f"counterexample: {hit[0]} x {hit[1]} = 0")


def _t4(lvl: Level, xor_rows: _XorRows) -> TheoremResult:
    # zd.theorem4_check read off the XOR-diagonal rows: bit a of row 0 of
    # cluster s's zero pairs is cell (a, a), the plane (a, a ^ x), x = g + s,
    # against itself, set exactly when its two diagonals make zero (proof
    # at zd.relation).  Each cluster has g - 2 planes, one per L-index
    # other than 0 and s
    g = lvl.g
    bad = sorted((a, a ^ g ^ s) for s, (zero, _) in xor_rows.items() for a in _bits(zero[0]))
    if bad:
        first = [Assessor(lo, hi, lvl) for lo, hi in bad[:3]]
        return TheoremResult("Theorem 4", False, f"self-annihilating planes: {first}")
    planes = (g - 1) * (g - 2)
    return TheoremResult("Theorem 4", True, f"no plane's own diagonals make zero ({planes} planes)")


def _violation(name: str, lvl: Level, s: int, laws, same: int = 0) -> TheoremResult | None:
    """The first law of cluster s with a violating cell, worded; None if none has.

    Each law is (cells, wording): the g x g matrix of its violating cells
    and a template over the planes (lo, lo ^ x), x = g + s, of the lowest
    such cell (a, b): {a} and {b}, {c} of L-index a ^ b (the plane the pair
    emanates) and {o} of b ^ s (b's strut opposite), and {colour}, BLUE when
    the cell is set in ``same`` and RED when it is not.
    """
    g = lvl.g
    for cells, wording in laws:
        if cells:
            a, b = divmod((cells & -cells).bit_length() - 1, g)
            planes = {k: f"({v}, {v ^ g ^ s})" for k, v in zip("abco", (a, b, a ^ b, b ^ s))}
            colour = "BLUE" if same >> a * g + b & 1 else "RED"
            return TheoremResult(name, False, f"s={s}: " + wording.format(colour=colour, **planes))
    return None


def _sail_laws(lvl: Level, s: int, zero: int, zero_read: int) -> TheoremResult | None:
    # Theorem 5 as two laws on cluster s's zero pairs Z, its relation's
    # zero word (cell (a, b) set when the plane (a, a ^ x) times the
    # plane (b, b ^ x) makes zero, x = g + s), with R reading each cell
    # (a, b) from (a, a ^ b) (zd._row_xor_permute; zero_read is R(Z)):
    #   symmetry      Z & ~transpose(Z) == 0
    #   sail closure  Z & ~R(Z) == 0
    # A zero pair (a, b) emanates the plane (a ^ b, a ^ b ^ x), by
    # emanate's index rule; closure says that plane makes zero with
    # (a, a ^ x) too, and by symmetry with (b, b ^ x), so every zero pair
    # lies on a sail.
    #
    # What the laws give each kite record survey returns.  Survey reads
    # the twelve cross edges of a triangle of struts from the rows of both
    # ends of one strut per pair (row p of its compatibility word reads rows
    # p and p ^ s of Z), so with symmetry every edge makes zero read from
    # either end: cell (p, q) of Z is set for each sail edge (p, q), in
    # whichever order the sail takes its vertices.  Each sail is a trip
    # face, whose three L-indices XOR to 0 (survey's face proof), so its
    # third vertex is r = p ^ q, the plane the edge emanates.  That is all
    # the per-kite check (kept in tests/test_theorems.py as the oracle)
    # reads of each sail edge.
    g = lvl.g
    laws = (
        (zero & ~_transpose(zero, g), "{a} x {b} makes zero, {b} x {a} does not"),
        (zero & ~zero_read, "{a} x {b} emanates {c}, and {a} x {c} makes no zero"),
    )
    return _violation("Theorem 5", lvl, s, laws)


def _strut_laws(lvl: Level, s: int, zero: int, same: int) -> TheoremResult | None:
    # Theorem 7 as three laws on cluster s's zero pairs Z and their
    # same-slope class S, its relation's zero and same words (cell
    # (a, b) of S set when the pair vanishes in the same-slope class, a BLUE
    # edge; RED when it is a zero of the other class), with P_s =
    # zd._xor_permute(., s, g*g) moving each column c to c ^ s:
    #   symmetry               S & ~transpose(S) == 0
    #   strut flip of zeros    Z & ~P_s(Z) == 0
    #   strut flip of colours  ~(S ^ P_s(S)) & Z == 0
    # A plane makes zero with both ends of a strut or with neither, and
    # with the two in opposite colours; an edge has one colour from either
    # end.  (As transpose and P_s only move cells, A & ~B(A) == 0 is
    # A == B(A).)
    #
    # What the laws give each kite record survey returns.  Its L-indices
    # are ends of struts p < p ^ s in 1..g-1, so none is 0 or s and each
    # vertex (lo, lo ^ x), x = g + s, is a plane of the cluster: the
    # U-index law.  Each sail is a trip face, whose L-indices XOR to 0
    # (survey's face proof), and each of its U-trips swaps two members m
    # for m ^ x, which keeps the XOR 0: its four trips.  Its colour word
    # holds survey's reads of S, cell (u, v) for each edge (u, v) in label
    # order, but for the zigzag's three, left RED as its face flag read
    # them from one end: with S symmetric, that is cell (u, v) too.  Every
    # edge is a zero read from either end (with Theorem 5's symmetry;
    # proof at _sail_laws), so the colour flip holds at every edge: the
    # colour of u against v's strut opposite is flip(uv), the other
    # colour.  The zigzag A B C is all RED (survey picks the trip face
    # with no BLUE edge), and D, E, F = C^s, B^s, A^s, so with S symmetric
    #   AE = flip(AB), AD = flip(AC), BD = flip(BC), BF = flip(BA),
    #   CE = flip(CB), CF = flip(CA)                     are BLUE,
    #   DE = flip(DB), DF = flip(DA), EF = flip(EA)      are RED:
    # BLUE exactly on the six edges joining {A, B, C} to {D, E, F}, the one
    # colouring kites.classify_sails accepts (the zigzag all RED, each
    # trefoil ADE, FDB, FCE BLUE on the two edges at its zigzag vertex and
    # RED on the third).  That is all the per-kite check (kept in
    # tests/test_theorems.py as the oracle) reads of each record.
    g = lvl.g
    zero_flip, same_flip = (_xor_permute(m, s, g * g) for m in (zero, same))
    laws = (
        (same & ~_transpose(same, g), "edge {a}-{b} is BLUE read from {a}, not from {b}"),
        (zero & ~zero_flip, "{a} makes zero with {b} but not with its strut opposite {o}"),
        (~(same ^ same_flip) & zero, "edges {a}-{b} and {a}-{o} are both {colour}"),
    )
    return _violation("Theorem 7", lvl, s, laws, same)


def _t6(lvl: Level, xor_rows: _XorRows, kites: int) -> TheoremResult:
    # zd.twist read off the XOR-diagonal rows.  A zero pair of diagonals on
    # the planes (a, a ^ x) and (b, b ^ x) of cluster s, slopes sa and sb,
    # twists into (b, a ^ x) with slope sb and (a, b ^ x) with slope -sa:
    # planes of cluster t = a ^ b ^ s, in the other slope class (the slopes'
    # product changes sign).  So each zero pair's four twists, both slope
    # pairs of its class in both orders, are valid exactly when cluster t's
    # relation holds (b, a) in the other class.  The relation and its class
    # are symmetric (proof at zd.relation; Theorems 5 and 7 check it), so
    # that is cell (a, b) of Z_t & (S_s ^ S_t), with Z_s and S_s cluster s's
    # zero and same words, g x g matrices.  The cells (a, b) of
    # Z_s that twist into t are those with a ^ b = s ^ t = k, that is
    # b = a ^ k: bit a of row k of Z_s's XOR-diagonal rows (``xor_rows``,
    # built by run_suite's walk), and cell (a, a ^ k) of Z_t, S_s and S_t
    # is bit a of row k of theirs.  So row k of the four does the whole
    # pair of clusters, cell by cell.  Each zero pair is two cells, (a, b)
    # and (b, a), so each cell stands for two twists.  At k = 0, t = s,
    # row 0 holds only planes against themselves, set only where Theorem 4
    # fails; they are counted, so such a cell fails the count below.
    #
    # These are the kites' twists.  Each kite edge is a zero pair (survey
    # reads the cross edges of its struts as zeros), of two planes on
    # different struts, so a ^ b is neither 0 nor s and the pair lies on
    # some row k above; and no two kites share an edge, as two struts of a
    # triangle fix the third (kites.survey).  So the twists counted here,
    # four per zero pair off the struts, are at least 48 per kite, and they
    # are exactly the kites' when the two counts agree.
    total = valid = 0
    invalid_targets: set[int] = set()
    invalid_sources: set[int] = set()
    clusters = xor_rows.items()
    for s, (zero_s, same_s) in clusters:
        for t, (zero_t, same_t) in clusters:
            k = s ^ t
            twists = zero_s[k]
            kept = twists & zero_t[k] & (same_s[k] ^ same_t[k])
            total += twists.bit_count()
            valid += kept.bit_count()
            if kept != twists:
                invalid_sources.add(s)
                invalid_targets.add(t)
    total, valid = 2 * total, 2 * valid
    if total != 48 * kites:
        return TheoremResult(
            "Theorem 6", False, f"{total} twists against {kites} kites, not 48 per kite"
        )
    detail = f"{valid}/{total} twisted pairs still make zero"
    if lvl.n == 4:
        return TheoremResult("Theorem 6", valid == total, detail)
    # from 32 dimensions up twists fail, and their targets are exactly the
    # Sky strut constants: every S above 8 and below g that is not a power of 2
    sky = {s for s in range(9, lvl.g) if s & (s - 1)}
    ok = invalid_targets == sky
    detail += (
        f"; failing twists land at strut constants {sorted(invalid_targets)}"
        f" (sources {sorted(invalid_sources)})"
    )
    return TheoremResult("Theorem 6", ok, detail)
