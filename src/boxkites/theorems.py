"""Executable verification suites for the seven structural laws.

Each check covers every dyad, plane or kite its law speaks of at one
level from 16 to 256 dimensions, and reports a one-line detail.  Pairs
that index arithmetic proves nonzero (the XOR-bucket lemma at
``zd._zero_test``) are never tested, and every zero is a read of the
exact sign table through that one kernel: Theorem 1 per all-low XOR
bucket through 16 dimensions (above, its scan is clean by proof),
Theorem 2 per dyad holding the generator unit, and Theorems 3 to 6
through each cluster's relation (``zd.relation``).  A suite run walks
the clusters once: each cluster's relation is built once, by its
survey, and held until the run returns.  Theorem 4 reads the relations'
diagonals, each plane against itself.  No ``Element`` product is taken
and ``cdp.mul_basis`` is never read: a failure is worded from the
indices that found it.

Theorem 6 reads the relations as whole words, one g x g bit matrix per
cluster, and of the kites only their count.  Only Theorems 5 and 7 read
kites, one cluster's at a time as its survey makes them, each as the
index record it is, its six L-indices (``BoxKite.los``) and its 12-bit
colour word (``blue``), and build no ``Assessor`` and no ``Sail``:
Theorem 5 takes a sail's three L-indices by position, and Theorem 7
checks that every L-index names a plane of the kite's cluster, and the
one colouring and the trips that ``kites.classify_sails``, the oracle it
is tested against, would check.  Both return ``None`` on a cluster that
passes.  Violations come back as failed results carrying the
counterexample, so the caller can print PASS/FAIL lines without
re-deriving anything.
"""

from __future__ import annotations

from typing import NamedTuple

from .cdp import Level
from .kites import (
    _SAIL_BLUE,
    _SAIL_SLOTS,
    _VERTEX_AT,
    BLUE,
    EDGE_LABEL_PAIRS,
    LABELS,
    RED,
    BoxKite,
    survey,
)
from .zd import (
    Assessor,
    Relation,
    _join,
    _split_signs,
    _xor_permute,
    check_strut,
    theorem1_check,
    theorem2_check,
    theorem3_check,
)

#: each sail's three vertex positions in a kite, in kites._SAIL_SLOTS order
_SAIL_AT = tuple(tuple(_VERTEX_AT[label] for label in slot) for slot in _SAIL_SLOTS)


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
    (``zd.check_strut``), before any survey.  The suite
    walks the clusters once, s = 1..g-1.  Each survey builds its
    cluster's relation, which the suite keeps for Theorems 3, 4 and 6, and
    its kites, which Theorems 5 and 7 check at once and which are let go
    when the next survey returns, so at most two clusters' kites are ever
    held and no list of the level's kites is made.  Each of Theorems 5
    and 7 keeps its first failure; their PASS lines and Theorem 6 read
    only the running kite count.

    At n = 8 a run takes 0.48 to 0.59 s in-process (CPython 3.11 on a
    2-core machine whose speed varies by half from run to run, 5 runs):
    within the walk the 127 surveys, relations included, 0.24 to 0.33 s,
    Theorem 5 0.11 to 0.16 s and Theorem 7 0.06 to 0.09 s; after it
    Theorem 6 0.07 to 0.09 s, and Theorems 1 to 4 together about 3 ms
    (Theorem 4 about 1 ms).
    """
    lvl = Level(n)
    check_strut(lvl, 1)
    relations: dict[int, Relation] = {}
    kites, t5, t7 = 0, None, None  # the kite count, Theorems 5 and 7's first failures
    for s in range(1, lvl.g):
        found, _, _, relations[s] = survey(lvl, s)
        kites += len(found)
        t5 = t5 or _guard("Theorem 5", lambda: _t5(relations[s], found))
        t7 = t7 or _guard("Theorem 7", lambda: _t7(found))
    sails = f"every sail edge emanates its third vertex ({4 * kites} sails)"
    laws = f"U-index law and edge sign patterns hold on all {kites} kites"
    return [
        _guard("Theorem 1", lambda: _t1(lvl)),
        _guard("Theorem 2", lambda: _t2(lvl)),
        _guard("Theorem 3", lambda: _t3(lvl, relations)),
        _guard("Theorem 4", lambda: _t4(lvl, relations)),
        t5 or TheoremResult("Theorem 5", True, sails),
        _guard("Theorem 6", lambda: _t6(lvl, relations, kites)),
        t7 or TheoremResult("Theorem 7", True, laws),
    ]


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


def _t3(lvl: Level, relations: dict[int, Relation]) -> TheoremResult:
    pairs, hits = theorem3_check(lvl, relations.values())
    return TheoremResult(
        "Theorem 3",
        True,
        f"slope-class dichotomy held on all {pairs} candidate pairs ({hits} annihilating)",
    )


def _t4(lvl: Level, relations: dict[int, Relation]) -> TheoremResult:
    # zd.theorem4_check read off the relations: bit a of zero[a] in
    # cluster s is the plane (a, a ^ x), x = g + s, against itself, set
    # exactly when its two diagonals make zero (proof at zd.relation).
    # Each cluster has g - 2 planes, one per L-index other than 0 and s
    g = lvl.g
    bad = sorted(
        (a, a ^ g ^ s) for s, rel in relations.items() for a, m in enumerate(rel.zero) if m >> a & 1
    )
    if bad:
        first = [Assessor(lo, hi, lvl) for lo, hi in bad[:3]]
        return TheoremResult("Theorem 4", False, f"self-annihilating planes: {first}")
    planes = (g - 1) * (g - 2)
    return TheoremResult("Theorem 4", True, f"no plane's own diagonals make zero ({planes} planes)")


def _t5(rel: Relation, kites: tuple[BoxKite, ...]) -> TheoremResult | None:
    # emanate(p, q) read off the relation: a zero pair of cluster s emanates
    # the plane (p.lo ^ q.lo, p.lo ^ q.hi), which must be r.  Every vertex
    # of a kite record is (lo, lo ^ x), x = g + s, so p.lo ^ q.hi =
    # p.lo ^ q.lo ^ x and r.hi = r.lo ^ x: the second coordinates agree iff
    # the first do, and the check is r.lo == p.lo ^ q.lo.  A failure is
    # worded from the indices as emanate words it: an edge that makes no
    # zero, or the plane (p ^ q, p ^ q ^ x) the edge emanates.  The kites
    # are one cluster's, and rel is that cluster's relation
    zero = rel.zero
    for bk in kites:
        lvl, s, los, _ = bk
        for slot, (i, j, k) in zip(_SAIL_SLOTS, _SAIL_AT):
            for u, v, w in ((i, j, k), (j, k, i), (i, k, j)):
                p, q, r = los[u], los[v], los[w]
                if zero[p] >> q & 1 and r == p ^ q:
                    continue
                vertices = bk.vertices
                vp, vq, vr = vertices[u], vertices[v], vertices[w]
                if zero[p] >> q & 1:
                    why = f"{vp} x {vq} emanates {Assessor(p ^ q, p ^ vq.hi, lvl)}, not {vr}"
                else:
                    why = f"{vp} and {vq} make no zero"
                return TheoremResult("Theorem 5", False, f"s={s} sail {slot}: {why}")
    return None


def _t6(lvl: Level, relations: dict[int, Relation], kites: int) -> TheoremResult:
    # zd.twist read off the relations, as whole words.  A zero pair of
    # diagonals on the planes (a, a ^ x) and (b, b ^ x) of cluster s,
    # slopes sa and sb, twists into (b, a ^ x) with slope sb and (a, b ^ x)
    # with slope -sa: planes of cluster t = a ^ b ^ s, in the other slope
    # class (the slopes' product changes sign).  So each zero pair's four
    # twists, both slope pairs of its class in both orders, are valid
    # exactly when cluster t's relation holds (b, a) in the other class.
    # The relation and its class are symmetric (proof at zd.relation), so
    # that is cell (a, b) of Z_t & (S_s ^ S_t), with Z_s and S_s cluster
    # s's zero and same rows joined into g x g matrices.  The cells (a, b) of
    # Z_s that twist into t are those with a ^ b = s ^ t = k, the cells of
    # the XOR diagonal D_k; each zero pair is two cells, (a, b) and (b, a),
    # so each cell stands for two twists.
    #
    # These are the kites' twists.  Each kite edge is a zero pair (Theorem
    # 5 reads every sail edge, and the four sails' edges are the twelve),
    # of two planes on different struts, so a ^ b is neither 0 nor s and
    # the pair lies on some D_k above; and no two kites share an edge, as
    # two struts of a triangle fix the third (kites.survey).  So the twists
    # counted here, four per zero pair off the struts, are at least 48 per
    # kite, and they are exactly the kites' when the two counts agree.
    g = lvl.g
    diagonals = [_xor_permute(_split_signs(lvl.n).diagonal, k, g * g) for k in range(g)]
    words = {s: (_join(rel.zero, g), _join(rel.same, g)) for s, rel in relations.items()}
    total = valid = 0
    invalid_targets: set[int] = set()
    invalid_sources: set[int] = set()
    for s, (zero_s, same_s) in words.items():
        for t, (zero_t, same_t) in words.items():
            # at t = s, only a plane against itself, set only where Theorem 4 fails
            twists = zero_s & diagonals[s ^ t]
            kept = twists & zero_t & (same_s ^ same_t)
            total += 2 * twists.bit_count()
            valid += 2 * kept.bit_count()
            if kept != twists:
                invalid_sources.add(s)
                invalid_targets.add(t)
    if total != 48 * kites:
        return TheoremResult(
            "Theorem 6", False, f"{total // 4} zero pairs against {kites} kites, not 12 per kite"
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


def _t7(kites: tuple[BoxKite, ...]) -> TheoremResult | None:
    # What classify_sails checks, read off the record.  A kite's vertices
    # are (lo, lo ^ x), x = g + s, by construction, so the U-index law
    # holds of every record; what it stood for is that each vertex is a
    # plane of the cluster, which holds iff its L-index lies in 1..g-1 and
    # is not s (then lo ^ x lies in g+1..2g-1).  Its colour rules (the
    # zigzag ABC all RED; each trefoil ADE, FDB, FCE BLUE on the two edges
    # at its zigzag vertex and RED on the third) cover each of the twelve
    # edges once, as the four sails' edges are the twelve edges, so they
    # hold iff the blue word is the one pattern they imply, _SAIL_BLUE:
    # BLUE exactly on the edges joining {A, B, C} to {D, E, F}.  Its trips
    # hold by XOR alone.  A sail's L-trip (a, b, c) is a trip iff
    # a ^ b ^ c = 0, since three nonzero indices XORing to 0 are distinct.
    # Each U-trip swaps two members for b ^ x and c ^ x, which lie in
    # g+1..2g-1, and a ^ (b^x) ^ (c^x) = a ^ b ^ c, so it is a trip iff
    # the L-trip is.
    for lvl, s, los, blue in kites:
        g = lvl.g
        if min(los) < 1 or max(los) >= g or s in los:
            label, lo = next((lb, lo) for lb, lo in zip(LABELS, los) if not 0 < lo < g or lo == s)
            return TheoremResult(
                "Theorem 7",
                False,
                f"s={s}: vertex {label} has L-index {lo}, not in 1..{g - 1} without {s}",
            )
        for slot, (i, j, k) in zip(_SAIL_SLOTS, _SAIL_AT):
            if los[i] ^ los[j] ^ los[k]:
                trip = (los[i], los[j], los[k])
                return TheoremResult(
                    "Theorem 7", False, f"s={s}: sail {slot} carries a non-trip {trip}"
                )
        wrong = blue ^ _SAIL_BLUE
        if wrong:
            e = (wrong & -wrong).bit_length() - 1  # the first edge off the pattern
            l1, l2 = EDGE_LABEL_PAIRS[e]
            got, want = (BLUE, RED) if blue >> e & 1 else (RED, BLUE)
            return TheoremResult(
                "Theorem 7", False, f"s={s}: edge {l1}-{l2} is {got}, expected {want}"
            )
    return None
