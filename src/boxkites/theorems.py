"""Executable verification suites for the seven structural laws.

Each check covers every dyad, plane or kite its law speaks of at one
level from 16 to 256 dimensions, and reports a one-line detail.  Pairs
that index arithmetic proves nonzero (the XOR-bucket lemma at
``zd._zero_test``) are never tested, and every zero is a read of the
exact sign table through that one kernel: Theorem 1 per all-low XOR
bucket through 16 dimensions (above, its scan is clean by proof),
Theorem 2 per dyad holding the generator unit, and Theorems 3, 5 and 6
through each cluster's relation (``zd.relation``), which a suite run
builds per cluster and drops when it returns.  Theorem 4 reads a
plane's two cross signs.  No ``Element`` product is taken; ``emanate``
multiplies only to word a Theorem 5 failure.

Theorem 6 reads the relations as whole words, one g x g bit matrix per
cluster, and of the kites only their count.  Only Theorems 5 and 7 read
kites, each as the index record it is, its six L-indices
(``BoxKite.los``) and its 12-bit colour word (``blue``), and build no
``Assessor`` and no ``Sail``: Theorem 5 takes a sail's three L-indices
by position, and Theorem 7 checks that every L-index names a plane of
the kite's cluster, and the one colouring and the trips that
``kites.classify_sails``, the oracle it is tested against, would check.
Violations come back as failed results carrying the counterexample, so
the caller can print PASS/FAIL lines without re-deriving anything.
"""

from __future__ import annotations

from typing import NamedTuple

from .cdp import MEMO_MAX_N, Level
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
    Relation,
    _join,
    _split_signs,
    _xor_permute,
    emanate,
    enumerate_assessors,
    relation,
    theorem1_check,
    theorem2_check,
    theorem3_check,
    theorem4_check,
)

#: each sail's three vertex positions in a kite, in kites._SAIL_SLOTS order
_SAIL_AT = tuple(tuple(_VERTEX_AT[label] for label in slot) for slot in _SAIL_SLOTS)


class TheoremResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _guard(name: str, fn) -> TheoremResult:
    try:
        return fn()
    except (RuntimeError, ValueError) as exc:
        return TheoremResult(name, False, f"check aborted: {exc}")


def run_suite(n: int) -> list[TheoremResult]:
    """Run all seven verifications at one level; needs 4 <= n <= cdp.MEMO_MAX_N.

    A level outside that range is refused before any survey.  At n = 8
    a run takes 0.7 to 1.3 s in-process (CPython 3.11 on a 2-core machine
    whose speed varies by half from run to run): the 127 surveys 0.4 to
    0.65 s, Theorem 5 0.1 to 0.25 s, Theorems 6 and 7 0.06 to 0.13 s each
    and Theorems 1 to 4 together 0.07 to 0.15 s.
    """
    lvl = Level(n)
    if n < 4:
        raise ValueError("verification needs at least 16 dimensions")
    if n > MEMO_MAX_N:
        raise ValueError(f"verification needs at most {2**MEMO_MAX_N} dimensions")
    kites = [bk for s in range(1, lvl.g) for bk in survey(lvl, s).kites]
    relations = {s: relation(lvl, s) for s in range(1, lvl.g)}
    return [
        _guard("Theorem 1", lambda: _t1(lvl)),
        _guard("Theorem 2", lambda: _t2(lvl)),
        _guard("Theorem 3", lambda: _t3(lvl)),
        _guard("Theorem 4", lambda: _t4(lvl)),
        _guard("Theorem 5", lambda: _t5(relations, kites)),
        _guard("Theorem 6", lambda: _t6(lvl, relations, len(kites))),
        _guard("Theorem 7", lambda: _t7(kites)),
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


def _t3(lvl: Level) -> TheoremResult:
    pairs, hits = theorem3_check(lvl)
    return TheoremResult(
        "Theorem 3",
        True,
        f"slope-class dichotomy held on all {pairs} candidate pairs ({hits} annihilating)",
    )


def _t4(lvl: Level) -> TheoremResult:
    cands = enumerate_assessors(lvl)
    bad = [a for a in cands if not theorem4_check(a)]
    if not bad:
        return TheoremResult(
            "Theorem 4", True, f"no plane's own diagonals make zero ({len(cands)} planes)"
        )
    return TheoremResult("Theorem 4", False, f"self-annihilating planes: {bad[:3]}")


def _t5(relations: dict[int, Relation], kites: list[BoxKite]) -> TheoremResult:
    # emanate(p, q) read off the relation: a zero pair of cluster s emanates
    # the plane (p.lo ^ q.lo, p.lo ^ q.hi), which must be r.  Every vertex
    # of a kite record is (lo, lo ^ x), x = g + s, so p.lo ^ q.hi =
    # p.lo ^ q.lo ^ x and r.hi = r.lo ^ x: the second coordinates agree iff
    # the first do, and the check is r.lo == p.lo ^ q.lo.  emanate itself,
    # the exact oracle, is asked only to word a failure
    for bk in kites:
        _, s, los, _ = bk
        zero = relations[s].zero
        for slot, (i, j, k) in zip(_SAIL_SLOTS, _SAIL_AT):
            for u, v, w in ((i, j, k), (j, k, i), (i, k, j)):
                p, q, r = los[u], los[v], los[w]
                if not (zero[p] >> q & 1 and r == p ^ q):
                    vertices = bk.vertices
                    vp, vq, vr = vertices[u], vertices[v], vertices[w]
                    return TheoremResult(
                        "Theorem 5",
                        False,
                        f"s={s} sail {slot}: {vp} x {vq} emanates {emanate(vp, vq)}, not {vr}",
                    )
    return TheoremResult(
        "Theorem 5", True, f"every sail edge emanates its third vertex ({4 * len(kites)} sails)"
    )


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
            twists = zero_s & diagonals[s ^ t]  # none at t = s: no plane pairs with itself
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


def _t7(kites: list[BoxKite]) -> TheoremResult:
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
    return TheoremResult(
        "Theorem 7",
        True,
        f"U-index law and edge sign patterns hold on all {len(kites)} kites",
    )
