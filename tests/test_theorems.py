"""Theorems 5, 6 and 7 read off the relations, held to the exact oracles:
the word laws of Theorems 5 and 7 fail wherever the per-kite checks they
replace (kept here as oracles, themselves held to emanate and
classify_sails) fail, and Theorem 6's reading of the XOR-diagonal rows
equals its reading of the joined words and of the kite edges; the suite
takes no Element product, builds each cluster's relation once and holds
no list of the level's kites and no relation past its cluster."""

import ast
import inspect
import random
import re
from collections import Counter

import pytest

import boxkites
from boxkites import cdp, etable, kites, theorems, trips, zd
from boxkites.cdp import Level
from boxkites.kites import (
    _EDGE_ROWS,
    _SAIL_SLOTS,
    _VERTEX_AT,
    BLUE,
    EDGE_LABEL_PAIRS,
    LABELS,
    RED,
    BoxKite,
    ClassificationError,
    classify_sails,
    survey,
)
from boxkites.theorems import TheoremResult
from boxkites.zd import (
    BACKSLASH,
    SLASH,
    Assessor,
    Diagonal,
    NotDmzError,
    Relation,
    _join,
    _row_xor_permute,
    _xor_permute,
    emanate,
    twist,
)

#: each sail's three vertex positions in a kite, in kites._SAIL_SLOTS order
_SAIL_AT = tuple(tuple(_VERTEX_AT[label] for label in slot) for slot in _SAIL_SLOTS)

#: the one colouring classify_sails accepts, as a blue word: BLUE exactly
#: on the six edges joining {A, B, C} to {D, E, F}
_SAIL_BLUE = sum(1 << e for e, (i, j, _) in enumerate(_EDGE_ROWS) if (i < 3) != (j < 3))


def _t5(rel: Relation, kites: tuple[BoxKite, ...]) -> TheoremResult | None:
    """Theorem 5 kite by kite: the oracle of theorems._sail_laws."""
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


def _t7(kites: tuple[BoxKite, ...]) -> TheoremResult | None:
    """Theorem 7 kite by kite: the oracle of theorems._strut_laws."""
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


def _level(n):
    lvl = Level(n)
    surveys = {s: survey(lvl, s) for s in range(1, lvl.g)}
    kites = [bk for sv in surveys.values() for bk in sv.kites]
    return lvl, {s: sv.relation for s, sv in surveys.items()}, kites


def _words(lvl, relations):
    """Each cluster's zero and same rows joined into g x g words, as run_suite joins them."""
    return {s: (_join(rel.zero, lvl.g), _join(rel.same, lvl.g)) for s, rel in relations.items()}


def _xor_rows(lvl, relations):
    """Each cluster's zero and same rows as XOR-diagonal rows, as run_suite's walk builds them."""
    g = lvl.g
    return {
        s: tuple(theorems._xor_rows(_row_xor_permute(_join(rows, g), g), g) for rows in rel)
        for s, rel in relations.items()
    }


def _t6_by_words(lvl, words, kites):
    """Theorem 6 read off the joined g x g words: the oracle of its XOR-diagonal reading."""
    # The twists of cluster s into t = s ^ k are the cells of Z_s on the
    # XOR diagonal D_k, the cells (a, a ^ k) (D_0 moved by k); kept are
    # those where Z_t & (S_s ^ S_t) is set (the proof is at theorems._t6)
    g = lvl.g
    diagonal = ((1 << g * g + g) - 1) // ((1 << g + 1) - 1)  # the cells (r, r)
    total = valid = 0
    invalid_targets: set[int] = set()
    invalid_sources: set[int] = set()
    for k in range(g):
        # at k = 0, t = s: only a plane against itself, set only where Theorem 4 fails
        diagonal_k = _xor_permute(diagonal, k, g * g)
        for s, (zero_s, same_s) in words.items():
            if s == k:
                continue  # t = 0 is no cluster
            t = s ^ k
            zero_t, same_t = words[t]
            twists = zero_s & diagonal_k
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


def _twist_oracle(kites):
    """Theorem 6's tallies from zd.twist: (valid, total, targets, sources)."""
    total = valid = 0
    targets, sources = set(), set()
    for bk in kites:
        for l1, l2, color in bk.edge_colors:
            a1, a2 = bk.assessor(l1), bk.assessor(l2)
            if color == BLUE:
                slope_pairs = ((SLASH, SLASH), (BACKSLASH, BACKSLASH))
            else:
                slope_pairs = ((SLASH, BACKSLASH), (BACKSLASH, SLASH))
            for s1, s2 in slope_pairs:
                u, v = Diagonal(a1, s1), Diagonal(a2, s2)
                for d1, d2 in ((u, v), (v, u)):
                    total += 1
                    res = twist(d1, d2)
                    if res.valid:
                        valid += 1
                    else:
                        sources.add(bk.s)
                        targets.add(res.pair[0].assessor.strut_constant)
    return valid, total, sorted(targets), sorted(sources)


def _t6_by_kite_edges(lvl, relations, kites):
    """Theorem 6 read edge by edge off the kite records: the oracle of its word reading.

    An edge's two L-indices are read from the kite's slots, its class (1
    for BLUE, same-slope) from its bit of the blue word, and its four
    twists are valid exactly when the target cluster's relation holds
    (b, a) in the other class (the proof is at theorems._t6).
    """
    total = valid = 0
    invalid_targets: set[int] = set()
    invalid_sources: set[int] = set()
    for bk in kites:
        s, los, blue = bk.s, bk.los, bk.blue
        zero, same = relations[s]
        for e, (i, j, _) in enumerate(_EDGE_ROWS):
            a, b = los[i], los[j]
            cls = blue >> e & 1
            if not zero[a] >> b & 1 or same[a] >> b & 1 != cls:
                raise NotDmzError("twist needs a pair of diagonals that make zero")
            target = a ^ b ^ s
            twisted_zero, twisted_same = relations[target]
            total += 4
            if twisted_zero[b] >> a & 1 and twisted_same[b] >> a & 1 != cls:
                valid += 4
            else:
                invalid_sources.add(s)
                invalid_targets.add(target)
    detail = f"{valid}/{total} twisted pairs still make zero"
    if lvl.n == 4:
        return theorems.TheoremResult("Theorem 6", valid == total, detail)
    sky = {s for s in range(9, lvl.g) if s & (s - 1)}
    ok = invalid_targets == sky
    detail += (
        f"; failing twists land at strut constants {sorted(invalid_targets)}"
        f" (sources {sorted(invalid_sources)})"
    )
    return theorems.TheoremResult("Theorem 6", ok, detail)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_theorem6_word_reading_matches_the_kite_edge_reading(n):
    lvl, relations, kites = _level(n)
    result = theorems._t6(lvl, _xor_rows(lvl, relations), len(kites))
    assert result == _t6_by_kite_edges(lvl, relations, kites)
    assert result.passed


@pytest.mark.parametrize("n", [5, 6])
def test_theorem6_relation_reading_matches_the_twist_oracle(n):
    lvl, relations, kites = _level(n)
    valid, total, targets, sources = _twist_oracle(kites)
    result = theorems._t6(lvl, _xor_rows(lvl, relations), len(kites))
    assert result.detail == (
        f"{valid}/{total} twisted pairs still make zero; failing twists land at strut "
        f"constants {targets} (sources {sources})"
    )
    assert result.passed
    assert (valid, total) == {5: (3024, 3696), 6: (21840, 31920)}[n]


def test_theorem6_at_n7_fails_its_twists_exactly_at_the_sky():
    lvl, relations, kites = _level(7)
    result = theorems._t6(lvl, _xor_rows(lvl, relations), len(kites))
    sky = [s for s in range(9, lvl.g) if s & (s - 1)]
    sources = [*range(1, 32), *range(41, 48), *range(49, 64)]
    assert result.passed
    assert result.detail == (
        f"156240/260400 twisted pairs still make zero; failing twists land at strut "
        f"constants {sky} (sources {sources})"
    )


def test_suite_at_n8_passes_with_its_counts():
    sky = [s for s in range(9, 128) if s & (s - 1)]
    sources = [*range(1, 64), *range(73, 80), *range(81, 96), *range(97, 128)]
    results = theorems.run_suite(8)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        (
            "Theorem 1",
            True,
            "all-low dyads (16002) never annihilate a mixed dyad, and make no "
            "zeros of their own beyond those inherited from one level down",
        ),
        ("Theorem 2", True, "no dyad containing i_128 annihilates anything"),
        (
            "Theorem 3",
            True,
            "slope-class dichotomy held on all 128024001 candidate pairs (523404 annihilating)",
        ),
        ("Theorem 4", True, "no plane's own diagonals make zero (16002 planes)"),
        ("Theorem 5", True, "every sail edge emanates its third vertex (174468 sails)"),
        (
            "Theorem 6",
            True,
            "1156176/2093616 twisted pairs still make zero; failing twists land at strut "
            f"constants {sky} (sources {sources})",
        ),
        ("Theorem 7", True, "U-index law and edge sign patterns hold on all 43617 kites"),
    ]


def test_suite_at_n7_passes_with_its_counts():
    sky = [s for s in range(9, 64) if s & (s - 1)]
    sources = [*range(1, 32), *range(41, 48), *range(49, 64)]
    results = theorems.run_suite(7)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        (
            "Theorem 1",
            True,
            "all-low dyads (3906) never annihilate a mixed dyad, and make no "
            "zeros of their own beyond those inherited from one level down",
        ),
        ("Theorem 2", True, "no dyad containing i_64 annihilates anything"),
        (
            "Theorem 3",
            True,
            "slope-class dichotomy held on all 7626465 candidate pairs (65100 annihilating)",
        ),
        ("Theorem 4", True, "no plane's own diagonals make zero (3906 planes)"),
        ("Theorem 5", True, "every sail edge emanates its third vertex (21700 sails)"),
        (
            "Theorem 6",
            True,
            "156240/260400 twisted pairs still make zero; failing twists land at strut "
            f"constants {sky} (sources {sources})",
        ),
        ("Theorem 7", True, "U-index law and edge sign patterns hold on all 5425 kites"),
    ]


def test_theorem6_refuses_an_edge_its_relation_does_not_hold():
    # one kite edge taken out of its relation leaves 923 zero pairs to twist,
    # one short of the 12 edges of each of the 77 kites
    lvl, relations, kites = _level(5)
    bk = kites[0]
    a, b = bk.los[:2]
    rel = relations[bk.s]
    zero = list(rel.zero)
    zero[a] &= ~(1 << b)
    zero[b] &= ~(1 << a)
    relations[bk.s] = rel._replace(zero=tuple(zero))
    assert theorems._t6(lvl, _xor_rows(lvl, relations), len(kites)) == theorems.TheoremResult(
        "Theorem 6", False, "3692 twists against 77 kites, not 48 per kite"
    )


def test_theorem6_refuses_zero_pairs_no_kite_holds():
    # a kite lost from the count leaves its 12 zero pairs' twists unaccounted
    lvl, relations, kites = _level(5)
    assert theorems._t6(lvl, _xor_rows(lvl, relations), len(kites) - 1) == theorems.TheoremResult(
        "Theorem 6", False, "3696 twists against 76 kites, not 48 per kite"
    )


def test_theorem6_counts_a_plane_against_itself():
    # a diagonal cell, the plane (2, 27) of s = 9 against itself, twists
    # into its own cluster (k = s ^ t = 0): two twists more than the kites'
    lvl, relations, kites = _level(5)
    rel = relations[9]
    zero = list(rel.zero)
    zero[2] |= 1 << 2
    relations[9] = rel._replace(zero=tuple(zero))
    assert theorems._t6(lvl, _xor_rows(lvl, relations), len(kites)) == theorems.TheoremResult(
        "Theorem 6", False, "3698 twists against 77 kites, not 48 per kite"
    )


def _same_verdict(new, oracle):
    """The XOR-diagonal reading's verdict equals the word reading's, the
    refusal of the count restated from the twist total (the oracle gives
    it as a quarter, rounded down)."""
    refusal = re.fullmatch(r"(\d+) zero pairs against (\d+) kites, not 12 per kite", oracle.detail)
    if refusal is None:
        return new == oracle
    twists = re.fullmatch(r"(\d+) twists against (\d+) kites, not 48 per kite", new.detail)
    return (
        not new.passed
        and twists is not None
        and int(twists[1]) // 4 == int(refusal[1])
        and twists[2] == refusal[2]
    )


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_theorem6_row_reading_matches_the_word_reading(n):
    lvl, relations, kites = _level(n)
    xor_rows, words = _xor_rows(lvl, relations), _words(lvl, relations)
    for count in (len(kites), len(kites) + 1):  # the tallies, and the refusal
        new = theorems._t6(lvl, xor_rows, count)
        assert _same_verdict(new, _t6_by_words(lvl, words, count))
    assert new.detail == f"{48 * len(kites)} twists against {count} kites, not 48 per kite"


def test_theorem6_row_reading_matches_the_word_reading_on_doctored_tables(doctored):
    # every single-cell doctored table at n = 4, and 64 seeded ones at n = 5,
    # read at the kite count of their surveys: the two readings agree on
    # every one, the count refused on some and the tallies read on the rest
    outcomes = Counter()
    tables = {
        4: [(r, c) for r in range(16) for c in range(16)],
        5: random.Random("t6-5").sample([(r, c) for r in range(32) for c in range(32)], 64),
    }
    for n, cells in tables.items():
        lvl = Level(n)
        for cell in cells:
            doctored(*cell)
            surveys = [survey(lvl, s) for s in range(1, lvl.g)]
            relations = {s: sv.relation for s, sv in enumerate(surveys, 1)}
            count = sum(len(sv.kites) for sv in surveys)
            new = theorems._t6(lvl, _xor_rows(lvl, relations), count)
            oracle = _t6_by_words(lvl, _words(lvl, relations), count)
            assert _same_verdict(new, oracle), (n, cell, new, oracle)
            outcomes[n, "twists against" in new.detail, new.passed] += 1
            doctored(*cell)  # flipped back
    assert outcomes == Counter(
        {(4, True, False): 182, (4, False, True): 74, (5, True, False): 49, (5, False, True): 15}
    )


def test_theorem5_relation_reading_matches_emanate_on_every_sail():
    lvl = Level(5)
    sails = 0
    for s in range(1, lvl.g):
        sv = survey(lvl, s)
        for bk in sv.kites:
            for sail in classify_sails(bk):
                va, vb, vc = (bk.assessor(lbl) for lbl in sail.labels)
                sails += 1
                for p, q, r in ((va, vb, vc), (vb, vc, va), (va, vc, vb)):
                    assert emanate(p, q) == r
                    assert sv.relation.pattern(p.lo, q.lo) is not None
        assert _t5(sv.relation, sv.kites) is None
    result = theorems.run_suite(5)[4]
    assert result == theorems.TheoremResult(
        "Theorem 5", True, f"every sail edge emanates its third vertex ({sails} sails)"
    )
    assert sails == 4 * 77 == 308


def test_theorem5_refuses_a_third_vertex_the_edge_does_not_emanate():
    # D and E swapped: every edge still makes zero, but the sail now at F, D, B
    # holds F, E, B, and F x E emanates the plane at C, not B
    lvl, relations, kites = _level(5)
    bk = kites[0]
    a, b, c, d, e, f = bk.los
    doctored = bk._replace(los=(a, b, c, e, d, f))
    vf, ve, vb = doctored.assessor("F"), doctored.assessor("D"), doctored.assessor("B")
    assert emanate(vf, ve) != vb
    assert _t5(relations[bk.s], (doctored,)) == theorems.TheoremResult(
        "Theorem 5",
        False,
        f"s={bk.s} sail ('F', 'D', 'B'): {vf} x {ve} emanates {emanate(vf, ve)}, not {vb}",
    )


def test_theorem5_names_a_sail_edge_that_makes_no_zero():
    # B's L-index replaced by 4: the zigzag's edge A-B now joins two planes
    # that make no zero, and the failure names the sail and both planes
    lvl = Level(5)
    sv = survey(lvl, 9)
    bk = sv.kites[0]
    assert bk.los[:2] == (2, 8)
    doctored = bk._replace(los=(2, 4, *bk.los[2:]))
    assert sv.relation.pattern(2, 4) is None
    assert _t5(sv.relation, (doctored,)) == theorems.TheoremResult(
        "Theorem 5",
        False,
        "s=9 sail ('A', 'B', 'C'): Assessor(2, 27) and Assessor(4, 29) make no zero",
    )


def test_suite_reads_sails_by_slot_without_classifying(monkeypatch):
    seen = []

    def counting(bk):
        seen.append(bk)
        return classify_sails(bk)

    monkeypatch.setattr("boxkites.kites.classify_sails", counting)
    assert not hasattr(theorems, "classify_sails")
    results = {r.name: r for r in theorems.run_suite(5)}
    assert all(r.passed for r in results.values())
    assert seen == []
    assert results["Theorem 5"].detail == "every sail edge emanates its third vertex (308 sails)"
    assert results["Theorem 7"].detail == "U-index law and edge sign patterns hold on all 77 kites"


@pytest.mark.parametrize("n", [4, 5, 6])
def test_suite_takes_no_element_product(monkeypatch, n):
    # every theorem reads the sign table, and a failure is worded from indices
    calls = []
    kernel = cdp.mul_element

    def counting(x, y, lvl):
        calls.append(lvl)
        return kernel(x, y, lvl)

    for module in (boxkites, cdp, kites, theorems, zd):
        if hasattr(module, "mul_element"):
            monkeypatch.setattr(module, "mul_element", counting)
    assert all(r.passed for r in theorems.run_suite(n))
    assert calls == []


def test_suite_reads_theorem4_off_the_relations(monkeypatch):
    # no plane list, no per-plane check and no single-product read: Theorem
    # 4 reads row 0 of the XOR-diagonal rows built from the surveys' relations
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    for holder, name in ((zd, "enumerate_assessors"), (zd, "theorem4_check"), (cdp, "mul_basis")):
        original = getattr(holder, name)
        for module in (boxkites, cdp, etable, kites, theorems, trips, zd):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(name, original))
    results = theorems.run_suite(5)
    assert all(r.passed for r in results)
    assert results[3].detail == "no plane's own diagonals make zero (210 planes)"
    assert calls == Counter()


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_suite_builds_each_cluster_relation_once(monkeypatch, n):
    # each survey's relation feeds Theorems 3 to 6: g - 1 relations a run
    calls = []
    kernel = zd.relation

    def counting(lvl, s):
        calls.append((lvl.n, s))
        return kernel(lvl, s)

    for module in (boxkites, etable, kites, theorems, zd):
        if hasattr(module, "relation"):
            monkeypatch.setattr(module, "relation", counting)
    assert all(r.passed for r in theorems.run_suite(n))
    assert calls == [(n, s) for s in range(1, 2 ** (n - 1))]


def test_suite_streams_its_kites_one_cluster_at_a_time(monkeypatch):
    # a kite of a cluster s counts in live[s] from its survey until it is freed;
    # before each survey at most the previous cluster's kites may be alive
    live = Counter()
    alive_before = []

    class Tracked(BoxKite):
        __slots__ = ()

        def __del__(self):
            live[self.s] -= 1

    def tracking(lvl, s):
        held = sorted(t for t, count in live.items() if count)
        assert len(held) <= 1, f"before survey {s}: kites of clusters {held} alive"
        alive_before.append(live.total())
        sv = survey(lvl, s)
        live[s] += len(sv.kites)
        return sv._replace(kites=tuple(Tracked(*bk) for bk in sv.kites))

    monkeypatch.setattr(theorems, "survey", tracking)
    assert all(r.passed for r in theorems.run_suite(5))
    assert len(alive_before) == 15
    assert max(alive_before) == 7  # one cluster of s = 1..8, never two
    assert live.total() == 0


def test_suite_holds_no_relation_past_its_cluster(monkeypatch):
    # a relation counts in held from its build until it is freed; before
    # each survey at most the previous cluster's relation may be alive
    held = {}
    alive_before = []

    class Tracked(Relation):
        __slots__ = ()

        def __del__(self):
            del held[id(self)]

    def tracking(lvl, s):
        rel = Tracked(*zd.relation(lvl, s))
        held[id(rel)] = s
        return rel

    def surveying(lvl, s):
        alive_before.append(sorted(held.values()))
        return survey(lvl, s)

    monkeypatch.setattr(kites, "relation", tracking)
    monkeypatch.setattr(theorems, "survey", surveying)
    assert all(r.passed for r in theorems.run_suite(5))
    assert alive_before == [[], *([s] for s in range(1, 15))]
    assert held == {}


def _flip(bk, edge):
    return bk._replace(blue=bk.blue ^ 1 << edge)


def _suite_with_doctored_relation(monkeypatch, field, edges):
    """run_suite(5) with bits of the s = 9 relation's ``field`` rows flipped:
    bit v of row u for each edge (u, v), named by the labels of the
    cluster's first kite (L-indices 2, 8, 10, 3, 1, 11), whose record is
    left as it is."""

    def doctored(lvl, s):
        sv = survey(lvl, s)
        if s != 9:
            return sv
        los = dict(zip(LABELS, sv.kites[0].los))
        rows = list(getattr(sv.relation, field))
        for u, v in edges:
            rows[los[u]] ^= 1 << los[v]
        return sv._replace(relation=sv.relation._replace(**{field: tuple(rows)}))

    monkeypatch.setattr(theorems, "survey", doctored)
    return {r.name: r for r in theorems.run_suite(5)}


def test_a_flipped_colour_fails_theorem_7(monkeypatch):
    # edge A-E turned RED from both ends: A now meets both ends of the strut
    # B-E in RED, which the strut flip of colours refuses
    results = _suite_with_doctored_relation(monkeypatch, "same", [("A", "E"), ("E", "A")])
    assert results["Theorem 7"] == theorems.TheoremResult(
        "Theorem 7", False, "s=9: edges (1, 24)-(2, 27) and (1, 24)-(11, 18) are both RED"
    )
    # Theorem 6 reads the doctored colours too: four twists of the edge out
    # of s = 9 and four into it no longer land in the other class, and
    # its verdict reads only the targets
    assert results["Theorem 6"] == theorems.TheoremResult(
        "Theorem 6",
        True,
        "3016/3696 twisted pairs still make zero; failing twists land at strut "
        "constants [9, 10, 11, 12, 13, 14, 15] (sources [1, 2, 3, 4, 5, 6, 7, 9, 10])",
    )
    assert all(results[f"Theorem {i}"].passed for i in range(1, 6))


def test_a_colour_read_one_way_fails_theorem_7(monkeypatch):
    results = _suite_with_doctored_relation(monkeypatch, "same", [("A", "E")])
    assert results["Theorem 7"] == theorems.TheoremResult(
        "Theorem 7", False, "s=9: edge (1, 24)-(2, 27) is BLUE read from (1, 24), not from (2, 27)"
    )
    assert all(results[f"Theorem {i}"].passed for i in range(1, 7))


def test_a_silent_kite_edge_fails_theorems_5_and_7(monkeypatch):
    # edge A-B made silent from both ends: the zero pair A, C emanates B,
    # which no longer makes zero with A, and A meets only one end of the
    # strut B-E
    results = _suite_with_doctored_relation(monkeypatch, "zero", [("A", "B"), ("B", "A")])
    assert [results[f"Theorem {i}"] for i in (5, 6, 7)] == [
        theorems.TheoremResult(
            "Theorem 5",
            False,
            "s=9: (2, 27) x (10, 19) emanates (8, 17), and (2, 27) x (8, 17) makes no zero",
        ),
        theorems.TheoremResult(
            "Theorem 6", False, "3692 twists against 77 kites, not 48 per kite"
        ),
        theorems.TheoremResult(
            "Theorem 7",
            False,
            "s=9: (2, 27) makes zero with (1, 24) but not with its strut opposite (8, 17)",
        ),
    ]


def _laws_against_oracles(doctored, n, cells):
    """For each doctored table, the clusters where each theorem's laws miss
    a failure of its per-kite oracle, and the tables where the laws fail
    and the oracle does not."""
    lvl = Level(n)
    g = lvl.g
    misses, stronger = Counter(), Counter()
    for cell in cells:
        doctored(*cell)
        laws_fail, oracle_fails = set(), set()
        for s in range(1, g):
            sv = survey(lvl, s)
            zero, same = _join(sv.relation.zero, g), _join(sv.relation.same, g)
            verdicts = {
                5: (
                    theorems._sail_laws(lvl, s, zero, _row_xor_permute(zero, g)),
                    _t5(sv.relation, sv.kites),
                ),
                7: (theorems._strut_laws(lvl, s, zero, same), _t7(sv.kites)),
            }
            for theorem, (law, oracle) in verdicts.items():
                if oracle and not law:
                    misses[theorem] += 1
                laws_fail |= {theorem} if law else set()
                oracle_fails |= {theorem} if oracle else set()
        for theorem in laws_fail - oracle_fails:
            stronger[theorem] += 1
        doctored(*cell)  # flipped back
    return misses, stronger


def test_laws_fail_wherever_the_per_kite_oracles_fail(doctored):
    # every single-cell doctored table at n = 4, and 64 seeded ones at n = 5:
    # in every cluster where an oracle fails on the surveyed kites, its
    # theorem's laws fail on the relation; they also fail on tables whose
    # kites pass, where the relation breaks a law no kite edge reads
    every = [(r, c) for r in range(16) for c in range(16)]
    assert _laws_against_oracles(doctored, 4, every) == (Counter(), Counter({5: 123, 7: 112}))
    sample = random.Random("laws-5").sample([(r, c) for r in range(32) for c in range(32)], 64)
    assert _laws_against_oracles(doctored, 5, sample) == (Counter(), Counter({5: 34, 7: 25}))


def test_theorems_reads_no_kite_record_layout():
    # the laws' proofs stand in for every per-record read: of kites the
    # suite imports only the survey
    tree = ast.parse(inspect.getsource(theorems))
    imported = {
        node.module: [alias.name for alias in node.names]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert imported["kites"] == ["survey"]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_slot_read_sails_equal_classify_sails(n):
    lvl = Level(n)
    for s in range(1, lvl.g):
        found = survey(lvl, s).kites
        for bk in found:
            sails = classify_sails(bk)  # raises unless the colours are the sails' pattern
            assert bk.blue == _SAIL_BLUE
            v = bk.vertices
            for sail, slot, (i, j, k) in zip(sails, _SAIL_SLOTS, _SAIL_AT):
                a, b, c = v[i], v[j], v[k]
                assert sail.labels == slot
                assert sail.l_trip == (a.lo, b.lo, c.lo)
                assert sail.u_trips == (
                    (a.lo, b.hi, c.hi),
                    (a.hi, b.lo, c.hi),
                    (a.hi, b.hi, c.lo),
                )
        assert _t7(found) is None


def test_theorem_7_refuses_what_classify_sails_refuses():
    bk = survey(Level(5), 9).kites[0]
    for edge, (l1, l2) in enumerate(EDGE_LABEL_PAIRS):
        doctored = _flip(bk, edge)
        with pytest.raises(ClassificationError, match=f"edge ({l1}-{l2}|{l2}-{l1}) is "):
            classify_sails(doctored)
        assert _t7([doctored]).detail == (
            f"s=9: edge {l1}-{l2} is {doctored.edge_color(l1, l2)}, "
            f"expected {bk.edge_color(l1, l2)}"
        )
    # another plane of the cluster at D breaks the sail ADE's trips
    other = next(lo for lo in range(1, 16) if lo != 9 and lo not in bk.los)
    doctored = bk._replace(los=(*bk.los[:3], other, *bk.los[4:]))
    with pytest.raises(ClassificationError, match="carries a non-trip"):
        classify_sails(doctored)
    a, _, _, d, e, _ = doctored.los
    assert _t7([doctored]).detail == (
        f"s=9: sail ('A', 'D', 'E') carries a non-trip {(a, d, e)}"
    )


@pytest.mark.parametrize("lo", [0, 9, 16, 31], ids=["zero", "s", "g", "above-g"])
def test_theorem_7_refuses_an_index_outside_the_cluster(lo):
    # 0 and s span no plane of the cluster, and g = 16 or more is no L-index;
    # the record builds no Assessor, so the per-kite oracle is what refuses
    # them (survey's strut ends never take them: proof at theorems._strut_laws)
    bk = survey(Level(5), 9).kites[0]
    for slot, label in enumerate(LABELS):
        los = list(bk.los)
        los[slot] = lo
        doctored = bk._replace(los=tuple(los))
        with pytest.raises(ValueError, match="-index must lie in"):
            doctored.vertices
        assert _t7([doctored]) == theorems.TheoremResult(
            "Theorem 7", False, f"s=9: vertex {label} has L-index {lo}, not in 1..15 without 9"
        )
