"""Theorems 5 and 6 read off the relations, held to the exact oracles;
the suite reads sails off the kites' vertex slots, held to classify_sails,
and takes no Element product."""

import pytest

import boxkites
from boxkites import cdp, kites, theorems, zd
from boxkites.cdp import Level
from boxkites.kites import (
    _EDGE_ROWS,
    _SAIL_BLUE,
    _SAIL_SLOTS,
    BLUE,
    EDGE_LABEL_PAIRS,
    LABELS,
    ClassificationError,
    classify_sails,
    survey,
)
from boxkites.zd import BACKSLASH, SLASH, Diagonal, NotDmzError, emanate, relation, twist


def _level(n):
    lvl = Level(n)
    kites = [bk for s in range(1, lvl.g) for bk in survey(lvl, s).kites]
    return lvl, {s: relation(lvl, s) for s in range(1, lvl.g)}, kites


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
    result = theorems._t6(lvl, relations, len(kites))
    assert result == _t6_by_kite_edges(lvl, relations, kites)
    assert result.passed


@pytest.mark.parametrize("n", [5, 6])
def test_theorem6_relation_reading_matches_the_twist_oracle(n):
    lvl, relations, kites = _level(n)
    valid, total, targets, sources = _twist_oracle(kites)
    result = theorems._t6(lvl, relations, len(kites))
    assert result.detail == (
        f"{valid}/{total} twisted pairs still make zero; failing twists land at strut "
        f"constants {targets} (sources {sources})"
    )
    assert result.passed
    assert (valid, total) == {5: (3024, 3696), 6: (21840, 31920)}[n]


def test_theorem6_at_n7_fails_its_twists_exactly_at_the_sky():
    lvl, relations, kites = _level(7)
    result = theorems._t6(lvl, relations, len(kites))
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
    assert theorems._t6(lvl, relations, len(kites)) == theorems.TheoremResult(
        "Theorem 6", False, "923 zero pairs against 77 kites, not 12 per kite"
    )


def test_theorem6_refuses_zero_pairs_no_kite_holds():
    # a kite lost from the count leaves its 12 zero pairs' twists unaccounted
    lvl, relations, kites = _level(5)
    assert theorems._t6(lvl, relations, len(kites) - 1) == theorems.TheoremResult(
        "Theorem 6", False, "924 zero pairs against 76 kites, not 12 per kite"
    )


def test_theorem5_relation_reading_matches_emanate_on_every_sail():
    lvl, relations, kites = _level(5)
    sails = 0
    for bk in kites:
        for sail in classify_sails(bk):
            va, vb, vc = (bk.assessor(lbl) for lbl in sail.labels)
            sails += 1
            for p, q, r in ((va, vb, vc), (vb, vc, va), (va, vc, vb)):
                assert emanate(p, q) == r
                assert relations[bk.s].pattern(p.lo, q.lo) is not None
    result = theorems._t5(relations, kites)
    assert result.passed
    assert result.detail == f"every sail edge emanates its third vertex ({sails} sails)"
    assert sails == 4 * len(kites) == 308


def test_theorem5_refuses_a_third_vertex_the_edge_does_not_emanate():
    # D and E swapped: every edge still makes zero, but the sail now at F, D, B
    # holds F, E, B, and F x E emanates the plane at C, not B
    lvl, relations, kites = _level(5)
    bk = kites[0]
    a, b, c, d, e, f = bk.los
    doctored = bk._replace(los=(a, b, c, e, d, f))
    vf, ve, vb = doctored.assessor("F"), doctored.assessor("D"), doctored.assessor("B")
    assert emanate(vf, ve) != vb
    assert theorems._t5(relations, [doctored]) == theorems.TheoremResult(
        "Theorem 5",
        False,
        f"s={bk.s} sail ('F', 'D', 'B'): {vf} x {ve} emanates {emanate(vf, ve)}, not {vb}",
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
    # every theorem reads the sign table; emanate multiplies only to word a failure
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


def _flip(bk, edge):
    return bk._replace(blue=bk.blue ^ 1 << edge)


def test_a_flipped_colour_fails_theorem_7(monkeypatch):
    def doctored(lvl, s):
        sv = survey(lvl, s)
        if s != 9:
            return sv
        return sv._replace(kites=(_flip(sv.kites[0], 3), *sv.kites[1:]))

    monkeypatch.setattr(theorems, "survey", doctored)
    results = {r.name: r for r in theorems.run_suite(5)}
    assert results["Theorem 7"] == theorems.TheoremResult(
        "Theorem 7", False, "s=9: edge A-E is RED, expected BLUE"
    )
    # Theorem 6 reads the relations and the kites' count, not their colours
    assert results["Theorem 6"] == theorems.TheoremResult(
        "Theorem 6",
        True,
        "3024/3696 twisted pairs still make zero; failing twists land at strut "
        "constants [9, 10, 11, 12, 13, 14, 15] (sources [1, 2, 3, 4, 5, 6, 7])",
    )
    assert all(results[f"Theorem {i}"].passed for i in range(1, 6))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_slot_read_sails_equal_classify_sails(n):
    lvl = Level(n)
    found = [bk for s in range(1, lvl.g) for bk in survey(lvl, s).kites]
    for bk in found:
        sails = classify_sails(bk)  # raises unless the colours are the sails' pattern
        assert bk.blue == _SAIL_BLUE
        v = bk.vertices
        for sail, slot, (i, j, k) in zip(sails, _SAIL_SLOTS, theorems._SAIL_AT):
            a, b, c = v[i], v[j], v[k]
            assert sail.labels == slot
            assert sail.l_trip == (a.lo, b.lo, c.lo)
            assert sail.u_trips == ((a.lo, b.hi, c.hi), (a.hi, b.lo, c.hi), (a.hi, b.hi, c.lo))
    assert theorems._t7(found).passed


def test_theorem_7_refuses_what_classify_sails_refuses():
    bk = survey(Level(5), 9).kites[0]
    for edge, (l1, l2) in enumerate(EDGE_LABEL_PAIRS):
        doctored = _flip(bk, edge)
        with pytest.raises(ClassificationError, match=f"edge ({l1}-{l2}|{l2}-{l1}) is "):
            classify_sails(doctored)
        assert theorems._t7([doctored]).detail == (
            f"s=9: edge {l1}-{l2} is {doctored.edge_color(l1, l2)}, "
            f"expected {bk.edge_color(l1, l2)}"
        )
    # another plane of the cluster at D breaks the sail ADE's trips
    other = next(lo for lo in range(1, 16) if lo != 9 and lo not in bk.los)
    doctored = bk._replace(los=(*bk.los[:3], other, *bk.los[4:]))
    with pytest.raises(ClassificationError, match="carries a non-trip"):
        classify_sails(doctored)
    a, _, _, d, e, _ = doctored.los
    assert theorems._t7([doctored]).detail == (
        f"s=9: sail ('A', 'D', 'E') carries a non-trip {(a, d, e)}"
    )


@pytest.mark.parametrize("lo", [0, 9, 16, 31], ids=["zero", "s", "g", "above-g"])
def test_theorem_7_refuses_an_index_outside_the_cluster(lo):
    # 0 and s span no plane of the cluster, and g = 16 or more is no L-index;
    # the record builds no Assessor, so Theorem 7 is what refuses them
    bk = survey(Level(5), 9).kites[0]
    for slot, label in enumerate(LABELS):
        los = list(bk.los)
        los[slot] = lo
        doctored = bk._replace(los=tuple(los))
        with pytest.raises(ValueError, match="-index must lie in"):
            doctored.vertices
        assert theorems._t7([doctored]) == theorems.TheoremResult(
            "Theorem 7", False, f"s=9: vertex {label} has L-index {lo}, not in 1..15 without 9"
        )
