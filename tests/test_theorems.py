"""Theorems 5 and 6 read off the relations, held to the exact oracles;
the suite reads sails off the kites' vertex slots, held to classify_sails,
and takes no Element product."""

import dataclasses

import pytest

import boxkites
from boxkites import cdp, kites, theorems, zd
from boxkites.cdp import Level
from boxkites.kites import (
    _SAIL_COLORS,
    _SAIL_SLOTS,
    BLUE,
    EDGE_LABEL_PAIRS,
    RED,
    ClassificationError,
    classify_sails,
    survey,
)
from boxkites.zd import BACKSLASH, SLASH, Diagonal, cluster, emanate, relation, twist


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


@pytest.mark.parametrize("n", [5, 6])
def test_theorem6_relation_reading_matches_the_twist_oracle(n):
    lvl, relations, kites = _level(n)
    valid, total, targets, sources = _twist_oracle(kites)
    result = theorems._t6(lvl, relations, kites)
    assert result.detail == (
        f"{valid}/{total} twisted pairs still make zero; failing twists land at strut "
        f"constants {targets} (sources {sources})"
    )
    assert result.passed
    assert (valid, total) == {5: (3024, 3696), 6: (21840, 31920)}[n]


def test_theorem6_at_n7_fails_its_twists_exactly_at_the_sky():
    lvl, relations, kites = _level(7)
    result = theorems._t6(lvl, relations, kites)
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


def test_theorem6_refuses_an_edge_its_relation_does_not_hold():
    lvl, relations, kites = _level(5)
    bk = kites[0]
    a, b = bk.vertices[0].lo, bk.vertices[1].lo
    rel = relations[bk.s]
    zero = list(rel.zero)
    zero[a] &= ~(1 << b)
    zero[b] &= ~(1 << a)
    relations[bk.s] = rel._replace(zero=tuple(zero))
    with pytest.raises(ValueError, match="twist needs a pair of diagonals that make zero"):
        theorems._t6(lvl, relations, kites)


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
    colors = list(bk.edge_colors)
    l1, l2, color = colors[edge]
    colors[edge] = (l1, l2, RED if color == BLUE else BLUE)
    return dataclasses.replace(bk, edge_colors=tuple(colors))


def test_a_flipped_colour_fails_theorem_7(monkeypatch):
    def doctored(lvl, s):
        sv = survey(lvl, s)
        if s != 9:
            return sv
        return dataclasses.replace(sv, kites=(_flip(sv.kites[0], 3), *sv.kites[1:]))

    monkeypatch.setattr(theorems, "survey", doctored)
    results = {r.name: r for r in theorems.run_suite(5)}
    assert results["Theorem 7"] == theorems.TheoremResult(
        "Theorem 7", False, "s=9: edge A-E is RED, expected BLUE"
    )
    # Theorem 6 reads the colours too: the flipped edge's slope class is not its relation's
    assert results["Theorem 6"].detail == (
        "check aborted: twist needs a pair of diagonals that make zero"
    )
    assert all(results[f"Theorem {i}"].passed for i in range(1, 6))


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_slot_read_sails_equal_classify_sails(n):
    lvl = Level(n)
    found = [bk for s in range(1, lvl.g) for bk in survey(lvl, s).kites]
    for bk in found:
        sails = classify_sails(bk)  # raises unless the colours are the sails' pattern
        assert bk.edge_colors == _SAIL_COLORS
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
    # another plane of the cluster at D keeps the U-index law but breaks the sail ADE's trips
    plane = {a.lo: a for a in cluster(bk.lvl, 9)}
    other = next(lo for lo in plane if lo not in {u.lo for u in bk.vertices})
    vertices = list(bk.vertices)
    vertices[3] = plane[other]
    doctored = dataclasses.replace(bk, vertices=tuple(vertices))
    with pytest.raises(ClassificationError, match="carries a non-trip"):
        classify_sails(doctored)
    a, d, e = (doctored.assessor(lbl).lo for lbl in "ADE")
    assert theorems._t7([doctored]).detail == (
        f"s=9: sail ('A', 'D', 'E') carries a non-trip {(a, d, e)}"
    )
