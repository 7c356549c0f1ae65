"""Theorems 5 and 6 read off the relations, held to the exact oracles;
the suite classifies each kite's sails once."""

import pytest

from boxkites import theorems
from boxkites.cdp import Level
from boxkites.kites import BLUE, ClassificationError, classify_sails, survey
from boxkites.zd import BACKSLASH, SLASH, Diagonal, emanate, relation, twist


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
    result = theorems._t5(relations, kites, classify_sails)
    assert result.passed
    assert result.detail == f"every sail edge emanates its third vertex ({sails} sails)"
    assert sails == 4 * len(kites) == 308


def test_suite_classifies_each_kite_once(monkeypatch):
    seen = []

    def counting(bk):
        seen.append(bk)
        return classify_sails(bk)

    monkeypatch.setattr(theorems, "classify_sails", counting)
    results = theorems.run_suite(5)
    assert all(r.passed for r in results)
    assert len(seen) == len({id(bk) for bk in seen}) == 77


def test_a_classification_error_fails_theorems_5_and_7(monkeypatch):
    def refusing(bk):
        if bk.s == 9:
            raise ClassificationError(f"s={bk.s}: refused")
        return classify_sails(bk)

    monkeypatch.setattr(theorems, "classify_sails", refusing)
    results = {r.name: r for r in theorems.run_suite(5)}
    for name in ("Theorem 5", "Theorem 7"):
        assert results[name].passed is False
        assert results[name].detail == "check aborted: s=9: refused"
    assert all(r.passed for name, r in results.items() if name not in ("Theorem 5", "Theorem 7"))
