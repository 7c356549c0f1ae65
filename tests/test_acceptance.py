"""End-to-end acceptance checks.

Each test covers one numbered criterion, re-deriving its expectations
from scratch (no fixtures shared with the unit tests), enforces the
stated runtime budget where one applies, and prints exactly one
PASS/FAIL line.  Run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they appear.
"""

import time
from collections import Counter
from contextlib import contextmanager

from boxkites.cdp import Level, mul_basis
from boxkites.etable import build_et, flipbook
from boxkites.kites import (
    BLUE,
    build_boxkite,
    classify_sails,
    edge_color_stats,
    survey,
    viziers_check,
)
from boxkites.trips import enumerate_trips, rule2_expand, trip_count
from boxkites.zd import (
    BACKSLASH,
    SLASH,
    Diagonal,
    cluster_assessors,
    dmz_pattern,
    emanate,
    enumerate_assessors,
    theorem1_check,
    theorem2_check,
    theorem3_check,
    theorem4_check,
    twist,
)

LVL4, LVL5 = Level(4), Level(5)


@contextmanager
def criterion(num, desc, budget=None):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d}: FAIL - {desc}")
        raise
    elapsed = time.monotonic() - started
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {num:02d}: PASS - {desc} ({elapsed:.1f}s)")


def _edge_diagonal_pairs(bk, l1, l2):
    a1, a2 = bk.assessor(l1), bk.assessor(l2)
    if bk.edge_color(l1, l2) == BLUE:
        combos = ((SLASH, SLASH), (BACKSLASH, BACKSLASH))
    else:
        combos = ((SLASH, BACKSLASH), (BACKSLASH, SLASH))
    return [(Diagonal(a1, s1), Diagonal(a2, s2)) for s1, s2 in combos]


def test_criterion_01_trip_counts():
    with criterion(1, "trip totals 7/35/155/651 and the doubling recurrence", budget=10):
        for n, want in ((3, 7), (4, 35), (5, 155), (6, 651)):
            assert trip_count(n).total == want
            assert len(enumerate_trips(Level(n))) == want
        for n in range(2, 8):
            assert trip_count(n + 1).total == 4 * trip_count(n).total + (1 << n) - 1


def test_criterion_02_good_bad_split():
    with criterion(2, "bad-trip census: exactly {(1,7,6),(3,6,5)} at n=3; 14/21 at n=4", budget=10):
        octo = enumerate_trips(Level(3))
        bads = sorted(t.cpo() for t in octo if not t.good)
        assert bads == [(1, 7, 6), (3, 6, 5)]
        tc = trip_count(4)
        assert (tc.bad, tc.good) == (14, 21)
        sed = enumerate_trips(LVL4)
        assert sum(1 for t in sed if not t.good) == 14


def test_criterion_03_rule2_regression():
    with criterion(3, "index-doubling expansions of (1,2,3) and (1,7,6)"):
        out = rule2_expand((1, 2, 3), 4)
        assert set(out) == {(1, 7, 6), (2, 5, 7), (3, 6, 5)}
        out = rule2_expand((1, 7, 6), 8)
        assert set(out) == {(1, 14, 15), (7, 9, 14), (6, 15, 9)}
        for x, y, z in out:
            assert tuple(mul_basis(x, y, LVL4)) == (1, z)


def test_criterion_04_assessor_census():
    with criterion(4, "42 sedenion assessors in 7 clusters of 6"):
        assert len(enumerate_assessors(LVL4)) == 42
        clusters = cluster_assessors(LVL4)
        assert len(clusters) == 7
        assert all(len(v) == 6 for v in clusters.values())


def test_criterion_05_sedenion_boxkite_census():
    with criterion(5, "one kite per strut constant, 12 DMZ edges, 6+6 colors, 168 flows", budget=60):
        kites = []
        for s in range(1, 8):
            found = survey(LVL4, s).kites
            assert len(found) == 1
            kites += found
        assert len(kites) == 7
        zigzag_red_count = 0
        for bk in kites:
            assert len(bk.edge_colors) == 12
            stats = edge_color_stats(bk)
            assert stats.red == 6 and stats.blue == 6
            sails = classify_sails(bk)
            all_red = [
                sail
                for sail in sails
                if all(bk.edge_color(p, q) == "RED" for p, q in
                       ((sail.labels[0], sail.labels[1]),
                        (sail.labels[0], sail.labels[2]),
                        (sail.labels[1], sail.labels[2])))
            ]
            assert len(all_red) == 1 and all_red[0].kind == "ZIGZAG"
            zigzag_red_count += 1
        oriented_flows = sum(len(bk.edge_colors) * 2 for bk in kites)
        assert oriented_flows == 168


def test_criterion_06_theorem_suite():
    with criterion(6, "exclusion laws, dichotomy, emanation closure, twist caveat", budget=600):
        for lvl in (LVL4, LVL5):
            assert theorem1_check(lvl) is None
            assert theorem2_check(lvl) is None
            theorem3_check(lvl)  # zd.relation proves the dichotomy pair by pair
            assert all(theorem4_check(a) for a in enumerate_assessors(lvl))
        # emanation closure on every sedenion sail
        for s in range(1, 8):
            for bk in survey(LVL4, s).kites:
                for sail in classify_sails(bk):
                    va, vb, vc = (bk.assessor(lbl) for lbl in sail.labels)
                    assert emanate(va, vb) == vc
                    assert emanate(vb, vc) == va
                    assert emanate(va, vc) == vb
        # twists: all valid in the sedenions
        for s in range(1, 8):
            for bk in survey(LVL4, s).kites:
                for l1, l2, _ in bk.edge_colors:
                    for d1, d2 in _edge_diagonal_pairs(bk, l1, l2):
                        assert twist(d1, d2).valid
        # and at least one invalid twist at n=5 involving a strut constant
        # above 8 (every failure lands in such a cluster)
        invalid = []
        for s in range(1, 16):
            for bk in survey(LVL5, s).kites:
                for l1, l2, _ in bk.edge_colors:
                    for d1, d2 in _edge_diagonal_pairs(bk, l1, l2):
                        res = twist(d1, d2)
                        if not res.valid:
                            invalid.append(res.pair[0].assessor.strut_constant)
        assert invalid
        assert all(t > 8 for t in invalid)


def test_criterion_07_zigzag_trefoil_sign_patterns():
    with criterion(7, "zigzag edges annihilate opposite-slope, trefoil edges at the shared vertex same-slope"):
        for s in range(1, 8):
            for bk in survey(LVL4, s).kites:
                sails = classify_sails(bk)
                zig = sails[0]
                for p, q in ((0, 1), (0, 2), (1, 2)):
                    a1 = bk.assessor(zig.labels[p])
                    a2 = bk.assessor(zig.labels[q])
                    pat = dmz_pattern(a1, a2)
                    assert pat is not None and not pat.same_slope_zero
                for tre in sails[1:]:
                    shared = next(lbl for lbl in tre.labels if lbl in "ABC")
                    for lbl in tre.labels:
                        if lbl == shared:
                            continue
                        pat = dmz_pattern(bk.assessor(shared), bk.assessor(lbl))
                        assert pat is not None and pat.same_slope_zero


def test_criterion_08_pathion_ensembles():
    with criterion(8, "7 kites for s=1..8, 3 kites sharing one strut for s=9..15", budget=300):
        for s in range(1, 9):
            assert len(survey(LVL5, s).kites) == 7, s
        for s in range(9, 16):
            found = survey(LVL5, s).kites
            assert len(found) == 3, s
            shared = set.intersection(*(set(bk.strut_pairs()) for bk in found))
            assert len(shared) == 1


def test_criterion_09_zigzag_trefoil_distribution():
    with criterion(9, "each trip zigzags once, trefoils thrice; (3,6,5) only fce, (1,2,3) only ade"):
        zig, tre = Counter(), Counter()
        slots = {}
        for s in range(1, 8):
            for bk in survey(LVL4, s).kites:
                for sail in classify_sails(bk):
                    key = tuple(sorted(sail.l_trip))
                    if sail.kind == "ZIGZAG":
                        zig[key] += 1
                    else:
                        tre[key] += 1
                        slots.setdefault(key, set()).add(sail.slot)
        assert len(zig) == 7 and all(v == 1 for v in zig.values())
        assert len(tre) == 7 and all(v == 3 for v in tre.values())
        assert slots[(3, 5, 6)] == {"fce"}
        assert slots[(1, 2, 3)] == {"ade"}


def test_criterion_10_three_viziers():
    with criterion(10, "second family universal; all sedenion kites fully oriented; two-strut reversal at n=5 with s>8"):
        reports4 = [viziers_check(survey(LVL4, s).kites[0]) for s in range(1, 8)]
        for report in reports4:
            assert report.kite_type == "I"
            for strut in report.struts:
                assert strut.fully_oriented
        type_ii_high = []
        for s in range(1, 16):
            for bk in survey(LVL5, s).kites:
                report = viziers_check(bk)
                for strut in report.struts:
                    assert strut.vz2 == (True, True)
                if report.kite_type == "II" and s > 8:
                    type_ii_high.append((s, bk.zigzag_trip))
        # the reversal does occur beginning at 32 dimensions, but an
        # exhaustive sweep places every type II kite at s <= 8; this
        # clause is therefore expected to fail as written
        assert type_ii_high, "no type II kite with s > 8 exists at n=5"


def test_criterion_11_emanation_table_properties():
    with criterion(11, "XOR fill, hidden diagonal and struts, symmetry, census consistency"):
        cases = [(LVL4, s) for s in range(1, 8)] + [(LVL5, s) for s in range(1, 16)]
        for lvl, s in cases:
            et = build_et(lvl, s)
            for r, c, v in et.filled_cells():
                assert v == r ^ c
                assert et.cell(c, r) == v
            for i, r in enumerate(et.axis):
                assert et.grid[i][i] is None
                for j, c in enumerate(et.axis):
                    if r ^ c == s:
                        assert et.grid[i][j] is None
            edges = set()
            for bk in survey(lvl, s).kites:
                for l1, l2, _ in bk.edge_colors:
                    u, v = bk.assessor(l1).lo, bk.assessor(l2).lo
                    edges.add((u, v))
                    edges.add((v, u))
            filled = {(r, c) for r, c, _ in et.filled_cells()}
            assert filled == edges, (lvl.n, s)


def test_criterion_12_flipbook_determinism(tmp_path):
    with criterion(12, "flip-book 9..15 emits 7 byte-stable pixmaps plus manifest"):
        first = flipbook(LVL5, 9, 15, tmp_path / "run1")
        second = flipbook(LVL5, 9, 15, tmp_path / "run2")
        assert len(first) == len(second) == 7
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()
        m1 = (tmp_path / "run1" / "manifest.txt").read_bytes()
        m2 = (tmp_path / "run2" / "manifest.txt").read_bytes()
        assert m1 == m2
        assert len(m1.splitlines()) == 7
