import random
import re
from collections import Counter
from itertools import combinations, product

import pytest

from boxkites import kites
from boxkites.cdp import Level, mul_basis
from boxkites.cli import main
from boxkites.kites import (
    BLUE,
    CATAMARAN_SIGNATURE,
    CATAMARAN_SQUARES,
    EDGE_LABEL_PAIRS,
    RED,
    STRUT_LABEL_PAIRS,
    TREFOIL_SIGNATURE,
    ZIGZAG_SIGNATURE,
    BoxKite,
    BrokenChainError,
    BrokenFrameError,
    ClassificationError,
    NotZigzagError,
    StrutCollisionError,
    blue_hexagon,
    build_boxkite,
    classify_sails,
    edge_color_stats,
    survey,
    trace_lanyard,
    viziers_check,
)
from boxkites.trips import NotTripError, is_trip, trip_count
from boxkites.zd import (
    BACKSLASH,
    SLASH,
    Assessor,
    Diagonal,
    cluster,
    dmz_pattern,
    relation,
    twist,
)

LVL4, LVL5 = Level(4), Level(5)

S4_DUMP = """4 4
A 1 13
B 2 14
C 3 15
D 7 11
E 6 10
F 5 9
A B RED
A C RED
A D BLUE
A E BLUE
B C RED
B D BLUE
B F BLUE
C E BLUE
C F BLUE
D E RED
D F RED
E F RED
"""


def test_build_golden_s4():
    bk = build_boxkite(LVL4, 4, (1, 2, 3))
    assert [(a.lo, a.hi) for a in bk.vertices] == [
        (1, 13), (2, 14), (3, 15), (7, 11), (6, 10), (5, 9)
    ]
    assert bk.dump() == S4_DUMP
    assert bk.x == 12
    assert bk.strut_pairs() == ((1, 5), (2, 6), (3, 7))


def test_build_accepts_any_cpo_rotation():
    # seed (5,1,4) stores as A=1, B=4, C=5
    bk = build_boxkite(LVL4, 7, (5, 1, 4))
    assert bk.zigzag_trip == (1, 4, 5)
    assert bk == survey(LVL4, 7).kites[0]


def test_build_errors():
    with pytest.raises(NotTripError):
        build_boxkite(LVL4, 4, (1, 2, 4))
    with pytest.raises(StrutCollisionError):
        build_boxkite(LVL4, 1, (2, 3, 1))
    with pytest.raises(NotZigzagError):
        build_boxkite(LVL4, 4, (1, 7, 6))  # a trefoil of that frame
    with pytest.raises(ValueError):
        build_boxkite(LVL4, 8, (1, 2, 3))
    with pytest.raises(ValueError):
        build_boxkite(Level(3), 1, (1, 2, 3))


def test_build_broken_frame_at_level5():
    # (2,4,6) spans pairs without the shared strut of the s=9 ensemble
    with pytest.raises(BrokenFrameError) as err:
        build_boxkite(LVL5, 9, (2, 4, 6))
    assert err.value.missing


def test_sedenion_census(sedenion_kites):
    assert sorted(sedenion_kites) == list(range(1, 8))
    zigzags = set()
    for s, ks in sedenion_kites.items():
        assert len(ks) == 1
        bk = ks[0]
        assert len(bk.edge_colors) == 12
        stats = edge_color_stats(bk)
        assert stats.red == 6 and stats.blue == 6
        zigzags.add(tuple(sorted(bk.zigzag_trip)))
    # each octonion trip is a zigzag exactly once
    assert len(zigzags) == 7


def test_sedenion_red_edges_are_zigzag_and_vent_faces(sedenion_kites):
    for ks in sedenion_kites.values():
        stats = edge_color_stats(ks[0])
        assert set(stats.red_edges) == {
            ("A", "B"), ("A", "C"), ("B", "C"), ("D", "E"), ("D", "F"), ("E", "F")
        }
        assert set(stats.blue_edges) == {
            ("A", "D"), ("A", "E"), ("B", "D"), ("B", "F"), ("C", "E"), ("C", "F")
        }


def test_vertex_u_index_law(sedenion_kites, pathion_surveys):
    for ks in sedenion_kites.values():
        for bk in ks:
            for v in bk.vertices:
                assert v.hi == v.lo ^ (bk.g + bk.s)
    for sv in pathion_surveys.values():
        for bk in sv.kites:
            for v in bk.vertices:
                assert v.hi == v.lo ^ (bk.g + bk.s)


def test_strut_pairs_never_annihilate(sedenion_kites, pathion_surveys):
    kites = [bk for ks in sedenion_kites.values() for bk in ks]
    kites += [bk for sv in pathion_surveys.values() for bk in sv.kites]
    for bk in kites:
        for l1, l2 in (("A", "F"), ("B", "E"), ("C", "D")):
            assert dmz_pattern(bk.assessor(l1), bk.assessor(l2)) is None


def test_pathion_census(pathion_surveys):
    for s, sv in pathion_surveys.items():
        if s <= 8:
            assert len(sv.kites) == 7, s
            assert len(sv.broken) == 0
            assert len(sv.sailless) == 28
        else:
            assert len(sv.kites) == 3, s
            assert len(sv.broken) == 32
            assert len(sv.sailless) == 0


def test_pathion_high_strut_ensembles_share_one_strut(pathion_surveys):
    for s in range(9, 16):
        ks = pathion_surveys[s].kites
        shared = set.intersection(*(set(bk.strut_pairs()) for bk in ks))
        # the shared strut joins the former generator with the rest of s
        assert shared == {(s ^ 8, 8)}


def test_classify_sails_slots_and_trips(sedenion_kites):
    bk = sedenion_kites[4][0]
    sails = classify_sails(bk)
    assert [sail.slot for sail in sails] == ["abc", "ade", "fdb", "fce"]
    zig = sails[0]
    assert zig.kind == "ZIGZAG" and zig.l_trip == (1, 2, 3)
    assert zig.u_trips == ((1, 14, 15), (13, 2, 15), (13, 14, 3))
    for sail in sails:
        for t in sail.trips:
            assert is_trip(*t, LVL4)
        # one shared zigzag vertex per trefoil
        if sail.kind == "TREFOIL":
            assert len(set(sail.labels) & {"A", "B", "C"}) == 1


def test_sail_trip_orientations(sedenion_kites, pathion_surveys):
    # label-order L-trips are CPO everywhere; so are zigzag U-trips, while
    # each trefoil carries exactly one CPO U-trip among its three
    kites = [(LVL4, bk) for ks in sedenion_kites.values() for bk in ks]
    kites += [(LVL5, bk) for sv in pathion_surveys.values() for bk in sv.kites]
    for lvl, bk in kites:
        for sail in classify_sails(bk):
            x, y, z = sail.l_trip
            assert tuple(mul_basis(x, y, lvl)) == (1, z)
            signs = [mul_basis(p, q, lvl).sign for p, q, _ in sail.u_trips]
            if sail.kind == "ZIGZAG":
                assert signs == [1, 1, 1]
            else:
                assert signs.count(1) == 1


def test_every_assessor_in_two_sails(sedenion_kites, pathion_surveys):
    kites = [bk for ks in sedenion_kites.values() for bk in ks]
    kites += [bk for sv in pathion_surveys.values() for bk in sv.kites]
    for bk in kites:
        seen = Counter()
        for sail in classify_sails(bk):
            seen.update(sail.labels)
        assert all(seen[lbl] == 2 for lbl in "ABCDEF")


def test_zigzag_trefoil_distribution(sedenion_kites):
    zig, tre = Counter(), Counter()
    slots = {}
    for ks in sedenion_kites.values():
        for sail in classify_sails(ks[0]):
            key = tuple(sorted(sail.l_trip))
            if sail.kind == "ZIGZAG":
                zig[key] += 1
            else:
                tre[key] += 1
                slots.setdefault(key, set()).add(sail.slot)
    assert all(v == 1 for v in zig.values()) and len(zig) == 7
    assert all(v == 3 for v in tre.values()) and len(tre) == 7
    assert slots[(3, 5, 6)] == {"fce"}
    assert slots[(1, 2, 3)] == {"ade"}


def test_trace_zigzag(sedenion_kites):
    bk = sedenion_kites[4][0]
    lan = trace_lanyard(bk, ZIGZAG_SIGNATURE)
    assert len(lan.diagonals) == 6 and lan.distinct_diagonals() == 6
    assert lan.labels == ("A", "B", "C", "A", "B", "C")


def test_trace_trefoils_engage_all_six(sedenion_kites):
    bk = sedenion_kites[4][0]
    for triple in (("A", "D", "E"), ("F", "D", "B"), ("F", "C", "E")):
        lan = trace_lanyard(bk, TREFOIL_SIGNATURE, triple * 2)
        assert lan.distinct_diagonals() == 6


def test_trace_catamaran(sedenion_kites):
    bk = sedenion_kites[4][0]
    lan = trace_lanyard(bk, CATAMARAN_SIGNATURE)
    assert len(lan.diagonals) == 4 and lan.distinct_diagonals() == 4
    for _, cyc in CATAMARAN_SQUARES:
        lan = trace_lanyard(bk, CATAMARAN_SIGNATURE, cyc)
        assert lan.distinct_diagonals() == 4


def test_trace_blues(sedenion_kites):
    for ks in sedenion_kites.values():
        bk = ks[0]
        hexagon = blue_hexagon(bk)
        assert hexagon == ("A", "D", "B", "F", "C", "E")
        slash = trace_lanyard(bk, "//////")
        back = trace_lanyard(bk, "\\" * 6)
        assert {d.slope for d in slash.diagonals} == {SLASH}
        assert {d.slope for d in back.diagonals} == {BACKSLASH}
        assert slash.distinct_diagonals() == back.distinct_diagonals() == 6


def test_trace_broken_chain(sedenion_kites):
    bk = sedenion_kites[4][0]
    with pytest.raises(BrokenChainError):
        trace_lanyard(bk, "//////", ("A", "B", "C", "A", "B", "C"))
    with pytest.raises(ValueError):
        trace_lanyard(bk, "/x/x/x")
    with pytest.raises(ValueError):
        trace_lanyard(bk, ZIGZAG_SIGNATURE, ("A", "B"))


def test_viziers_sedenion_all_type_one(sedenion_kites):
    for ks in sedenion_kites.values():
        report = viziers_check(ks[0])
        assert report.kite_type == "I"
        for strut in report.struts:
            assert strut.fully_oriented


def test_viziers_vz2_universal(sedenion_kites, pathion_surveys):
    kites = [bk for ks in sedenion_kites.values() for bk in ks]
    kites += [bk for sv in pathion_surveys.values() for bk in sv.kites]
    for bk in kites:
        for strut in viziers_check(bk).struts:
            assert strut.vz2 == (True, True)


def test_viziers_type_two_exists_in_pathions(pathion_surveys):
    types = Counter()
    for sv in pathion_surveys.values():
        for bk in sv.kites:
            report = viziers_check(bk)
            types[report.kite_type] += 1
            if report.kite_type == "II":
                flipped = [r for r in report.struts if r.reversed_vz1]
                assert len(flipped) == 2
                for r in flipped:
                    # the first and third families flip together; the second never does
                    assert r.vz1 == (False, False) and r.vz3 == (False, False)
    assert types["II"] > 0
    assert types["other"] == 0


def rule_oriented_trips(n):
    """CPO trips of the 2^n-ions from de Marrais's Rules 1 and 2 alone.

    Start from the quaternion cycle (1, 2, 3).  Each doubling by a
    generator G keeps every trip, adds (L, G, L + G) for each L < G
    (Rule 1) and (x, z + G, y + G) for each rotation (x, y, z) of an
    existing trip (Rule 2).  No product is computed.
    """
    trips = [(1, 2, 3)]
    for k in range(2, n):
        g = 1 << k
        rule1 = [(lo, g, lo + g) for lo in range(1, g)]
        rule2 = [
            (p, r + g, q + g)
            for x, y, z in trips
            for p, q, r in ((x, y, z), (y, z, x), (z, x, y))
        ]
        trips = trips + rule1 + rule2
    return trips


def test_viziers_flags_match_rule_oracle(sedenion_kites, pathion_surveys):
    """Every vizier flag equals the orientation Rules 1 and 2 give its triplet."""
    trips = rule_oriented_trips(5)
    assert len({frozenset(t) for t in trips}) == len(trips) == trip_count(5).total
    positive = {pair for x, y, z in trips for pair in ((x, y), (y, z), (z, x))}

    def oriented(p, q):
        if (p, q) in positive:
            return True
        assert (q, p) in positive, (p, q)
        return False

    kites = [bk for ks in sedenion_kites.values() for bk in ks]
    kites += [bk for sv in pathion_surveys.values() for bk in sv.kites]
    assert len(kites) == 7 + 77
    mismatches = []
    for bk in kites:
        for r in viziers_check(bk).struts:
            z, z_u = bk.assessor(r.zig_label).lo, bk.assessor(r.zig_label).hi
            v, v_u = bk.assessor(r.vent_label).lo, bk.assessor(r.vent_label).hi
            expected = (
                (oriented(v, z), oriented(v_u, z_u)),
                (oriented(v_u, z), oriented(z_u, v)),
                (oriented(v_u, v), oriented(z, z_u)),
            )
            if (r.vz1, r.vz2, r.vz3) != expected:
                mismatches.append((bk, r.zig_label, (r.vz1, r.vz2, r.vz3), expected))
    assert mismatches == []


def test_catamaran_twist_locality(sedenion_kites):
    def annihilating_pairs(bk, l1, l2):
        a1, a2 = bk.assessor(l1), bk.assessor(l2)
        if bk.edge_color(l1, l2) == BLUE:
            combos = ((SLASH, SLASH), (BACKSLASH, BACKSLASH))
        else:
            combos = ((SLASH, BACKSLASH), (BACKSLASH, SLASH))
        return [(Diagonal(a1, s1), Diagonal(a2, s2)) for s1, s2 in combos]

    for s, ks in sedenion_kites.items():
        bk = ks[0]
        for _, cyc in CATAMARAN_SQUARES:
            sides = [(cyc[i], cyc[(i + 1) % 4]) for i in range(4)]
            targets = []
            for l1, l2 in sides:
                ts = set()
                for d1, d2 in annihilating_pairs(bk, l1, l2):
                    res = twist(d1, d2)
                    assert res.valid
                    ts.update(d.assessor.strut_constant for d in res.pair)
                assert len(ts) == 1
                tgt = ts.pop()
                assert tgt != s
                # the twisted image lies on the target kite's frame
                target_kite = sedenion_kites[tgt][0]
                planes = set(target_kite.vertices)
                for d1, d2 in annihilating_pairs(bk, l1, l2):
                    res = twist(d1, d2)
                    assert {p.assessor for p in res.pair} <= planes
                targets.append(tgt)
            assert targets[0] == targets[2] and targets[1] == targets[3]
            assert targets[0] != targets[1]


def test_survey_is_deterministic():
    first = survey(LVL5, 9)
    second = survey(LVL5, 9)
    assert first == second
    assert [bk.dump() for bk in first.kites] == [bk.dump() for bk in second.kites]


def test_survey_decides_each_non_strut_pair_once(monkeypatch):
    calls = []

    def counting(name, kernel):
        def wrapper(*args):
            calls.append(name)
            return kernel(*args)

        return wrapper

    monkeypatch.setattr(kites, "relation", counting("relation", relation))
    monkeypatch.setattr(kites, "dmz_pattern", counting("dmz_pattern", dmz_pattern))
    for s in range(1, LVL5.g):
        calls.clear()
        assert survey(LVL5, s).kites
        # one relation decides every pair; kites take their edges from it, unchecked again
        assert calls == ["relation"], s


def test_survey_and_census_build_no_plane(monkeypatch, capsys):
    # a kite is an index record: a survey reads no cluster and a census
    # constructs no Assessor; the planes a kite builds when read are the cluster's
    built, read = [], []
    post_init = Assessor.__post_init__

    def counting_init(self):
        built.append(self)
        post_init(self)

    def counting_cluster(lvl, s):
        read.append(s)
        return cluster(lvl, s)

    monkeypatch.setattr(Assessor, "__post_init__", counting_init)
    monkeypatch.setattr(kites, "cluster", counting_cluster)
    found = {s: survey(LVL5, s).kites for s in range(1, LVL5.g)}
    assert main(["census", "--n", "6"]) == 0
    assert capsys.readouterr().out.endswith("\n665 box-kite(s)\n8064 broken frame(s)\n")
    assert read == []
    assert built == []
    for s, group in found.items():
        plane = {a.lo: a for a in cluster(LVL5, s)}
        for bk in group:
            assert bk.vertices == tuple(plane[lo] for lo in bk.los)
            assert bk.vertices is bk.vertices  # built on first read, then kept
    assert len(built) == 15 * 14 + 6 * 77


def test_survey_n6_result_row():
    lvl = Level(6)
    totals = Counter()
    for s in range(1, lvl.g):
        sv = survey(lvl, s)
        totals.update(kites=len(sv.kites), broken=len(sv.broken), sailless=len(sv.sailless))
    assert totals == {"kites": 665, "broken": 8064, "sailless": 5376}


def test_survey_n7_result_row():
    lvl = Level(7)
    totals = Counter()
    for s in range(1, lvl.g):
        sv = survey(lvl, s)
        totals.update(kites=len(sv.kites), broken=len(sv.broken), sailless=len(sv.sailless))
    assert totals == {"kites": 5425, "broken": 180544, "sailless": 97216}


@pytest.mark.parametrize(
    "lvl, constants", [(LVL5, range(1, 16)), (Level(7), (37,))], ids=["n5", "n7"]
)
def test_frame_views_yield_as_many_frames_as_they_count(lvl, constants):
    for s in constants:
        sv = survey(lvl, s)
        for view in (sv.broken, sv.sailless):
            assert len(view) == sum(1 for _ in view)


def _frame_oracle(lvl, s):
    """Survey by retesting every frame's twelve edges with dmz_pattern.

    Returns (kites, broken, sailless): kites as built from each frame's
    all-red trip face, broken frames as (struts, silent edges) with each
    edge's end on the earlier strut first, sailless frames as struts.
    """
    plane = {a.lo: a for a in cluster(lvl, s)}
    struts = [(k, k ^ s) for k in plane if k < k ^ s]
    found, broken, sailless = [], [], []
    for triple in combinations(struts, 3):
        pattern, silent = {}, []
        for p, q in combinations(triple, 2):
            for u, v in product(p, q):
                pat = dmz_pattern(plane[u], plane[v])
                if pat is None:
                    silent.append((u, v))
                else:
                    pattern[frozenset((u, v))] = pat
        if silent:
            broken.append((triple, tuple(sorted(silent))))
            continue
        faces = [f for f in product(*triple) if f[0] ^ f[1] ^ f[2] == 0]
        if not faces:
            sailless.append(triple)
            continue
        red = [
            f for f in faces
            if not any(pattern[frozenset(e)].same_slope_zero for e in combinations(f, 2))
        ]
        assert len(red) == 1
        found.append(build_boxkite(lvl, s, red[0]))
    found.sort(key=lambda bk: bk.zigzag_trip)
    return found, broken, sailless


@pytest.mark.parametrize(
    "lvl, constants",
    [
        (LVL4, range(1, 8)),
        (LVL5, range(1, 16)),
        # s <= 8, the powers of 2 and Sky values on both sides of 16
        (Level(6), (1, 7, 8, 9, 15, 16, 17, 24, 31)),
        # a Sky above the levels tested exhaustively
        (Level(7), (37,)),
    ],
    ids=["n4", "n5", "n6", "n7"],
)
def test_survey_matches_frame_by_frame_oracle(lvl, constants):
    for s in constants:
        sv = survey(lvl, s)
        found, broken, sailless = _frame_oracle(lvl, s)
        assert [bk.dump() for bk in sv.kites] == [bk.dump() for bk in found]
        assert [bk.vertices for bk in sv.kites] == [bk.vertices for bk in found]
        assert [(f.strut_pairs, f.missing_edges) for f in sv.broken] == broken
        assert [f.strut_pairs for f in sv.sailless] == sailless
        assert all(f.s == s for f in list(sv.broken) + list(sv.sailless))


def test_kite_repr_and_edge_lookup(sedenion_kites):
    bk = sedenion_kites[4][0]
    assert "s=4" in repr(bk)
    assert bk.edge_color("B", "A") == RED
    with pytest.raises(KeyError):
        bk.edge_color("A", "F")


def test_every_n5_kite_reads_its_edges_and_struts_by_slot(pathion_surveys):
    for sv in pathion_surveys.values():
        for bk in sv.kites:
            assert [(l1, l2) for l1, l2, _ in bk.edge_colors] == list(EDGE_LABEL_PAIRS)
            for l1, l2, color in bk.edge_colors:
                assert bk.edge_color(l1, l2) == bk.edge_color(l2, l1) == color
            for l1, l2 in STRUT_LABEL_PAIRS:
                for x, y in ((l1, l2), (l2, l1)):
                    with pytest.raises(KeyError) as err:
                        bk.edge_color(x, y)
                    assert err.value.args == (f"{x}-{y} is not an edge (strut pairs have none)",)
            struts = [
                tuple(sorted((bk.assessor(l1).lo, bk.assessor(l2).lo)))
                for l1, l2 in STRUT_LABEL_PAIRS
            ]
            assert bk.strut_pairs() == tuple(sorted(struts))


@pytest.mark.parametrize("n, total", [(4, 7), (5, 77), (6, 665), (7, 5425), (8, 43617)])
def test_every_dmz_pair_is_an_edge_of_exactly_one_kite(n, total):
    # the kites' edges are zero pairs of their cluster and all distinct, and
    # there are as many as the cluster has DMZ pairs: 12 kites(n, s) = pairs(n, s)
    lvl = Level(n)
    found = 0
    for s in range(1, lvl.g):
        zero = relation(lvl, s).zero
        kites_of_s = survey(lvl, s).kites
        edges = {
            tuple(sorted((bk.los[i], bk.los[j])))
            for bk in kites_of_s
            for i, j, _ in kites._EDGE_ROWS
        }
        assert all(zero[a] >> b & 1 for a, b in edges), s
        pairs = sum(m.bit_count() for m in zero) // 2
        assert len(edges) == 12 * len(kites_of_s) == pairs, s
        found += len(kites_of_s)
    assert found == total


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_every_surveyed_kite_is_the_one_assemble_builds_from_the_relation(n):
    # survey labels and colours each kite by index arithmetic; _assemble
    # orients the zigzag with cpo_orient and reads Relation.pattern per edge
    lvl = Level(n)
    for s in range(1, lvl.g):
        rel = relation(lvl, s)
        for bk in survey(lvl, s).kites:
            assert bk == kites._assemble(lvl, s, bk.zigzag_trip, rel.pattern), (s, bk)


def _seeded_sample(lvl, k):
    found = [bk for s in range(1, lvl.g) for bk in survey(lvl, s).kites]
    return random.Random(f"kites-{lvl.n}").sample(found, k)


@pytest.mark.parametrize(
    "lvl, sample",
    [(LVL4, None), (LVL5, None), (Level(6), 200), (Level(7), 200), (Level(8), 200)],
    ids=["n4", "n5", "n6-sample", "n7-sample", "n8-sample"],
)
def test_surveyed_kites_equal_build_boxkite_exact_products(lvl, sample):
    if sample is None:
        found = [bk for s in range(1, lvl.g) for bk in survey(lvl, s).kites]
    else:
        found = _seeded_sample(lvl, sample)
    for bk in found:
        assert bk == build_boxkite(lvl, bk.s, bk.zigzag_trip), bk


def test_survey_refuses_a_triangle_with_two_all_red_faces(monkeypatch):
    lvl, s = LVL5, 9
    bk = survey(lvl, s).kites[0]
    los = [v.lo for v in bk.vertices]
    # clear the same-slope bits of the trefoil ADE's two blue edges, so its
    # three edges all read red next to the zigzag's
    same = list(relation(lvl, s).same)
    for u, v in ((0, 3), (0, 4)):
        same[los[u]] &= ~(1 << los[v])
        same[los[v]] &= ~(1 << los[u])

    def doctored(level, t):
        rel = relation(level, t)
        return rel._replace(same=tuple(same)) if t == s else rel

    monkeypatch.setattr(kites, "relation", doctored)
    frame = re.escape(str(bk.strut_pairs()))
    with pytest.raises(ClassificationError, match=rf"^frame {frame}: 4 trip faces but 2 all-red$"):
        survey(lvl, s)
