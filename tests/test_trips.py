import tracemalloc

import pytest
from hypothesis import given, strategies as st

from boxkites.cdp import IndexRangeError, Level, mul_basis
from boxkites.trips import (
    NotTripError,
    Trip,
    cpo_orient,
    enumerate_trips,
    is_trip,
    rule2_expand,
    trip_count,
    trips_to_lines,
)

LVL3, LVL4, LVL5 = Level(3), Level(4), Level(5)

OCTONION_TRIPS = {(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7), (1, 6, 7), (2, 5, 7), (3, 5, 6)}


def test_is_trip_examples():
    assert is_trip(1, 2, 3, LVL3)
    assert not is_trip(1, 2, 4, LVL3)
    assert is_trip(6, 15, 9, LVL4)
    assert not is_trip(0, 5, 5, LVL3)
    assert not is_trip(3, 3, 0, LVL3)
    with pytest.raises(IndexRangeError):
        is_trip(1, 2, 99, LVL3)


def test_is_trip_range_check_builds_no_power_of_two():
    # 1 << 4_000_000_000 alone would take 500 MB
    huge = Level(4_000_000_000)
    tracemalloc.start()
    try:
        assert is_trip(1, 2, 3, huge)
        assert not is_trip(1, 2, 4, huge)
        with pytest.raises(IndexRangeError, match=r"^index -1 out of range for 2\^4000000000-ions$"):
            is_trip(1, 2, -1, huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(IndexRangeError, match=r"^index 8 out of range for 2\^3-ions$"):
        is_trip(1, 2, 8, LVL3)


def test_cpo_orient_examples():
    t = cpo_orient(1, 2, 3, LVL3)
    assert t.cpo() == (1, 2, 3) and t.good
    t = cpo_orient(1, 7, 6, LVL3)
    assert t.indices() == (1, 6, 7) and not t.good
    assert t.cpo() == (1, 7, 6)
    t = cpo_orient(3, 4, 7, LVL3)
    assert t.cpo() == (3, 4, 7) and t.good
    with pytest.raises(NotTripError):
        cpo_orient(1, 2, 4, LVL3)


def test_cpo_rotations_all_positive():
    # a CPO cycle multiplies positively at every adjacency
    for lvl in (LVL3, LVL4):
        for t in enumerate_trips(lvl):
            x, y, z = t.cpo()
            assert tuple(mul_basis(x, y, lvl)) == (1, z)
            assert tuple(mul_basis(y, z, lvl)) == (1, x)
            assert tuple(mul_basis(z, x, lvl)) == (1, y)


def test_enumerate_octonion_trips_exactly():
    got = {t.indices() for t in enumerate_trips(LVL3)}
    assert got == OCTONION_TRIPS


@pytest.mark.parametrize("n,total", [(2, 1), (3, 7), (4, 35), (5, 155), (6, 651)])
def test_enumeration_count_matches_closed_form(n, total):
    trips = enumerate_trips(Level(n))
    tc = trip_count(n)
    assert len(trips) == total == tc.total
    assert sum(1 for t in trips if not t.good) == tc.bad
    assert sum(1 for t in trips if t.good) == tc.good


def test_trip_count_recurrence():
    for n in range(2, 8):
        assert trip_count(n + 1).total == 4 * trip_count(n).total + (1 << n) - 1


@pytest.mark.parametrize(
    "n,good,bad", [(2, 1, 0), (3, 5, 2), (4, 21, 14), (5, 85, 70), (6, 341, 310)]
)
def test_good_bad_split(n, good, bad):
    tc = trip_count(n)
    assert (tc.good, tc.bad) == (good, bad)


def test_bad_octonion_trips_in_cpo():
    bads = sorted(t.cpo() for t in enumerate_trips(LVL3) if not t.good)
    assert bads == [(1, 7, 6), (3, 6, 5)]


def test_good_bad_ratio_descends_to_one():
    ratios = []
    for n in range(3, 9):
        tc = trip_count(n)
        ratios.append(tc.good / tc.bad)
    assert all(r > 1 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_classification_is_level_independent():
    at3 = {t.indices(): t.good for t in enumerate_trips(LVL3)}
    for lvl in (LVL4, LVL5):
        classified = {
            t.indices(): t.good for t in enumerate_trips(lvl) if t.c < 8
        }
        assert classified == at3


@pytest.mark.parametrize(
    "seed,g,expected",
    [
        ((1, 2, 3), 4, [(1, 7, 6), (2, 5, 7), (3, 6, 5)]),
        ((1, 7, 6), 8, [(1, 14, 15), (7, 9, 14), (6, 15, 9)]),
        ((1, 2, 3), 8, [(1, 11, 10), (2, 9, 11), (3, 10, 9)]),
    ],
)
def test_rule2_expand_pinned(seed, g, expected):
    assert rule2_expand(seed, g) == expected


def test_rule2_expand_accepts_trip_objects():
    t = cpo_orient(1, 7, 6, LVL3)
    assert rule2_expand(t, 8) == [(1, 14, 15), (7, 9, 14), (6, 15, 9)]


def test_rule2_expand_errors():
    with pytest.raises(NotTripError):
        rule2_expand((1, 2, 5), 8)
    with pytest.raises(NotTripError):
        rule2_expand((2, 1, 3), 4)  # a trip, but not in CPO
    with pytest.raises(IndexRangeError):
        rule2_expand((1, 7, 6), 4)
    with pytest.raises(ValueError):
        rule2_expand((1, 2, 3), 6)


@given(data=st.data())
def test_rule2_outputs_are_cpo_trips(data):
    lvl = Level(4)
    trips = enumerate_trips(lvl)
    t = data.draw(st.sampled_from(trips))
    out = rule2_expand(t, 16)
    big = Level(5)
    for x, y, z in out:
        assert is_trip(x, y, z, big)
        assert tuple(mul_basis(x, y, big)) == (1, z)


def test_trip_storage_validation():
    with pytest.raises(ValueError):
        Trip(2, 1, 3, True)
    with pytest.raises(ValueError):
        Trip(1, 2, 4, True)


def test_export_lines():
    lines = trips_to_lines(enumerate_trips(LVL3))
    assert lines[0] == "1 2 3 good"
    assert "1 6 7 bad" in lines
    assert len(lines) == 7
    assert lines == sorted(lines, key=lambda ln: tuple(map(int, ln.split()[:3])))
