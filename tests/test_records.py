"""The package's records: immutable named tuples, and those with a
constraint on their fields refuse bad ones however they are built."""

import pickle
import re

import pytest

from boxkites import (
    SLASH,
    Assessor,
    Diagonal,
    IndexRangeError,
    Level,
    Trip,
    build_et,
    cdp,
    classify_sails,
    cpo_orient,
    dmz_pattern,
    edge_color_stats,
    et_stats,
    etable,
    kites,
    mul_basis,
    relation,
    run_suite,
    survey,
    theorems,
    trace_lanyard,
    trip_count,
    trips,
    twist,
    viziers_check,
    zd,
)
from boxkites.kites import ZIGZAG_SIGNATURE

LVL4, LVL5 = Level(4), Level(5)
#: two planes of the sedenion kite of s = 4 that make zero, (i_1 + i_13)(i_2 - i_14) = 0
A, B = Assessor(1, 13, LVL4), Assessor(2, 14, LVL4)


def _kite():
    return survey(LVL4, 4).kites[0]


#: one instance of each public record type, built by the API, and one of its fields
RECORDS = {
    "Level": (lambda: LVL4, "n"),
    "SignedUnit": (lambda: mul_basis(1, 2, LVL4), "sign"),
    "Trip": (lambda: cpo_orient(1, 2, 3, LVL4), "good"),
    "TripCount": (lambda: trip_count(4), "total"),
    "Assessor": (lambda: A, "lo"),
    "Diagonal": (lambda: Diagonal(A, SLASH), "slope"),
    "DmzPattern": (lambda: dmz_pattern(A, B), "same_slope_zero"),
    "Relation": (lambda: relation(LVL4, 4), "zero"),
    "TwistResult": (lambda: twist(Diagonal(A, SLASH), Diagonal(B, -SLASH)), "valid"),
    "BoxKite": (_kite, "blue"),
    "BrokenFrame": (lambda: next(iter(survey(LVL5, 15).broken)), "missing_edges"),
    "SaillessFrame": (lambda: next(iter(survey(LVL5, 1).sailless)), "strut_pairs"),
    "Survey": (lambda: survey(LVL4, 4), "kites"),
    "Sail": (lambda: classify_sails(_kite())[0], "kind"),
    "Lanyard": (lambda: trace_lanyard(_kite(), ZIGZAG_SIGNATURE), "diagonals"),
    "StrutReport": (lambda: viziers_check(_kite()).struts[0], "vz1"),
    "VizierReport": (lambda: viziers_check(_kite()), "kite_type"),
    "EdgeColorStats": (lambda: edge_color_stats(_kite()), "red_edges"),
    "EmanationTable": (lambda: build_et(LVL4, 4), "cells"),
    "EtStats": (lambda: et_stats(build_et(LVL4, 4)), "density"),
    "TheoremResult": (lambda: run_suite(4)[0], "passed"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_field_can_be_neither_set_nor_deleted(name):
    build, field = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_every_public_record_type_is_a_named_tuple():
    # the public classes of the package's modules, but for its errors, the
    # exact element and the lazy view of a survey's frames
    found = {}
    for module in (cdp, trips, zd, kites, etable, theorems):
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and not issubclass(obj, Exception)
                and name not in ("Element", "FrameView")
            ):
                found[name] = obj
    assert set(found) == set(RECORDS)
    for name, cls in found.items():
        assert issubclass(cls, tuple) and cls._fields, name


def test_a_record_is_the_tuple_of_its_fields():
    trip = cpo_orient(1, 2, 3, LVL4)
    assert (len(trip), tuple(trip), trip) == (4, (1, 2, 3, True), (1, 2, 3, True))
    assert hash(A) == hash((1, 13, (4,))) and A == (1, 13, LVL4)
    assert repr(trip) == "Trip(a=1, b=2, c=3, good=True)"
    assert (repr(LVL5), repr(A), repr(Diagonal(A, SLASH))) == (
        "Level(5)",
        "Assessor(1, 13)",
        "Diagonal(1, 13, '/')",
    )


@pytest.mark.parametrize(
    "record, change, error, message",
    [
        (LVL5, {"n": 0}, ValueError, "level exponent must be a positive int: 0"),
        (LVL5, {"n": True}, ValueError, "level exponent must be a positive int: True"),
        (Trip(1, 2, 3, True), {"c": 4}, ValueError, "not closed under XOR: (1, 2, 4)"),
        (Trip(1, 2, 3, True), {"a": 3}, ValueError, "trip must be stored ascending: (3, 2, 3)"),
        (
            Assessor(3, 22, LVL5),
            {"lo": 1.0},
            IndexRangeError,
            "assessor index must be an int: 1.0",
        ),
        (Assessor(3, 22, LVL5), {"lo": 16}, ValueError, "L-index must lie in 1..2^4 - 1: 16"),
        (
            Assessor(3, 22, LVL5),
            {"lvl": LVL4},
            ValueError,
            "U-index must lie in 2^3 + 1..2^4 - 1: 22",
        ),
        (
            Diagonal(A, SLASH),
            {"slope": 0},
            ValueError,
            "slope must be +1 (slash) or -1 (backslash): 0",
        ),
        (
            build_et(LVL4, 4),
            {"cells": bytes(29)},
            ValueError,
            "a 6-cell axis needs 36 cell codes: 29",
        ),
    ],
    ids=[
        "level-0",
        "level-bool",
        "trip-open",
        "trip-unsorted",
        "lo-float",
        "lo-high",
        "level-down",
        "slope-0",
        "et-cells-cut",
    ],
)
def test_a_bad_field_is_refused_on_every_construction_path(record, change, error, message):
    # namedtuple's own _make builds with tuple.__new__, past any check, and
    # _replace builds through _make: both must reach the constructor's refusal
    cls = type(record)
    fields = [change.get(name, value) for name, value in zip(cls._fields, record)]
    for build in (
        lambda: cls(*fields),
        lambda: cls(**dict(zip(cls._fields, fields))),
        lambda: cls._make(fields),
        lambda: cls._make(iter(fields)),
        lambda: record._replace(**change),
    ):
        with pytest.raises(error, match=re.escape(message)):
            build()


@pytest.mark.parametrize(
    "record",
    [LVL5, Trip(1, 2, 3, True), Assessor(3, 22, LVL5), Diagonal(A, -SLASH), build_et(LVL4, 4)],
    ids=["Level", "Trip", "Assessor", "Diagonal", "EmanationTable"],
)
def test_a_checked_record_round_trips_through_pickle_and_replace(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert (type(back), back, repr(back)) == (type(record), record, repr(record))
    same = record._replace()
    assert (type(same), same) == (type(record), record)
    with pytest.raises(ValueError, match="unexpected field names"):
        record._replace(nope=1)
