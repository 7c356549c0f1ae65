"""Exact Cayley-Dickson arithmetic and zero-divisor structure search.

Sign-exact basis products for the 2^n-ions, associative-triplet
catalogs, zero-divisor detection (assessor planes, annihilation
patterns, emanation, twist products), box-kite construction and census,
and emanation-table rendering, all over exact integer arithmetic.
"""

from .cdp import (
    Coeff,
    Element,
    IndexRangeError,
    InvariantError,
    Level,
    SignedUnit,
    conjugate,
    mul_basis,
    mul_element,
    sign_table,
)
from .etable import (
    EmanationTable,
    EtStats,
    build_et,
    et_stats,
    flipbook,
    parse_text,
    render_csv,
    render_image,
    render_text,
)
from .kites import (
    BLUE,
    RED,
    BoxKite,
    BrokenChainError,
    BrokenFrame,
    BrokenFrameError,
    ClassificationError,
    EdgeColorStats,
    Lanyard,
    NotZigzagError,
    Sail,
    StrutCollisionError,
    Survey,
    VizierReport,
    blue_hexagon,
    build_boxkite,
    classify_sails,
    edge_color_stats,
    survey,
    trace_lanyard,
    viziers_check,
)
from .theorems import TheoremResult, run_suite
from .trips import (
    NotTripError,
    Trip,
    TripCount,
    cpo_orient,
    enumerate_trips,
    is_trip,
    rule2_expand,
    trip_count,
    trips_to_lines,
)
from .zd import (
    BACKSLASH,
    SLASH,
    Assessor,
    Diagonal,
    DmzPattern,
    NotDmzError,
    Relation,
    TwistResult,
    cluster_assessors,
    diagonal_product,
    dmz_pattern,
    dmz_report,
    dmz_scan,
    emanate,
    enumerate_assessors,
    relation,
    theorem1_check,
    theorem2_check,
    theorem3_check,
    theorem4_check,
    twist,
)

__version__ = "0.1.0"
