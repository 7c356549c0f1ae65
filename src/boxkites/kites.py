"""Box-kites: six assessors on an octahedral frame, every edge making zero.

A frame is fixed by the ambient level and a strut constant s below the
generator: the low indices other than s pair off into three struts (the
two ends of a strut XOR to s), every vertex's U-index is its L-index
XORed with generator + s, and the twelve non-strut edges must all be
DMZ.  Vertices are labeled so that the all-red sail reads A, B, C in
cyclically positive order with A the smallest of the three; opposite
ends of the struts are then F, E, D respectively.

Edge colors record the annihilation pattern: RED for edges whose
opposite-slope diagonal pairings make zero, BLUE for same-slope ones.

A frame's twelve edges are the four cross edges of each of its three
strut pairs, so it fully annihilates exactly when its three struts are
pairwise compatible (no silent cross edge), a triangle of the strut
graph.  The survey keeps one bitmask of compatible struts per strut, in
a list indexed by the strut's lower end, read off the cluster's
``zd.relation``.  It finds the triangles as common neighbours, walking
each mask's set bits lowest first, and builds each kite from its
triangle by index arithmetic: its zigzag from four int flags, one per
trip face, its labels from one sign-table read, its colours from one
read each of the relation's ``same`` mask (``survey`` has the proofs),
and builds no plane.  Broken and sailless frames are counted and built
only when asked for.  The survey hands the relation on with its kites
(``Survey.relation``), so the theorem suite, which walks the clusters
once, reads each cluster's relation without building it again.

``build_boxkite`` checks one frame by exact products, the oracle the
survey is tested against.  ``classify_sails`` re-derives a kite's four
sails with ``is_trip`` and checks its colours: it is the oracle of what
the theorem suite proves of every surveyed kite from word laws on the
cluster's relation (``theorems._strut_laws``), reading no kite record.

A kite is an index record: the six L-indices of its vertices in label
order, and a 12-bit word with bit e set when edge ``EDGE_LABEL_PAIRS[e]``
is BLUE, so a vertex or an edge is read by its slot.  Every U-index
follows from its L-index as lo ^ (g + s), and the six ``Assessor``
planes are built only when a caller reads them, on each read.

Kites, frames, surveys, sails, lanyards and the reports are named
tuples (see ``cdp``): a kite is also the tuple (lvl, s, los, blue).
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator
from itertools import combinations, product
from math import comb
from typing import NamedTuple

from . import cdp
from .cdp import InvariantError, Level, mul_basis
from .trips import cpo_orient, is_trip
from .zd import (
    BACKSLASH,
    SLASH,
    Assessor,
    Diagonal,
    Relation,
    _xor_permute,
    cluster,
    diagonal_product,
    dmz_pattern,
    relation,
)

RED = "RED"
BLUE = "BLUE"

LABELS = ("A", "B", "C", "D", "E", "F")
STRUT_LABEL_PAIRS = (("A", "F"), ("B", "E"), ("C", "D"))
EDGE_LABEL_PAIRS = tuple(p for p in combinations(LABELS, 2) if p not in STRUT_LABEL_PAIRS)

#: each label's vertex position, and each edge's position under either order of its labels
_VERTEX_AT = {label: i for i, label in enumerate(LABELS)}
_EDGE_AT = {pair: i for i, (x, y) in enumerate(EDGE_LABEL_PAIRS) for pair in ((x, y), (y, x))}

#: the three squares of the octahedron, each named by its mast strut
CATAMARAN_SQUARES = (
    (("A", "F"), ("B", "C", "E", "D")),
    (("B", "E"), ("A", "C", "F", "D")),
    (("C", "D"), ("A", "B", "F", "E")),
)

ZIGZAG_SIGNATURE = "/\\/\\/\\"
TREFOIL_SIGNATURE = "///\\\\\\"
CATAMARAN_SIGNATURE = "//\\\\"

ZIGZAG = "ZIGZAG"
TREFOIL = "TREFOIL"
_SAIL_SLOTS = (("A", "B", "C"), ("A", "D", "E"), ("F", "D", "B"), ("F", "C", "E"))

#: each edge's two vertex positions and its (l1, l2, colour) row under either
#: colour, [RED row, BLUE row]: the 24 rows every surveyed kite's edges share
_EDGE_ROWS = tuple(
    (_VERTEX_AT[l1], _VERTEX_AT[l2], ((l1, l2, RED), (l1, l2, BLUE)))
    for l1, l2 in EDGE_LABEL_PAIRS
)

TYPE_I = "I"
TYPE_II = "II"
TYPE_OTHER = "other"


class StrutCollisionError(ValueError):
    """A seed trip contains the strut constant, so two of its members
    would sit on the same strut."""


class NotZigzagError(ValueError):
    """A seed trip whose edges are not all red cannot label the frame."""


class BrokenFrameError(ValueError):
    """Some required edge of a candidate frame makes no zero."""

    def __init__(self, message: str, missing=()):
        super().__init__(message)
        self.missing = tuple(missing)


class ClassificationError(RuntimeError):
    """A sound frame failed a structural identification that every valid
    box-kite satisfies; worth studying, not silently skipping."""


class BrokenChainError(ValueError):
    """No diagonal assignment closes the requested lanyard."""


class BoxKite(NamedTuple):
    """Immutable labeled frame, held as indices.

    ``los`` holds the L-indices of A..F, and each vertex is the plane
    (lo, lo ^ (g + s)) of the cluster of s.  Bit e of ``blue`` is set when
    edge ``EDGE_LABEL_PAIRS[e]`` is BLUE and clear when it is RED.  The
    ``Assessor`` vertices are built on each read, none kept: the record
    is the tuple (lvl, s, los, blue), of which the vertices and the
    colours are functions.
    """

    lvl: Level
    s: int
    los: tuple[int, ...]
    blue: int

    @property
    def g(self) -> int:
        return self.lvl.g

    @property
    def x(self) -> int:
        """Generator plus strut constant; every vertex has lo ^ hi = x."""
        return self.g + self.s

    @property
    def vertices(self) -> tuple[Assessor, ...]:
        """The six planes in label order, built on each read."""
        x, lvl = self.x, self.lvl
        return tuple([Assessor(lo, lo ^ x, lvl) for lo in self.los])

    @property
    def edge_colors(self) -> tuple[tuple[str, str, str], ...]:
        """(l1, l2, colour) per edge, in the order of EDGE_LABEL_PAIRS."""
        blue = self.blue
        return tuple([rows[blue >> e & 1] for e, (_, _, rows) in enumerate(_EDGE_ROWS)])

    def assessor(self, label: str) -> Assessor:
        """The plane of one vertex, built alone."""
        lo = self.los[_VERTEX_AT[label]]
        return Assessor(lo, lo ^ self.x, self.lvl)

    @property
    def zigzag_trip(self) -> tuple[int, int, int]:
        return self.los[:3]

    def strut_pairs(self) -> tuple[tuple[int, int], ...]:
        """L-index pairs of the three struts, each (p, p ^ s) with p the
        lower end, in order of p.

        Strut opposites sit at positions i and 5 - i (A-F, B-E, C-D) and
        their L-indices XOR to s, so a strut's lower end is the smaller of
        the two and the other end is that one XOR s; only the three lower
        ends are sorted.
        """
        a, b, c, d, e, f = self.los
        s = self.s
        return tuple([(p, p ^ s) for p in sorted([min(a, f), min(b, e), min(c, d)])])

    def edge_color(self, l1: str, l2: str) -> str:
        try:
            e = _EDGE_AT[l1, l2]
        except KeyError:
            raise KeyError(f"{l1}-{l2} is not an edge (strut pairs have none)") from None
        return BLUE if self.blue >> e & 1 else RED

    def dump(self) -> str:
        """Deterministic text form: header, six vertices, twelve edges."""
        x = self.x
        lines = [f"{self.lvl.n} {self.s}"]
        lines += [f"{label} {lo} {lo ^ x}" for label, lo in zip(LABELS, self.los)]
        lines += [f"{l1} {l2} {color}" for l1, l2, color in self.edge_colors]
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"BoxKite(n={self.lvl.n}, s={self.s}, zigzag={self.zigzag_trip})"


def _canonical_zigzag(lvl: Level, s: int, trip) -> tuple[int, int, int]:
    seed = tuple(trip)
    if len(seed) != 3:
        raise ValueError(f"zigzag seed must have three indices: {seed!r}")
    for k in seed:
        if not 0 < k < lvl.g:
            raise ValueError(f"zigzag index {k} must lie below the generator {lvl.g}")
    t = cpo_orient(*seed, lvl)
    if s in t.indices():
        raise StrutCollisionError(
            f"trip {t.indices()} contains the strut constant {s}, so two of its "
            "members are strut-opposite"
        )
    return t.cpo()


def build_boxkite(lvl: Level, s: int, zigzag_trip) -> BoxKite:
    """Assemble and fully check the frame whose all-red sail is the seed trip.

    The trip is taken in CPO, which leads with its smallest index; strut
    opposites follow by XOR with s and their planes from the cluster of s.
    Every one of the twelve edges is then decided by exact products: a
    frame with any silent edge is rejected as broken, and a seed whose
    own three edges are not all red is not the zigzag.
    """
    plane = {a.lo: a for a in cluster(lvl, s)}
    return _assemble(lvl, s, zigzag_trip, lambda u, v: dmz_pattern(plane[u], plane[v]))


def _assemble(lvl: Level, s: int, zigzag_trip, decide) -> BoxKite:
    """build_boxkite with its edges decided by decide(lo1, lo2), which
    answers for the planes of s with those L-indices with a DmzPattern,
    or None for no zero."""
    a, b, c = _canonical_zigzag(lvl, s, zigzag_trip)
    los = (a, b, c, c ^ s, b ^ s, a ^ s)  # A B C D E F
    blue = 0
    missing: list[tuple[str, str]] = []
    for e, (i, j, _) in enumerate(_EDGE_ROWS):
        pat = decide(los[i], los[j])
        if pat is None:
            missing.append(EDGE_LABEL_PAIRS[e])
        elif pat.same_slope_zero:
            blue |= 1 << e
    if missing:
        raise BrokenFrameError(
            f"{len(missing)} of 12 edges make no zero at n={lvl.n}, s={s}: {missing}",
            missing,
        )
    for pair in (("A", "B"), ("A", "C"), ("B", "C")):
        if blue >> _EDGE_AT[pair] & 1:
            raise NotZigzagError(f"seed trip {(a, b, c)} has a {BLUE} edge {pair}; not the zigzag")
    return BoxKite(lvl, s, los, blue)


class BrokenFrame(NamedTuple):
    """Candidate frame whose edges did not all make zero."""

    s: int
    strut_pairs: tuple[tuple[int, int], ...]
    missing_edges: tuple[tuple[int, int], ...]


class SaillessFrame(NamedTuple):
    """Candidate frame whose edges all make zero but whose faces carry no
    trips, so no sail structure and no A..F labeling exists.

    These show up from 32 dimensions on, where low strut constants make
    every non-strut plane pair annihilate regardless of trip structure.
    """

    s: int
    strut_pairs: tuple[tuple[int, int], ...]


class FrameView:
    """The frames of one kind that a survey found, counted but not built.

    ``len`` is the count the survey made; iterating builds the frames one
    at a time, in the order of their strut triples.  Two views are equal
    when they yield equal frames.
    """

    __slots__ = ("_count", "_frames")

    def __init__(self, count: int, frames: Callable[[], Iterator]):
        self._count = count
        self._frames = frames

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator:
        return self._frames()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameView):
            return NotImplemented
        return self._count == other._count and all(map(operator.eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"FrameView({self._count} frames)"


class Survey(NamedTuple):
    """One strut constant's kites, its broken and sailless frames, and the
    cluster's relation they were read from, which a caller reads on
    rather than building it again."""

    kites: tuple[BoxKite, ...]
    broken: FrameView  # of BrokenFrame
    sailless: FrameView  # of SaillessFrame
    relation: Relation


def survey(lvl: Level, s: int) -> Survey:
    """Exhaustive hunt over strut triples for one strut constant.

    Low indices other than s pair off into struts {p, p ^ s}, named here
    by their lower end p; every choice of three struts is a candidate
    frame, and its twelve edges are the cross edges of its three strut
    pairs.  Every plane pair of the cluster is decided by one
    ``zd.relation`` call, and the survey returns that relation with its
    kites and frames.  Two struts are compatible when their four
    cross edges all make zero, and each strut keeps the mask of the
    struts compatible with it.  A frame is broken exactly when two of
    its struts are incompatible; otherwise it is a triangle of the strut
    graph and fully annihilates.  The masks sit in a list indexed by the
    lower end.  Triangles are enumerated as the common neighbours of each
    compatible pair: for each end p, the set bits q > p of its mask are
    peeled off lowest first (q is the bit length of mask & -mask, less
    one), and the ends above q in both masks close a triangle each, so
    each triangle p < q < r is met once, by its two lowest struts.  A
    triangle becomes a box-kite when one of its faces is an all-red trip
    (the zigzag, which fixes the labeling) and is sailless when no face
    is a trip.

    Faces are told by index arithmetic.  A face takes one end of each of
    the struts {p, p^s}, {q, q^s} and {r, r^s}, so its three indices XOR
    to p^q^r when it takes an even number of upper ends and to p^q^r^s
    otherwise, and it is a trip exactly when they XOR to 0.  A lower end
    is an index whose bit at the top bit of s is clear (the highest bit
    where k and k^s differ), so p^q^r has that bit clear too and is
    never s.  Hence a triangle has trip faces iff r = p^q, that is iff
    its third strut holds p^q, and then exactly the four faces with an
    even number of upper ends are trips.  As p and q are distinct lower
    ends, p^q is nonzero, is neither p nor q, and has that bit clear, so
    it is the lower end of a third strut.  So two kites never share an
    edge: an edge's two planes lie on two struts, and these fix the
    third, so the edge names its kite (``theorems._t6`` rests on this).

    Each kite is built from its triangle (p, q, r = p^q) by index
    arithmetic, and is the kite ``_assemble`` builds from the all-red
    face and ``Relation.pattern`` (tests/test_kites.py holds the two
    equal, and both to ``build_boxkite``'s exact products).  Write P, Q,
    R for the upper ends p^s, q^s, r^s.

    *Zigzag.*  The four trip faces are (p,q,r), (p,Q,R), (P,q,R) and
    (P,Q,r), and between them they hold each of the twelve cross edges
    once.  Every cross edge of a triangle makes zero, so an edge is RED
    exactly when its bit in ``same`` is clear, and the zigzag is the one
    face with no ``same`` bit on its three edges.  Each face gets one int
    flag, the OR of its three edges' ``same`` bits, so the all-red faces
    number 4 less the sum of the flags.  A triangle with any other
    number of all-red faces than one is no box-kite anyone has
    described, and raises ClassificationError, a raise that runs under
    ``python -O`` too.

    *Orientation.*  Sort the zigzag as (x, y, z), so x ^ y = z, and let
    t(x, y) be the sign of i_x i_y.  ``cpo_orient`` stores it as
    Trip(x, y, z) with good = t(x, y) > 0, whose CPO is (x, y, z) when
    good and (x, z, y) otherwise, so A, B, C is (x, y, z) when
    t(x, y) > 0 and (x, z, y) otherwise: one read of the exact sign
    table, bit y of row x, set when t(x, y) = -1.  It is read from the
    top level's rows (``cdp._ROWS``), with no level's corner sliced
    (``cdp.sign_table``): that corner's row x is the same row masked to
    2^n bits, and y < g < 2^n.  The seed checks ``_canonical_zigzag``
    makes hold already: every strut end lies in 1..g-1 and none is s
    (s ^ s = 0 is below s, so s is no lower end, and k ^ s is s only
    for k = 0).  As in ``_assemble``, D, E, F = C^s, B^s, A^s.

    *Colours.*  ``_assemble`` colours edge (u, v) BLUE when
    ``Relation.pattern(u, v)`` is a same-slope zero, and that pattern is
    bit v of ``same[u]`` whenever bit v of ``zero[u]`` is set, which the
    triangle proves for all twelve edges.  So each colour is one read of
    ``same[u] >> v & 1``, written to bit e of the kite's ``blue`` word for
    edge ``EDGE_LABEL_PAIRS[e]``, as ``_assemble`` writes it.  Neither
    BrokenFrameError (no edge is silent) nor NotZigzagError (the zigzag's
    edges are red by its choice) can arise.  The (los, blue) pairs are
    sorted by los, distinct for distinct kites, and the records are built
    in that order.

    Broken and sailless frames are counted (broken = C(m, 3) - triangles
    over m struts) and built only when their views are iterated, broken
    frames with their silent cross edges, each edge's end on the earlier
    strut first.  Broken frames are the raw material of hidden
    emanation-table cells.
    """
    zero, same = rel = relation(lvl, s)
    g = lvl.g
    negative = cdp._ROWS  # bit y of row x is set when t(x, y) = -1
    ends = [p for p in range(1, g) if p < p ^ s]
    end_mask = sum(1 << p for p in ends)
    # compatible[p]: the ends q whose strut meets {p, p^s} in four zero edges.
    # both has bit b when p and p^s each make zero with b; permuted by
    # XOR with s it has bit q where both has bit q^s
    compatible = [0] * g
    for p in ends:
        both = zero[p] & zero[p ^ s]
        compatible[p] = both & _xor_permute(both, s, g) & end_mask

    triangles = 0
    found: list[tuple[tuple[int, ...], int]] = []  # (los, blue) per kite
    for p in ends:
        at_p = compatible[p]
        rest = at_p >> p + 1 << p + 1
        while rest:
            low = rest & -rest
            rest ^= low
            q = low.bit_length() - 1
            common = at_p & compatible[q] >> q + 1 << q + 1
            triangles += common.bit_count()
            r = p ^ q
            if not common >> r & 1:
                continue
            P, Q, R = p ^ s, q ^ s, r ^ s
            sp, sP, sq, sQ = same[p], same[P], same[q], same[Q]
            # one flag per trip face, set when any of its three edges is BLUE
            pqr = (sp >> q | sp >> r | sq >> r) & 1
            pQR = (sp >> Q | sp >> R | sQ >> R) & 1
            PqR = (sP >> q | sP >> R | sq >> R) & 1
            PQr = (sP >> Q | sP >> r | sQ >> r) & 1
            if pqr + pQR + PqR + PQr != 3:
                raise ClassificationError(
                    f"frame {((p, P), (q, Q), (r, R))}: 4 trip faces but "
                    f"{4 - pqr - pQR - PqR - PQr} all-red"
                )
            zigzag = (
                (p, q, r) if not pqr else (p, Q, R) if not pQR else (P, q, R) if not PqR else (P, Q, r)
            )
            x, y, z = sorted(zigzag)
            # bit y of row x of the top level's table is the same bit of
            # sign_table(n)'s row x, its corner masked to 2^n bits, as x, y < g
            a, b, c = (x, z, y) if negative[x] >> y & 1 else (x, y, z)
            d, e, f = c ^ s, b ^ s, a ^ s
            sa, sb, sc, sd = same[a], same[b], same[c], same[d]
            # bit e is edge EDGE_LABEL_PAIRS[e]: AB AC AD AE BC BD BF CE CF DE DF EF
            blue = (
                sa >> b & 1
                | (sa >> c & 1) << 1
                | (sa >> d & 1) << 2
                | (sa >> e & 1) << 3
                | (sb >> c & 1) << 4
                | (sb >> d & 1) << 5
                | (sb >> f & 1) << 6
                | (sc >> e & 1) << 7
                | (sc >> f & 1) << 8
                | (sd >> e & 1) << 9
                | (sd >> f & 1) << 10
                | (same[e] >> f & 1) << 11
            )
            found.append(((a, b, c, d, e, f), blue))
    found.sort()  # by los: by the zigzag los[:3], which fixes it
    kites = tuple([BoxKite(lvl, s, los, blue) for los, blue in found])

    def frames(broken: bool) -> Iterator:
        for triple in combinations(ends, 3):
            p, q, r = triple
            fits = compatible[p] >> q & compatible[p] >> r & compatible[q] >> r & 1
            if broken and not fits:
                silent = [
                    (u, v)
                    for a, b in combinations(triple, 2)
                    for u, v in product((a, a ^ s), (b, b ^ s))
                    if not zero[u] >> v & 1
                ]
                yield BrokenFrame(s, tuple((k, k ^ s) for k in triple), tuple(sorted(silent)))
            elif not broken and fits and p ^ q != r:
                yield SaillessFrame(s, tuple((k, k ^ s) for k in triple))

    return Survey(
        kites,
        FrameView(comb(len(ends), 3) - triangles, lambda: frames(True)),
        FrameView(triangles - len(kites), lambda: frames(False)),
        rel,
    )


class Sail(NamedTuple):
    """A face whose three assessors mutually make zero."""

    kind: str
    labels: tuple[str, str, str]
    l_trip: tuple[int, int, int]
    u_trips: tuple[tuple[int, int, int], ...]

    @property
    def slot(self) -> str:
        """Lowercase label pattern: abc, ade, fdb, or fce."""
        return "".join(self.labels).lower()

    @property
    def trips(self) -> tuple[tuple[int, int, int], ...]:
        return (self.l_trip,) + self.u_trips


def classify_sails(bk: BoxKite) -> tuple[Sail, Sail, Sail, Sail]:
    """The four sails: the all-red zigzag plus three trefoils.

    Edge colors are re-checked against the required patterns (zigzag all
    red; each trefoil blue on the two edges at its shared zigzag vertex,
    red opposite it) and all four triples per sail are verified to be
    genuine trips.  Any mismatch raises ClassificationError, since it
    would void the frame's claim to be a box-kite.
    """
    out = []
    for slot in _SAIL_SLOTS:
        kind = ZIGZAG if slot == ("A", "B", "C") else TREFOIL
        assrs = [bk.assessor(lbl) for lbl in slot]
        lo = tuple(a.lo for a in assrs)
        hi = tuple(a.hi for a in assrs)
        u_trips = ((lo[0], hi[1], hi[2]), (hi[0], lo[1], hi[2]), (hi[0], hi[1], lo[2]))
        if kind == ZIGZAG:
            wanted = {pr: RED for pr in combinations(slot, 2)}
        else:
            shared = next(lbl for lbl in slot if lbl in ("A", "B", "C"))
            wanted = {
                pr: (BLUE if shared in pr else RED) for pr in combinations(slot, 2)
            }
        for (l1, l2), want in wanted.items():
            got = bk.edge_color(l1, l2)
            if got != want:
                raise ClassificationError(
                    f"sail {slot}: edge {l1}-{l2} is {got}, expected {want}"
                )
        for t in (lo,) + u_trips:
            if not is_trip(*t, bk.lvl):
                raise ClassificationError(f"sail {slot} carries a non-trip {t}")
        out.append(Sail(kind, slot, lo, u_trips))
    return tuple(out)


class Lanyard(NamedTuple):
    """Closed chain of diagonals in which every consecutive pair makes zero."""

    signature: str
    labels: tuple[str, ...]
    diagonals: tuple[Diagonal, ...]

    def distinct_diagonals(self) -> int:
        return len(set(self.diagonals))


_SLOPE_OF = {"/": SLASH, "\\": BACKSLASH}


def blue_hexagon(bk: BoxKite) -> tuple[str, ...]:
    """Vertex cycle of the six same-slope edges, found by walking.

    Starts at A and prefers the alphabetically first unvisited blue
    neighbor, so the answer is deterministic.
    """
    adj: dict[str, list[str]] = {lbl: [] for lbl in LABELS}
    for l1, l2, color in bk.edge_colors:
        if color == BLUE:
            adj[l1].append(l2)
            adj[l2].append(l1)
    for lbl in adj:
        adj[lbl].sort()
    cycle = ["A"]
    while len(cycle) < 6:
        step = [lbl for lbl in adj[cycle[-1]] if lbl not in cycle]
        if not step:
            raise ClassificationError("blue edges do not form a single hexagon")
        cycle.append(step[0])
    if "A" not in adj[cycle[-1]]:
        raise ClassificationError("blue edges do not close into a hexagon")
    return tuple(cycle)


def _default_cycle(bk: BoxKite, signature: str) -> tuple[str, ...]:
    if signature == ZIGZAG_SIGNATURE:
        return ("A", "B", "C", "A", "B", "C")
    if signature == TREFOIL_SIGNATURE:
        return ("A", "D", "E", "A", "D", "E")
    if signature == CATAMARAN_SIGNATURE:
        return ("B", "C", "E", "D")
    if set(signature) in ({"/"}, {"\\"}) and len(signature) == 6:
        return blue_hexagon(bk)
    raise ValueError(f"no default vertex cycle for signature {signature!r}; pass labels")


def trace_lanyard(bk: BoxKite, signature: str, labels: tuple[str, ...] | None = None) -> Lanyard:
    """Thread diagonals around a vertex cycle so every step makes zero.

    The signature is a cyclic slope string; it is slid against the cycle
    through every rotation until one closes, meaning each consecutive
    product, wrap included, is exactly zero.  Default cycles: the zigzag
    runs A B C twice, the trefoil A D E twice, the catamaran rounds the
    B C E D square, and a monochrome six-character signature walks the
    blue hexagon.  Raises BrokenChainError when nothing closes.
    """
    try:
        slopes = [_SLOPE_OF[ch] for ch in signature]
    except KeyError:
        raise ValueError(f"signature may contain only '/' and '\\': {signature!r}") from None
    if labels is None:
        labels = _default_cycle(bk, signature)
    labels = tuple(labels)
    if len(labels) != len(signature):
        raise ValueError(f"cycle length {len(labels)} != signature length {len(signature)}")
    verts = [bk.assessor(lbl) for lbl in labels]
    m = len(slopes)
    for r in range(m):
        diags = [Diagonal(verts[i], slopes[(i + r) % m]) for i in range(m)]
        if all(diagonal_product(diags[i], diags[(i + 1) % m]).is_zero() for i in range(m)):
            return Lanyard(signature, labels, tuple(diags))
    raise BrokenChainError(f"no rotation of {signature!r} closes over {labels}")


class StrutReport(NamedTuple):
    """Orientation flags for one strut's three triplet families.

    Each pair of flags covers the family's two triplets in the order
    written in viziers_check; a flag is True when the product of the
    first two members lands positively on the third.
    """

    zig_label: str
    vent_label: str
    vz1: tuple[bool, bool]
    vz2: tuple[bool, bool]
    vz3: tuple[bool, bool]

    @property
    def fully_oriented(self) -> bool:
        return all(self.vz1) and all(self.vz2) and all(self.vz3)

    @property
    def reversed_vz1(self) -> bool:
        return not self.vz1[0]


class VizierReport(NamedTuple):
    struts: tuple[StrutReport, ...]
    kite_type: str


def viziers_check(bk: BoxKite) -> VizierReport:
    """Orientation report for the strut-spanning triplet families.

    With (z, Z) a zigzag vertex's L- and U-index and (v, V) those of its
    strut opposite, the families are (v,z,S);(V,Z,S), then
    (V,z,G);(Z,v,G), then (V,v,X);(z,Z,X).  The XOR identities behind
    all six always hold and are checked; the flags record which
    products come out positively oriented.  A kite is type I when every
    strut orients fully, type II when exactly two struts flip the first
    family.
    """
    lvl, g, s, x = bk.lvl, bk.g, bk.s, bk.x
    reports = []
    for zl, vl in STRUT_LABEL_PAIRS:
        zig, vent = bk.assessor(zl), bk.assessor(vl)
        z, z_u = zig.lo, zig.hi
        v, v_u = vent.lo, vent.hi
        if (v ^ z, v_u ^ z_u, v_u ^ z, z_u ^ v, v_u ^ v, z ^ z_u) != (s, s, g, g, x, x):
            raise InvariantError(f"strut {zl}-{vl} breaks the XOR identities of its families")
        reports.append(
            StrutReport(
                zl,
                vl,
                vz1=(mul_basis(v, z, lvl).sign > 0, mul_basis(v_u, z_u, lvl).sign > 0),
                vz2=(mul_basis(v_u, z, lvl).sign > 0, mul_basis(z_u, v, lvl).sign > 0),
                vz3=(mul_basis(v_u, v, lvl).sign > 0, mul_basis(z, z_u, lvl).sign > 0),
            )
        )
    flipped = sum(r.reversed_vz1 for r in reports)
    if all(r.fully_oriented for r in reports):
        kite_type = TYPE_I
    elif flipped == 2:
        kite_type = TYPE_II
    else:
        kite_type = TYPE_OTHER
    return VizierReport(tuple(reports), kite_type)


class EdgeColorStats(NamedTuple):
    red_edges: tuple[tuple[str, str], ...]
    blue_edges: tuple[tuple[str, str], ...]

    @property
    def red(self) -> int:
        return len(self.red_edges)

    @property
    def blue(self) -> int:
        return len(self.blue_edges)


def edge_color_stats(bk: BoxKite) -> EdgeColorStats:
    """Split the twelve edges by color; a sound frame shows six of each."""
    red = tuple((l1, l2) for l1, l2, c in bk.edge_colors if c == RED)
    blue = tuple((l1, l2) for l1, l2, c in bk.edge_colors if c == BLUE)
    return EdgeColorStats(red, blue)
