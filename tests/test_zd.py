import functools
import pickle
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, strategies as st

from boxkites import cdp, etable, kites, theorems, zd
from boxkites.cdp import (
    Element,
    IndexRangeError,
    Level,
    _basis_sign,
    mul_basis,
    mul_element,
    sign_table,
)
from boxkites.trips import enumerate_trips, is_trip
from boxkites.zd import (
    BACKSLASH,
    SLASH,
    Assessor,
    Diagonal,
    DmzPattern,
    NotDmzError,
    Relation,
    check_strut,
    cluster,
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

LVL4, LVL5 = Level(4), Level(5)


def A4(lo, hi):
    return Assessor(lo, hi, LVL4)


def test_assessor_validation():
    A4(1, 13)
    with pytest.raises(ValueError):
        A4(0, 13)
    with pytest.raises(ValueError):
        A4(8, 13)
    with pytest.raises(ValueError):
        A4(1, 8)  # the generator itself is no U-index
    with pytest.raises(ValueError):
        Assessor(1, 9, LVL5)  # 9 sits below the level-5 generator
    with pytest.raises(ValueError, match=r"^L-index must lie in 1\.\.2\^3 - 1: -1$"):
        A4(-1, 13)
    with pytest.raises(ValueError, match=r"^U-index must lie in 2\^3 \+ 1\.\.2\^4 - 1: 16$"):
        A4(1, 16)
    with pytest.raises(ValueError, match=r"^U-index must lie in 2\^3 \+ 1\.\.2\^4 - 1: -13$"):
        A4(1, -13)
    for lo, hi in ((1.5, 17), (True, 17), (1, 17.0), (1, "17")):
        with pytest.raises(IndexRangeError):
            Assessor(lo, hi, LVL5)


def test_assessor_range_checks_build_no_power_of_two():
    # 1 << 4_000_000_000 alone would take 500 MB
    huge = Level(4_000_000_000)
    tracemalloc.start()
    try:
        for lo, hi in ((1, 3), (0, 3), (3, 1), (1, 2**27 + 1)):
            with pytest.raises(ValueError, match=r"-index must lie in "):
                Assessor(lo, hi, huge)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_assessor_identity_ignores_its_built_diagonals():
    a, twin = Assessor(3, 22, LVL5), Assessor(3, 22, LVL5)
    before = (repr(a), hash(a), a == twin)
    assert a.diagonals == (Element({3: 1, 22: 1}), Element({3: 1, 22: -1}))
    assert a.element(SLASH) == a.diagonals[0] and a.element(BACKSLASH) == a.diagonals[1]
    assert (repr(a), hash(a), a == twin) == before == ("Assessor(3, 22)", hash(twin), True)
    assert {a: 1}[twin] == 1 and pickle.loads(pickle.dumps(a)) == a


def test_diagonal_validation():
    a = A4(1, 13)
    Diagonal(a, SLASH)
    with pytest.raises(ValueError):
        Diagonal(a, 0)


def test_diagonal_product_examples():
    a, b, f = A4(1, 13), A4(2, 14), A4(5, 9)
    assert diagonal_product(Diagonal(a, SLASH), Diagonal(b, BACKSLASH)).is_zero()
    assert not diagonal_product(Diagonal(a, SLASH), Diagonal(b, SLASH)).is_zero()
    for s1 in (SLASH, BACKSLASH):
        for s2 in (SLASH, BACKSLASH):
            assert not diagonal_product(Diagonal(a, s1), Diagonal(f, s2)).is_zero()


def test_diagonal_product_level_mismatch():
    with pytest.raises(ValueError):
        diagonal_product(Diagonal(A4(1, 13), SLASH), Diagonal(Assessor(1, 29, LVL5), SLASH))


def test_dmz_pattern_examples():
    pat = dmz_pattern(A4(1, 13), A4(2, 14))
    assert pat is not None and not pat.same_slope_zero and pat.word == "opposite"
    assert dmz_pattern(A4(1, 13), A4(5, 9)) is None  # strut opposites
    with pytest.raises(ValueError):
        dmz_pattern(A4(1, 13), A4(1, 13))


def test_dmz_pattern_level_and_self_pairing_contract(monkeypatch):
    a, b = Assessor(1, 21, LVL5), Assessor(2, 22, LVL5)
    twin_level = Level(5)
    assert twin_level == LVL5 and twin_level is not LVL5
    # equal but distinct levels are one level
    assert dmz_pattern(a, Assessor(2, 22, twin_level)) == dmz_pattern(a, b) is not None
    refusal = r"^operands live at different levels: Level\(4\) vs Level\(5\)$"
    with pytest.raises(ValueError, match=refusal):
        dmz_pattern(A4(1, 13), a)
    # an equal plane is the same plane, whatever object carries it
    for twin in (Assessor(1, 21, LVL5), Assessor(1, 21, twin_level)):
        assert twin is not a and twin == a
        with pytest.raises(ValueError, match="^an assessor cannot be paired with itself$"):
            dmz_pattern(a, twin)
    # the four exact products, in slope order (/,/), (/,\), (\,/), (\,\)
    seen = []
    kernel = zd.mul_element

    def recording(x, y, lvl):
        seen.append((x, y))
        return kernel(x, y, lvl)

    monkeypatch.setattr(zd, "mul_element", recording)
    dmz_pattern(a, b)
    (s1, b1), (s2, b2) = a.diagonals, b.diagonals
    assert seen == [(s1, s2), (s1, b2), (b1, s2), (b1, b2)]


def test_dmz_pattern_returns_one_of_two_shared_patterns():
    found = {}
    for group in cluster_assessors(LVL5).values():
        for a1, a2 in combinations(group, 2):
            pat = dmz_pattern(a1, a2)
            if pat is not None:
                found.setdefault(pat.same_slope_zero, []).append(pat)
    assert sorted(found) == [False, True]
    for same, pats in found.items():
        assert all(p is pats[0] for p in pats)
        assert pats[0] == DmzPattern(same) and pats[0] is not DmzPattern(same)


def _fresh_pattern(a1, a2):
    """Oracle: fresh diagonal elements, all four slope pairings multiplied."""
    zero = {
        (s1, s2): mul_element(
            Element({a1.lo: 1, a1.hi: s1}), Element({a2.lo: 1, a2.hi: s2}), a1.lvl
        ).is_zero()
        for s1 in (1, -1)
        for s2 in (1, -1)
    }
    same, opposite = zero[1, 1], zero[1, -1]
    assert (zero[-1, -1], zero[-1, 1]) == (same, opposite) and not (same and opposite)
    return DmzPattern(same) if same or opposite else None


@pytest.mark.parametrize("lvl", [LVL4, LVL5], ids=["n4", "n5"])
def test_dmz_pattern_agrees_with_fresh_diagonals(lvl):
    for group in cluster_assessors(lvl).values():
        for a1, a2 in combinations(group, 2):
            want = _fresh_pattern(a1, a2)
            # each call builds the planes' diagonals afresh, and the calls agree
            assert dmz_pattern(a1, a2) == dmz_pattern(a1, a2) == want
            assert dmz_pattern(a2, a1) == want


@given(data=st.data())
def test_dmz_pattern_agrees_with_fresh_diagonals_above_n5(data):
    lvl = Level(data.draw(st.integers(6, 8)))
    low = st.integers(1, lvl.g - 1)
    s, t = data.draw(low), data.draw(low)
    a1 = data.draw(st.sampled_from(cluster(lvl, s)))
    a2 = data.draw(st.sampled_from(cluster(lvl, t)))
    assume(a1 != a2)
    assert dmz_pattern(a1, a2) == _fresh_pattern(a1, a2)


def test_shared_diagonals_survive_every_view(monkeypatch):
    # the views that still multiply diagonals: build_boxkite checks a
    # frame's edges with dmz_pattern, trace_lanyard with diagonal_product
    seen = []

    def recording(kernel, planes):
        def wrapper(x, y):
            seen.extend(planes(x, y))
            return kernel(x, y)

        return wrapper

    monkeypatch.setattr(kites, "dmz_pattern", recording(zd.dmz_pattern, lambda a1, a2: (a1, a2)))
    monkeypatch.setattr(
        kites,
        "diagonal_product",
        recording(zd.diagonal_product, lambda d1, d2: (d1.assessor, d2.assessor)),
    )
    dmz_scan(LVL5)
    for s in range(1, LVL5.g):
        etable.build_et(LVL5, s)
        for bk in kites.survey(LVL5, s).kites:
            kites.build_boxkite(LVL5, s, bk.zigzag_trip)
            kites.trace_lanyard(bk, kites.ZIGZAG_SIGNATURE)
    assert seen
    for a in seen:
        assert a.element(SLASH) == Element({a.lo: 1, a.hi: 1})
        assert a.element(BACKSLASH) == Element({a.lo: 1, a.hi: -1})


def test_dmz_pattern_same_slope_class_exists(sedenion_kites):
    bk = sedenion_kites[4][0]
    a, d = bk.assessor("A"), bk.assessor("D")
    pat = dmz_pattern(a, d)
    assert pat is not None and pat.same_slope_zero and pat.word == "same"


def test_carrybit_overflow_breaks_candidate_pairs():
    # genuine level-5 assessor shapes on a high strut constant may fail
    # to annihilate although every index pattern suggests they should
    xval = 16 | 9
    silent = [
        (u, v)
        for u, v in combinations([k for k in range(1, 16) if k != 9], 2)
        if u ^ v != 9
        and dmz_pattern(Assessor(u, u ^ xval, LVL5), Assessor(v, v ^ xval, LVL5)) is None
    ]
    assert silent, "expected at least one overflow-silenced pair at s=9"


def test_four_term_cancelation_structure():
    # in the annihilating orientation the low*low product cancels the
    # high*high one and the two cross products cancel each other
    a, b = A4(1, 13), A4(2, 14)
    ll = mul_basis(a.lo, b.lo, LVL4)
    hh = mul_basis(a.hi, b.hi, LVL4)
    lh = mul_basis(a.lo, b.hi, LVL4)
    hl = mul_basis(a.hi, b.lo, LVL4)
    assert ll.index == hh.index and lh.index == hl.index
    # slopes (+1, -1) annihilate for this pair
    s1, s2 = SLASH, BACKSLASH
    assert ll.sign + s1 * s2 * hh.sign == 0
    assert s2 * lh.sign + s1 * hl.sign == 0


def test_scalar_invariance_of_zero():
    a, b = A4(1, 13), A4(2, 14)
    for k in (2, -3, 7, Fraction(2, 3)):
        x = k * a.element(SLASH)
        y = b.element(BACKSLASH)
        assert mul_element(x, y, LVL4).is_zero()
        assert mul_element(x, k * y, LVL4).is_zero()


def test_theorem1_clean_at_4_and_5():
    assert theorem1_check(LVL4) is None
    assert theorem1_check(LVL5) is None


def test_theorem1_clean_at_3():
    assert theorem1_check(Level(3)) is None


@pytest.mark.parametrize("check", [theorem1_check, theorem2_check])
@pytest.mark.parametrize("n", [9, 4_000_000_000])
def test_theorems_1_and_2_refuse_a_level_above_the_tables(check, n):
    # refused by the exponent, before a dyad pool (or 2^n) is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            check(Level(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"sweeps need at most 256 dimensions: n = {n}"
    assert "\n" not in str(err.value)
    assert peak < 1 << 20


def test_theorem2_clean_at_4_and_5():
    assert theorem2_check(LVL4) is None
    assert theorem2_check(LVL5) is None


def test_theorem2_instance():
    x = Element({1: 1, 8: 1})
    y = Element({2: 1, 11: 1})
    assert not mul_element(x, y, LVL4).is_zero()


def test_theorem3_dichotomy_exhaustive():
    pairs4, hits4 = theorem3_check(LVL4, [relation(LVL4, s) for s in range(1, 8)])
    assert pairs4 == 861 and hits4 == 84
    pairs5, hits5 = theorem3_check(LVL5, [relation(LVL5, s) for s in range(1, 16)])
    assert pairs5 == 21945 and hits5 == 924


def test_theorem4_examples_and_scan():
    for lo, hi in ((1, 13), (2, 14), (7, 11)):
        assert theorem4_check(A4(lo, hi))
    for lvl in (LVL4, LVL5):
        assert all(theorem4_check(a) for a in enumerate_assessors(lvl))


# The exact oracles of Theorems 1, 2 and 4: Element sweeps over dyad pools,
# which theorem1_check, theorem2_check and theorem4_check are held to.


def _dyads(indices):
    """All two-term dyads (a, b, sb) over the index pool, a < b, sb = 1 before -1."""
    return [(a, b, sb) for a, b in combinations(indices, 2) for sb in (1, -1)]


def _dyad_element(d):
    a, b, sb = d
    return Element({a: 1, b: sb})


def _xor_buckets(dyads):
    """Positions of the dyads (a, b, ...) in their pool, keyed by a ^ b, in pool order."""
    buckets = {}
    for i, (a, b, _) in enumerate(dyads):
        buckets.setdefault(a ^ b, []).append(i)
    return buckets


def _low_zeros(lvl, xs=None):
    """Every zero product of two all-low dyads of the buckets xs (all when
    None), each pair once, in theorem1_check's sweep order."""
    low = _dyads(range(1, lvl.g))
    elems = [_dyad_element(p) for p in low]
    buckets = _xor_buckets(low)
    for i, p in enumerate(low):
        if xs is not None and p[0] ^ p[1] not in xs:
            continue
        for j in buckets[p[0] ^ p[1]]:
            if j >= i and mul_element(elems[i], elems[j], lvl).is_zero():
                yield p, low[j]


def _theorem1_sweep(lvl):
    """The first all-low zero that is not also a zero one level down."""
    below = Level(lvl.n - 1) if lvl.n > 4 else None
    for p, q in _low_zeros(lvl):
        if below is None or not mul_element(_dyad_element(p), _dyad_element(q), below).is_zero():
            return p, q
    return None


def _bucket_zeros(lvl, a, b):
    """Every zero product of the dyad (a, b, sb) with a dyad of its own
    bucket, sb = 1 before -1 and partners in pool order."""
    x = a ^ b
    return [
        ((a, b, sb), (c, c ^ x, sd))
        for sb in (1, -1)
        for c in range(1, lvl.dim)
        if c < c ^ x
        for sd in (1, -1)
        if mul_element(Element({a: 1, b: sb}), Element({c: 1, c ^ x: sd}), lvl).is_zero()
    ]


def _generator_dyads(lvl):
    """The dyads (a, b), a < b, that hold i_g, in pool order."""
    return [(a, b) for a, b in combinations(range(1, lvl.dim), 2) if lvl.g in (a, b)]


def _theorem2_sweep(lvl):
    """The first zero product of a dyad holding i_g with any dyad."""
    return next((hit for a, b in _generator_dyads(lvl) for hit in _bucket_zeros(lvl, a, b)), None)


def _theorem4_sweep(a):
    """Both cross products of a plane's diagonals are twice a signed unit."""
    k = a.lo ^ a.hi
    for s1, s2 in ((SLASH, BACKSLASH), (BACKSLASH, SLASH)):
        prod = mul_element(a.element(s1), a.element(s2), a.lvl)
        if prod.is_zero() or prod.indices() != (k,) or abs(prod.coeff(k)) != 2:
            return False
    return True


def _signed(a, x, zero, same, w):
    """The signed dyad pairs of the zero cells (a, c) in row a of a bit
    matrix w wide, in sweep order: sb = 1 before -1, then c ascending."""
    return [
        ((a, a ^ x, sb), (c, c ^ x, sb if same >> a * w + c & 1 else -sb))
        for sb in (1, -1)
        for c in range(w)
        if zero >> a * w + c & 1
    ]


def _kernel_low_zeros(lvl, xs):
    """_low_zeros read off the kernel: one _zero_test per bucket over the
    low quadrant, every cell kept, then the sweep's pairs picked out."""
    n, g = lvl.n, lvl.g
    ll, everything = zd._split_signs(n).ll, (1 << g * g) - 1
    found = []
    for x in xs:
        zero, same = zd._zero_test(ll, ll, ll, ll, x << n - 1, x, g * g, everything)
        for a in range(1, g):
            if a < a ^ x:
                found += [
                    (p, q)
                    for p, q in _signed(a, x, zero, same, g)
                    if q[0] < q[1] and (q[0], q[2] < 0) >= (a, p[2] < 0)
                ]
    return sorted(found, key=lambda pq: [(d[0], d[1], d[2] < 0) for d in pq])


@pytest.mark.parametrize("n, signed", [(4, 0), (5, 168), (6, 2520)])
def test_theorem1_kernel_equals_the_element_sweep(n, signed):
    lvl = Level(n)
    xs = range(1, lvl.g)
    sweep = list(_low_zeros(lvl))
    assert _kernel_low_zeros(lvl, xs) == sweep and len(sweep) == signed
    assert theorem1_check(lvl) is _theorem1_sweep(lvl) is None


@pytest.mark.parametrize("n", [7, 8])
def test_theorem1_kernel_equals_the_element_sweep_on_sampled_buckets(n):
    lvl = Level(n)
    xs = sorted(random.Random(f"theorem1-{n}").sample(range(1, lvl.g), 3))
    sweep = list(_low_zeros(lvl, set(xs)))
    assert sweep and _kernel_low_zeros(lvl, xs) == sweep


def _kernel_bucket_zeros(lvl, a, b):
    """_bucket_zeros read off the kernel as theorem2_check reads it: the
    sign rows of a and b, each a one-row matrix."""
    rows = sign_table(lvl.n)
    x = a ^ b
    keep = sum(1 << c for c in range(1, lvl.dim) if c < c ^ x)
    zero, same = zd._zero_test(rows[a], rows[b], rows[a], rows[b], 0, x, lvl.dim, keep)
    return [((a, b, p[2]), q) for p, q in _signed(0, x, zero, same, lvl.dim)]


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_theorem2_kernel_equals_the_element_sweep(n):
    lvl = Level(n)
    dyads = _generator_dyads(lvl)
    if n > 6:
        dyads = random.Random(f"theorem2-{n}").sample(dyads, 20)
    for a, b in dyads:
        assert _kernel_bucket_zeros(lvl, a, b) == _bucket_zeros(lvl, a, b) == []
    if n <= 6:
        assert theorem2_check(lvl) is _theorem2_sweep(lvl) is None


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_row_read_equals_exact_products_on_any_dyad(n):
    # theorem2_check's one-row reading, on dyads that do make zero too
    lvl = Level(n)
    pool = list(combinations(range(1, lvl.dim), 2))
    dyads = pool if n == 4 else random.Random(f"rows-{n}").sample(pool, 40)
    found = 0
    for a, b in dyads:
        zeros = _bucket_zeros(lvl, a, b)
        assert _kernel_bucket_zeros(lvl, a, b) == zeros, (a, b)
        found += len(zeros)
    assert found


def _moved(m, key, width):
    """m with the bit at each position p below width moved to p ^ key, one bit at a time."""
    bits = format(m, f"0{width}b")[::-1]  # bits[p] is bit p of m
    out = ["0"] * width
    for p in range(width):
        out[p ^ key] = bits[p]
    return int("".join(reversed(out)), 2)


#: every width the sweeps permute at: g (survey) and g * g (relation,
#: theorem1_check, Theorem 6) for n = 1..8, which include every 2^n
#: (theorem2_check)
_PERMUTE_WIDTHS = sorted({w for n in range(1, 9) for w in (1 << n - 1, 1 << 2 * n - 2)})


@pytest.mark.parametrize("width", _PERMUTE_WIDTHS)
def test_xor_permute_equals_the_bit_by_bit_move(width):
    rng = random.Random(f"xor-permute-{width}")
    singles = [1 << k for k in range(width.bit_length() - 1)]
    keys = sorted({0, width - 1, *singles, *(rng.randrange(width) for _ in range(6))})
    words = [rng.getrandbits(width) for _ in range(2)] + [1, 1 << width - 1, (1 << width) - 1]
    for key in keys:
        for m in words:
            assert zd._xor_permute(m, key, width) == _moved(m, key, width), (key, m)


def _cells(m, g):
    """The g x g bit matrix m as a list of g*g bits, cell (r, c) at r*g + c."""
    return [int(b) for b in format(m, f"0{g * g}b")[::-1]]


def _from_cells(cells):
    return int("".join(map(str, reversed(cells))), 2)


def _matrices(n):
    g = 1 << n - 1
    rng = random.Random(f"bit-matrix-{n}")
    return g, [rng.getrandbits(g * g) for _ in range(3)] + [1, 1 << g * g - 1, (1 << g * g) - 1]


@pytest.mark.parametrize("n", range(1, 9))
def test_transpose_equals_the_cell_by_cell_move(n):
    g, words = _matrices(n)
    for m in words:
        cells = _cells(m, g)
        moved = [cells[c * g + r] for r in range(g) for c in range(g)]  # (r, c) from (c, r)
        assert zd._transpose(m, g) == _from_cells(moved), m


@pytest.mark.parametrize("n", range(1, 9))
def test_row_xor_permute_equals_the_cell_by_cell_read(n):
    g, words = _matrices(n)
    for m in words:
        cells = _cells(m, g)
        read = [cells[a * g + (a ^ b)] for a in range(g) for b in range(g)]  # (a, b) from (a, a ^ b)
        assert zd._row_xor_permute(m, g) == _from_cells(read), m


@pytest.mark.parametrize("n", range(1, 9))
def test_split_signs_quadrants_equal_the_sign_loop(n):
    # each quadrant packed cell by cell from the sign loop: cell (r, c) at
    # bit r*g + c when the sign at (r0 + r, c0 + c) is -1
    g = 1 << n - 1

    def quadrant(r0, c0):
        m = 0
        for r in range(g):
            for c in range(g):
                if _basis_sign(r0 + r, c0 + c) < 0:
                    m |= 1 << r * g + c
        return m

    signs = zd._split_signs(n)
    assert (signs.ll, signs.lh, signs.hl, signs.hh) == (
        quadrant(0, 0),
        quadrant(0, g),
        quadrant(g, 0),
        quadrant(g, g),
    )


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_theorem4_antisymmetry_read_equals_the_element_sweep(n):
    planes = enumerate_assessors(Level(n))
    if n > 6:
        planes = random.Random(f"theorem4-{n}").sample(planes, 200)
    assert all(theorem4_check(a) is _theorem4_sweep(a) is True for a in planes)


@pytest.mark.parametrize(
    "cell, hit",
    [
        ((1, 2), ((1, 2, 1), (1, 2, -1))),  # t(1,2) = t(2,1): (i_1 + i_2)(i_1 - i_2) = 0
        ((3, 6), ((1, 3, 1), (4, 6, 1))),
        ((7, 5), ((1, 7, 1), (3, 5, 1))),
    ],
)
def test_theorem1_kernel_and_sweep_agree_on_a_doctored_table(doctored, cell, hit):
    # an octonion cell flipped makes an all-low zero at n = 4; at n = 5 the
    # same zero is one level down too, so both scans find it inherited
    doctored(*cell)
    assert theorem1_check(LVL4) == _theorem1_sweep(LVL4) == hit
    assert theorem1_check(LVL5) is _theorem1_sweep(LVL5) is None


@pytest.mark.parametrize(
    "cell, hit",
    [
        ((16, 3), ((1, 16, 1), (3, 18, 1))),
        ((3, 16), ((3, 16, 1), (3, 16, -1))),
        ((17, 30), ((16, 17, 1), (30, 31, -1))),
    ],
)
def test_theorem2_kernel_and_sweep_agree_on_a_doctored_table(doctored, cell, hit):
    doctored(*cell)
    assert theorem2_check(LVL5) == _theorem2_sweep(LVL5) == hit


def test_theorem4_antisymmetry_read_and_sweep_agree_on_a_doctored_table(doctored):
    doctored(1, 21)
    plane = Assessor(1, 21, LVL5)
    assert theorem4_check(plane) is _theorem4_sweep(plane) is False
    assert theorem4_check(Assessor(2, 22, LVL5)) is _theorem4_sweep(Assessor(2, 22, LVL5)) is True


@pytest.mark.parametrize(
    "n, lo, hi, t5",
    [
        (5, 1, 21, (False, "s=2: (7, 21) x (1, 19) makes zero, (1, 19) x (7, 21) does not")),
        (4, 3, 13, (False, "s=1: (4, 13) x (3, 10) makes zero, (3, 10) x (4, 13) does not")),
        (6, 5, 45, (False, "s=1: (12, 45) x (5, 36) makes zero, (5, 36) x (12, 45) does not")),
    ],
)
def test_theorem4_reads_the_relation_diagonal_on_a_doctored_table(doctored, n, lo, hi, t5):
    # t(lo, hi) flipped to equal t(hi, lo): the plane's two diagonals make
    # zero, its cell in its cluster's relation is set, and the suite names
    # it; the flip also breaks the sign antisymmetry that makes every
    # relation symmetric, and Theorem 5 names the first cluster it breaks
    doctored(lo, hi)
    lvl = Level(n)
    for s in range(1, lvl.g):
        _diagonal_fails_theorem4(relation(lvl, s), cluster(lvl, s))
    assert relation(lvl, lo ^ hi ^ lvl.g).zero[lo] >> lo & 1
    results = {r.name: r for r in theorems.run_suite(n)}
    assert results["Theorem 4"] == theorems.TheoremResult(
        "Theorem 4", False, f"self-annihilating planes: [Assessor({lo}, {hi})]"
    )
    assert results["Theorem 5"] == theorems.TheoremResult("Theorem 5", *t5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_theorems_1_and_2_scan_below_16_dimensions(monkeypatch, n):
    # a computed clean scan, not a refusal: one kernel test per all-low
    # bucket, and one per dyad holding i_g
    calls = []
    kernel = zd._zero_test

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(zd, "_zero_test", counting)
    g = 1 << n - 1
    assert theorem1_check(Level(n)) is None and len(calls) == g - 1
    calls.clear()
    assert theorem2_check(Level(n)) is None and len(calls) == 2 * (g - 1)


@pytest.mark.parametrize("n, kernel_calls", [(4, 7), (5, 0), (6, 0), (7, 0), (8, 0)])
def test_theorem1_runs_the_kernel_only_through_16_dimensions(monkeypatch, n, kernel_calls):
    # one kernel test per all-low bucket at n = 4; from n = 5 on every
    # all-low zero is one level down too, by the one sign table, and none runs
    calls = []
    kernel = zd._zero_test

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(zd, "_zero_test", counting)
    assert theorem1_check(Level(n)) is None
    assert len(calls) == kernel_calls


def test_enumerate_assessors_counts():
    assert enumerate_assessors(Level(3)) == []
    assert len(enumerate_assessors(LVL4)) == 42
    assert len(enumerate_assessors(LVL5)) == 210


def _nested_loop_planes(lvl):
    # the plane rule stated apart from zd.cluster, so test_clusters is not circular
    if lvl.n < 4:
        return []
    g = lvl.g
    return [
        Assessor(lo, hi, lvl)
        for lo in range(1, g)
        for hi in range(g + 1, lvl.dim)
        if hi != lo ^ g
    ]


def test_enumerate_assessors_matches_the_nested_loop():
    for n in range(3, 8):
        assert enumerate_assessors(Level(n)) == _nested_loop_planes(Level(n))


@pytest.mark.parametrize("lvl", [LVL4, LVL5], ids=["n4", "n5"])
def test_dmz_scan_matches_the_all_planes_sweep(lvl):
    # every candidate pair multiplied out: the oracle for the joined
    # per-cluster sweeps, order included
    sweep = [
        (a1, a2, dmz_pattern(a1, a2)) for a1, a2 in combinations(enumerate_assessors(lvl), 2)
    ]
    assert all(pat is None for a1, a2, pat in sweep if a1.strut_constant != a2.strut_constant)
    assert dmz_scan(lvl) == [hit for hit in sweep if hit[2] is not None]


def test_dmz_scan_multiplies_only_within_clusters(monkeypatch):
    built, multiplied = [], []
    kernel, oracle = zd.relation, zd.dmz_pattern

    def counting_relation(lvl, s):
        built.append(s)
        return kernel(lvl, s)

    def counting_pattern(a1, a2):
        multiplied.append((a1, a2))
        return oracle(a1, a2)

    monkeypatch.setattr(zd, "relation", counting_relation)
    monkeypatch.setattr(zd, "dmz_pattern", counting_pattern)
    assert len(dmz_scan(LVL5)) == 924
    # one relation per cluster of 14 planes; all planes would be 21,945 pairs
    assert built == list(range(1, 16))
    assert all(len(cluster(LVL5, s)) == 14 for s in built)
    assert multiplied == []


def _diagonal_fails_theorem4(rel, planes):
    """The relation's diagonal bit of each plane is set iff theorem4_check fails."""
    assert [rel.zero[p.lo] >> p.lo & 1 for p in planes] == [
        0 if theorem4_check(p) else 1 for p in planes
    ]


def _check_relation(rel, pairs):
    """A cluster's relation against dmz_pattern on its given plane pairs, both orders."""
    for a1, a2 in pairs:
        want = dmz_pattern(a1, a2)
        assert rel.pattern(a1.lo, a2.lo) is want
        assert rel.pattern(a2.lo, a1.lo) is want


@pytest.mark.parametrize("n", [4, 5, 6])
def test_relation_matches_dmz_pattern_on_every_cluster_pair(n):
    lvl = Level(n)
    g, pairs, zeros = lvl.g, 0, 0
    for s in range(1, g):
        rel = relation(lvl, s)
        assert isinstance(rel, Relation) and len(rel.zero) == len(rel.same) == g
        assert rel.zero[0] == rel.zero[s] == 0
        assert all(same & ~zero == 0 for zero, same in zip(rel.zero, rel.same))
        assert all(zero >> g == 0 and zero & (1 | 1 << s) == 0 for zero in rel.zero)
        planes = cluster(lvl, s)
        _check_relation(rel, combinations(planes, 2))
        _diagonal_fails_theorem4(rel, planes)
        pairs += len(planes) * (len(planes) - 1) // 2
        zeros += sum(zero.bit_count() for zero in rel.zero) // 2
    assert (pairs, zeros) == {4: (105, 84), 5: (1365, 924), 6: (13485, 7980)}[n]


@given(data=st.data())
def test_relation_matches_dmz_pattern_above_n6(data):
    lvl = Level(data.draw(st.integers(7, 8)))
    s = data.draw(st.integers(1, lvl.g - 1))
    planes = cluster(lvl, s)
    a1, a2 = data.draw(st.lists(st.sampled_from(planes), min_size=2, max_size=2, unique=True))
    _check_relation(relation(lvl, s), [(a1, a2)])


def test_sweeps_refuse_a_level_above_the_sign_tables_before_building_it():
    # 1 << 4_000_000_000 alone would take 500 MB: each sweep refuses the
    # level by its exponent, before g, a sign table or a swap mask is built
    huge = Level(4_000_000_000)
    sweeps = {
        "relation": lambda: relation(huge, 3),
        "survey": lambda: kites.survey(huge, 3),
        "build_et": lambda: etable.build_et(huge, 3),
        "dmz_scan": lambda: dmz_scan(huge),
        "dmz_report": lambda: dmz_report(huge),
        "cluster_assessors": lambda: cluster_assessors(huge),
        "enumerate_trips": lambda: enumerate_trips(huge),
        "run_suite": lambda: theorems.run_suite(huge.n),
        # comb((g - 1)(g - 2), 2) is unbounded at such an n, relations or none
        "theorem3_check": lambda: theorem3_check(huge, []),
    }
    masks = zd._swap_masks.cache_info().currsize
    for name, sweep in sweeps.items():
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as refusal:
                sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, name
        assert str(refusal.value) and "\n" not in str(refusal.value), name
    assert zd._swap_masks.cache_info().currsize == masks


@functools.cache
def _loop_table(n):
    """The level's signs from the sign loop, cell by cell, as lists."""
    dim = 1 << n
    return [[_basis_sign(a, b) for b in range(dim)] for a in range(dim)]


def _four_read_relation(lvl, s):
    """A cluster's relation read pair by pair, four sign reads each.

    The rule of relation's proof applied to one plane pair at a time,
    both orders filled from the pair (a, b), a < b.  This loop was the
    kernel before the bit-matrix form, and held to dmz_pattern on every
    cluster pair at n <= 6 by the test above.
    """
    g = lvl.g
    x = g | s
    lows = [k for k in range(1, g) if k != s]
    table = _loop_table(lvl.n)
    zero, same = [0] * g, [0] * g
    for i, a in enumerate(lows):
        ta, tA = table[a], table[a ^ x]
        for b in lows[i + 1 :]:
            B = b ^ x
            u = ta[b] * tA[B]
            if u == ta[B] * tA[b]:
                zero[a] |= 1 << b
                zero[b] |= 1 << a
                if u < 0:
                    same[a] |= 1 << b
                    same[b] |= 1 << a
    return Relation(tuple(zero), tuple(same))


@pytest.mark.parametrize("n, zeros", [(7, 65100), (8, 523404)])
def test_relation_matches_the_four_read_loop_on_every_cluster(n, zeros):
    lvl = Level(n)
    total = 0
    for s in range(1, lvl.g):
        rel = relation(lvl, s)
        assert rel == _four_read_relation(lvl, s), s
        _diagonal_fails_theorem4(rel, cluster(lvl, s))
        total += sum(zero.bit_count() for zero in rel.zero) // 2
    assert total == zeros


def test_relation_refuses_what_cluster_refuses():
    for lvl, s in ((Level(3), 1), (LVL4, 0), (LVL4, 8)):
        with pytest.raises(ValueError):
            relation(lvl, s)


@pytest.mark.parametrize("lvl", [LVL4, LVL5], ids=["n4", "n5"])
def test_no_all_low_dyad_annihilates_a_mixed_one(lvl):
    # products theorem1_check rules out by XOR (below g against at or above g)
    g = lvl.g
    low = [Element({a: 1, b: s}) for a, b in combinations(range(1, g), 2) for s in (1, -1)]
    mixed = [
        Element({a: 1, b: s}) for a in range(1, g) for b in range(g, lvl.dim) for s in (1, -1)
    ]
    assert not any(mul_element(x, y, lvl).is_zero() for x in low for y in mixed)


@given(data=st.data())
def test_dyads_of_different_xor_never_make_zero(data):
    lvl = Level(data.draw(st.integers(6, 8)))
    index = st.integers(1, lvl.dim - 1)
    sign = st.sampled_from((1, -1))
    a, b, c, d = (data.draw(index) for _ in range(4))
    assume(a != b and c != d and a ^ b != c ^ d)
    x = Element({a: 1, b: data.draw(sign)})
    y = Element({c: 1, d: data.draw(sign)})
    assert not mul_element(x, y, lvl).is_zero()


def test_clusters():
    clusters = cluster_assessors(LVL4)
    assert sorted(clusters) == list(range(1, 8))
    assert all(len(v) == 6 for v in clusters.values())
    for s, group in clusters.items():
        # the excluded low index never appears inside its own cluster
        assert all(a.lo != s for a in group)
    clusters5 = cluster_assessors(LVL5)
    assert sorted(clusters5) == list(range(1, 16))
    assert all(len(v) == 14 for v in clusters5.values())
    # the one owner of a cluster's planes agrees with the full candidate list
    for n in range(4, 8):
        lvl = Level(n)
        cands = enumerate_assessors(lvl)
        for s in range(1, lvl.g):
            assert list(cluster(lvl, s)) == [a for a in cands if a.strut_constant == s]
    assert cluster_assessors(Level(3)) == {}
    for lvl, s in ((Level(3), 1), (LVL4, 0), (LVL4, LVL4.g)):
        with pytest.raises(ValueError):
            check_strut(lvl, s)
        with pytest.raises(ValueError):
            cluster(lvl, s)


def test_emanate_examples():
    a, b = A4(1, 13), A4(2, 14)
    c = emanate(a, b)
    assert (c.lo, c.hi) == (3, 15)
    assert emanate(a, c) == b
    assert emanate(b, c) == a
    assert emanate(b, a) == c
    with pytest.raises(NotDmzError):
        emanate(a, A4(5, 9))


def test_emanate_closure_everywhere_sedenion():
    for a1, a2, _ in dmz_scan(LVL4):
        w = emanate(a1, a2)
        assert dmz_pattern(a1, w) is not None
        assert dmz_pattern(a2, w) is not None
        assert is_trip(a1.lo, a2.lo, w.lo, LVL4)


def test_twist_valid_for_every_sedenion_dmz():
    count = 0
    for a1, a2, pat in dmz_scan(LVL4):
        slope_pairs = (
            ((SLASH, SLASH), (BACKSLASH, BACKSLASH))
            if pat.same_slope_zero
            else ((SLASH, BACKSLASH), (BACKSLASH, SLASH))
        )
        for s1, s2 in slope_pairs:
            res = twist(Diagonal(a1, s1), Diagonal(a2, s2))
            assert res.valid
            count += 1
    assert count == 168


def test_twist_requires_a_zero():
    with pytest.raises(NotDmzError):
        twist(Diagonal(A4(1, 13), SLASH), Diagonal(A4(2, 14), SLASH))


def test_twist_orbit():
    d1 = Diagonal(A4(1, 13), SLASH)
    d2 = Diagonal(A4(2, 14), BACKSLASH)
    once = twist(d1, d2).pair
    # the twisted pair lives at another strut constant
    assert once[0].assessor.strut_constant == once[1].assessor.strut_constant != 4
    twice = twist(*once).pair
    assert twice[0].assessor == d1.assessor and twice[1].assessor == d2.assessor
    assert twice[0].slope == -d1.slope and twice[1].slope == -d2.slope
    orbit = [(d1, d2)]
    cur = (d1, d2)
    for _ in range(4):
        cur = twist(*cur).pair
        if cur == (d1, d2):
            break
        orbit.append(cur)
    assert len(orbit) == 4


def test_pathion_twist_failures_exist_and_land_high(pathion_surveys):
    invalid_targets = set()
    for s, sv in pathion_surveys.items():
        for bk in sv.kites:
            for l1, l2, color in bk.edge_colors:
                a1, a2 = bk.assessor(l1), bk.assessor(l2)
                s1, s2 = (SLASH, SLASH) if color == "BLUE" else (SLASH, BACKSLASH)
                res = twist(Diagonal(a1, s1), Diagonal(a2, s2))
                if not res.valid:
                    invalid_targets.add(res.pair[0].assessor.strut_constant)
    assert invalid_targets
    assert all(t > 8 for t in invalid_targets)


def test_dmz_report_lines_format():
    lines = "".join(dmz_report(LVL4, s=4)).splitlines()
    assert len(lines) == 12
    assert all(len(ln.split()) == 5 for ln in lines)
    assert lines == sorted(lines, key=lambda ln: tuple(map(int, ln.split()[:4])))
    assert "1 13 2 14 opposite" in lines


def test_strut_opposites_never_annihilate():
    for lvl in (LVL4, LVL5):
        for s in range(1, lvl.g):
            x = lvl.g | s
            for lo in range(1, lvl.g):
                partner = lo ^ s
                if lo >= partner or partner == 0 or lo == s or partner == s:
                    continue
                pat = dmz_pattern(
                    Assessor(lo, lo ^ x, lvl), Assessor(partner, partner ^ x, lvl)
                )
                assert pat is None
