import functools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from boxkites import cdp
from boxkites.cdp import (
    Element,
    _basis_sign,
    IndexRangeError,
    Level,
    conjugate,
    mul_basis,
    mul_element,
    sign_table,
)
from boxkites.zd import theorem1_check

LVL2, LVL3, LVL4 = Level(2), Level(3), Level(4)

# The seven oriented octonion cycles: the quaternion cycle, its three
# generator extensions, and the three order-reversed doublings.  Together
# with identity and square rules they fix the whole 8x8 table, giving an
# oracle independent of the recursion under test.
OCTONION_CYCLES = ((1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 4, 7), (1, 7, 6), (2, 5, 7), (3, 6, 5))


def cycle_table(cycles, dim):
    tbl = {}
    for a in range(dim):
        tbl[(0, a)] = (1, a)
        tbl[(a, 0)] = (1, a)
    for a in range(1, dim):
        tbl[(a, a)] = (-1, 0)
    for x, y, z in cycles:
        for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
            tbl[(p, q)] = (1, r)
            tbl[(q, p)] = (-1, r)
    return tbl


def test_octonion_table_matches_cycle_oracle():
    oracle = cycle_table(OCTONION_CYCLES, 8)
    assert len(oracle) == 64
    for (a, b), expected in oracle.items():
        assert tuple(mul_basis(a, b, LVL3)) == expected, (a, b)


def test_quaternion_table_matches_cycle_oracle():
    oracle = cycle_table([(1, 2, 3)], 4)
    for (a, b), expected in oracle.items():
        assert tuple(mul_basis(a, b, LVL2)) == expected, (a, b)


@pytest.mark.parametrize(
    "a,b,lvl,expected",
    [
        (1, 2, LVL2, (1, 3)),
        (0, 5, LVL3, (1, 5)),
        (7, 7, LVL3, (-1, 0)),
        (3, 8, LVL4, (1, 11)),
        (1, 7, LVL3, (1, 6)),
        # reversal of the (1,7,6) cycle adjacency, hence negative
        (7, 1, LVL3, (-1, 6)),
    ],
)
def test_mul_basis_pinned_values(a, b, lvl, expected):
    assert tuple(mul_basis(a, b, lvl)) == expected


def test_generator_rule_all_powers():
    # i_L * i_g = +i_(g+L) for any power-of-two g and L < g
    for n in range(2, 7):
        lvl = Level(n)
        g = 2
        while g <= lvl.g:
            for lo in range(1, g):
                assert tuple(mul_basis(lo, g, lvl)) == (1, g + lo)
            g <<= 1


def test_sign_is_level_independent():
    for a in range(16):
        for b in range(16):
            ref = mul_basis(a, b, LVL4)
            for n in (5, 6):
                assert mul_basis(a, b, Level(n)) == ref


def test_index_is_xor_up_to_n8():
    lvl = Level(8)
    for a in range(256):
        for b in range(256):
            assert mul_basis(a, b, lvl).index == a ^ b


def test_anticommutativity_distinct_imaginaries():
    for n in (2, 3, 4, 5):
        lvl = Level(n)
        for a in range(1, lvl.dim):
            for b in range(1, lvl.dim):
                if a != b:
                    assert mul_basis(a, b, lvl).sign == -mul_basis(b, a, lvl).sign


def test_level_refuses_a_non_int_exponent():
    for n in (0, -1, 2.5, 3.0, True, "3"):
        with pytest.raises(ValueError):
            Level(n)


def test_mul_basis_range_errors():
    with pytest.raises(IndexRangeError, match=r"^basis indices \(8, 1\) out of range for 2\^3-ions$"):
        mul_basis(8, 1, LVL3)
    with pytest.raises(IndexRangeError, match=r"^basis indices \(1, -1\) out of range for 2\^3-ions$"):
        mul_basis(1, -1, LVL3)
    with pytest.raises(IndexRangeError, match=r"^basis indices \(1024, 1\) out of range for 2\^10-ions$"):
        mul_basis(1024, 1, Level(10))
    assert mul_basis(1023, 1, Level(10)) == (_basis_sign(1023, 1), 1022)


def test_products_far_above_the_tables_do_not_build_two_to_the_n():
    # the range checks shift by n: 1 << 4_000_000_000 alone would take 500 MB
    huge = Level(4_000_000_000)
    tracemalloc.start()
    try:
        assert mul_basis(1, 2, huge) == (1, 3)
        assert mul_element(Element({1: 1, 5: 2}), Element.unit(2), huge) == Element({3: 1, 7: -2})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(IndexRangeError, match=r"^term index 4096 outside 2\^10-ions"):
        mul_element(Element.unit(1), Element.unit(4096), Level(10))
    with pytest.raises(IndexRangeError, match=r"^term index 64 outside 2\^6-ions"):
        mul_element(Element.unit(64), Element.unit(1), Level(6))


def test_element_canonical_and_zero():
    e = Element({3: 1, 5: 0, 7: -2})
    assert e.indices() == (3, 7)
    assert Element({1: 1}) - Element({1: 1}) == Element.zero()
    assert (Element({1: 1}) - Element({1: 1})).is_zero()
    assert not Element.zero()


def test_element_rejects_floats_and_bad_indices():
    with pytest.raises(TypeError):
        Element({1: 0.5})
    with pytest.raises(TypeError):
        Element({1: 1}) * 1.5
    with pytest.raises(IndexRangeError):
        Element({-1: 1})


def test_element_fraction_coefficients():
    e = Element({0: Fraction(1, 2), 3: Fraction(-2, 3)})
    assert e.coeff(0) == Fraction(1, 2)
    assert (3 * e).coeff(3) == -2


def test_mul_element_pinned_examples():
    # a sedenion box-kite edge in its annihilating orientation
    x = Element({1: 1, 13: 1})
    y = Element({2: 1, 14: -1})
    assert mul_element(x, y, LVL4).is_zero()
    # same planes, other slope pairing: not zero
    assert not mul_element(x, Element({2: 1, 14: 1}), LVL4).is_zero()
    assert mul_element(Element.unit(1), Element.unit(2), LVL2) == Element.unit(3)
    # (i_5 + i_4)^2 = -2: the cross terms anticommute away
    sq = mul_element(Element({5: 1, 4: 1}), Element({5: 1, 4: 1}), LVL3)
    assert sq == Element.scalar(-2)


def test_mul_element_level_mismatch():
    with pytest.raises(IndexRangeError):
        mul_element(Element.unit(9), Element.unit(1), LVL3)


def test_conjugate_pinned():
    assert conjugate(Element.unit(0)) == Element.unit(0)
    assert conjugate(Element.unit(5)) == Element.unit(5, -1)
    assert conjugate(Element({0: 3, 7: 2})) == Element({0: 3, 7: -2})


def _elements(n, max_terms=4):
    dim = 1 << n
    return st.dictionaries(
        st.integers(0, dim - 1), st.integers(-5, 5), max_size=max_terms
    ).map(Element)


@given(x=_elements(3), y=_elements(3), z=_elements(3))
def test_mul_element_is_bilinear(x, y, z):
    lvl = LVL3
    lhs = mul_element(x + y, z, lvl)
    rhs = mul_element(x, z, lvl) + mul_element(y, z, lvl)
    assert lhs == rhs
    assert mul_element(z, x + y, lvl) == mul_element(z, x, lvl) + mul_element(z, y, lvl)


@given(data=st.data())
def test_mul_element_leaves_its_operands_unchanged(data):
    # the contract that lets an element serve any number of products
    n = data.draw(st.integers(1, 6))
    x, y = data.draw(_elements(n)), data.draw(_elements(n))
    before = (x.terms, y.terms)
    mul_element(x, y, Level(n))
    mul_element(x, x, Level(n))
    assert (x.terms, y.terms) == before


def _counting_sign_table(monkeypatch):
    calls = []
    real = cdp.sign_table

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cdp, "sign_table", counting)
    return calls


def test_mul_element_reads_built_tables_without_sign_table(monkeypatch):
    # products read the one table's rows below the ceiling and the sign
    # loop above it: no sign_table call at any level
    calls = _counting_sign_table(monkeypatch)
    for n in range(1, 11):
        top = (1 << n) - 1
        x, y = Element({top: 1, top >> 1: 3, 0: 1}), Element({1: 1, top ^ 1: -2})
        expected = Element(
            (i ^ j, _basis_sign(i, j) * ci * cj)
            for i, ci in x.terms.items()
            for j, cj in y.terms.items()
        )
        assert mul_element(x, y, Level(n)) == expected, n
    assert calls == []


def test_mul_basis_reads_built_tables_without_sign_table(monkeypatch):
    calls = _counting_sign_table(monkeypatch)
    for n in range(1, 11):
        dim = 1 << n
        step = max(1, dim // 16)
        for a in range(0, dim, step):
            for b in range(dim - 1, -1, -step):
                assert mul_basis(a, b, Level(n)) == (_basis_sign(a, b), a ^ b), (n, a, b)
    assert calls == []


def test_sign_table_hands_out_no_writable_state():
    # a write into a returned table must fail, and no product may change
    table = sign_table(5)
    with pytest.raises(TypeError):
        table[1][2] = -1
    with pytest.raises(TypeError):
        table[1] = table[1] ^ 1 << 2
    for n in (5, 6):
        assert mul_basis(1, 2, Level(n)) == (1, 3)
        assert mul_element(Element.unit(1), Element.unit(2), Level(n)) == Element.unit(3)
    assert sign_table(5) == table and not table[1] >> 2 & 1
    assert theorem1_check(Level(5)) is None


def _norm_sq(x, lvl):
    prod = mul_element(x, conjugate(x), lvl)
    assert prod.indices() in ((), (0,))
    return prod.coeff(0)


@given(x=_elements(3), y=_elements(3))
def test_norm_composes_through_octonions(x, y):
    xy = mul_element(x, y, LVL3)
    assert _norm_sq(xy, LVL3) == _norm_sq(x, LVL3) * _norm_sq(y, LVL3)


@given(x=_elements(2), y=_elements(2))
def test_norm_composes_through_quaternions(x, y):
    xy = mul_element(x, y, LVL2)
    assert _norm_sq(xy, LVL2) == _norm_sq(x, LVL2) * _norm_sq(y, LVL2)


def test_norm_composition_fails_at_sedenions():
    x = Element({1: 1, 13: 1})
    y = Element({2: 1, 14: -1})
    assert _norm_sq(x, LVL4) * _norm_sq(y, LVL4) == 4
    assert _norm_sq(mul_element(x, y, LVL4), LVL4) == 0



def _recursive_sign(a, b):
    """The doubling recursion that cdp._basis_sign unrolls, kept as its reference."""
    if a == 0 or b == 0:
        return 1
    if a == b:
        return -1
    h = 1 << (max(a, b).bit_length() - 1)
    if a < h:
        return _recursive_sign(b - h, a)
    if b < h:
        return -_recursive_sign(a - h, b)
    i, j = a - h, b - h
    if j == 0:
        return -1
    return _recursive_sign(j, i)


def test_basis_sign_loop_matches_recursion():
    for n in range(1, 7):
        dim = 1 << n
        ref = [[_recursive_sign(a, b) for b in range(dim)] for a in range(dim)]
        assert [[_basis_sign(a, b) for b in range(dim)] for a in range(dim)] == ref, n
        assert sign_table(n) == _negative_rows(ref), n


@functools.cache
def _loop_table(n):
    dim = 1 << n
    return [[_basis_sign(a, b) for b in range(dim)] for a in range(dim)]


def _negative_rows(table):
    """A table of signs packed cell by cell: bit b of row a set at a -1."""
    return tuple(sum(1 << b for b, sign in enumerate(row) if sign < 0) for row in table)


@pytest.mark.parametrize("n", range(1, cdp.MEMO_MAX_N + 1))
def test_sign_table_bits_equal_basis_sign(n):
    table = sign_table(n)
    assert type(table) is tuple and len(table) == 1 << n
    assert all(type(row) is int and not row >> (1 << n) for row in table)
    assert table == _negative_rows(_loop_table(n))


@pytest.mark.parametrize("n", range(1, cdp.MEMO_MAX_N))
def test_sign_table_is_the_masked_corner_of_the_next_level(n):
    dim = 1 << n
    assert sign_table(n) == tuple(row & (1 << dim) - 1 for row in sign_table(n + 1)[:dim])


@pytest.mark.parametrize(
    "order", [range(1, cdp.MEMO_MAX_N + 1), range(cdp.MEMO_MAX_N, 0, -1)], ids=["up", "down"]
)
@pytest.mark.parametrize("held", [(), (5,)], ids=["empty", "only5"])
def test_doubled_sign_tables_match_basis_sign(held, order):
    # cdp._double's row rule against the sign loop at every cell, doubled
    # from the reals' one row or from a lone loop-built level 5; the last
    # doubling is the table kept, and its corners read in either order
    start = held[0] if held else 0
    rows = list(_negative_rows(_loop_table(start))) if held else [0]
    doubled = {}
    for n in range(start + 1, cdp.MEMO_MAX_N + 1):
        rows = cdp._double(rows)
        doubled[n] = tuple(rows)
    assert doubled[cdp.MEMO_MAX_N] == cdp._ROWS
    for n in order:
        expected = _negative_rows(_loop_table(n))
        assert doubled.get(n, expected) == expected, n
        assert sign_table(n) == expected, n
