import random
from functools import cache
from itertools import combinations
from typing import NamedTuple

import pytest

from boxkites import cdp, etable, zd
from boxkites.cdp import Level
from boxkites.etable import (
    BACKGROUND,
    MAX_SIDE,
    PALETTES,
    EmanationTable,
    build_et,
    et_stats,
    flipbook,
    parse_text,
    render_csv,
    render_image,
    render_text,
)

LVL4, LVL5, LVL6 = Level(4), Level(5), Level(6)

S4_TEXT = """N 4 S 4
  1 2 3 5 6 7
1 . 3 2 . 7 6
2 3 . 1 7 . 5
3 2 1 . 6 5 .
5 . 7 6 . 3 2
6 7 . 5 3 . 1
7 6 5 . 2 1 .
"""


@pytest.mark.parametrize(
    "read",
    [render_text, render_csv, render_image, lambda et: et.grid, et_stats],
    ids=["render_text", "render_csv", "render_image", "grid", "et_stats"],
)
def test_a_table_whose_cells_do_not_fill_its_axis_is_refused(read):
    # an n = 4 table with its last 7 codes cut, or its axis one short: every
    # construction path refuses it, so no reader gets a cut grid to print
    et = build_et(LVL4, 4)
    cut = et.cells[:-7]
    fields = (et.lvl, et.s, et.axis, cut)
    for build in (
        lambda: EmanationTable(*fields),
        lambda: EmanationTable._make(fields),
        lambda: EmanationTable._make(iter(fields)),
        lambda: et._replace(cells=cut),
    ):
        with pytest.raises(ValueError, match=r"^a 6-cell axis needs 36 cell codes: 29$"):
            read(build())
    with pytest.raises(ValueError, match=r"^a 5-cell axis needs 25 cell codes: 36$"):
        read(et._replace(axis=et.axis[:-1]))


def test_build_et_refuses_below_sedenions():
    with pytest.raises(ValueError):
        build_et(Level(3), 1)
    with pytest.raises(ValueError):
        build_et(LVL4, 0)
    with pytest.raises(ValueError):
        build_et(LVL4, 8)


def test_golden_table_s4():
    et = build_et(LVL4, 4)
    assert et.axis == (1, 2, 3, 5, 6, 7)
    assert render_text(et) == S4_TEXT
    assert et.cell(1, 2) == 3
    for r, c in ((1, 5), (2, 6), (3, 7), (5, 1), (6, 2), (7, 3)):
        assert et.cell(r, c) is None


def test_sedenion_hidden_law():
    # through 16 dimensions cells hide exactly on the diagonal and struts
    for s in range(1, 8):
        et = build_et(LVL4, s)
        for i, r in enumerate(et.axis):
            for j, c in enumerate(et.axis):
                v = et.grid[i][j]
                if r == c or r ^ c == s:
                    assert v is None
                else:
                    assert v == r ^ c


def test_xor_fill_and_symmetry():
    tables = [build_et(LVL4, s) for s in range(1, 8)]
    tables += [build_et(LVL5, s) for s in range(1, 16)]
    for et in tables:
        for r, c, v in et.filled_cells():
            assert v == r ^ c
            assert et.cell(c, r) == v
        for i, r in enumerate(et.axis):
            assert et.grid[i][i] is None
        for r, c, _ in et.filled_cells():
            assert r ^ c != et.s


def _set_probe_grid(lvl, s):
    """The set-probe construction build_et replaced, kept as its oracle: (axis, grid)."""
    planes = zd.cluster(lvl, s)
    axis = tuple(a.lo for a in planes)
    zero = set()
    for a, b in combinations(planes, 2):
        if zd.dmz_pattern(a, b) is not None:
            zero.update(((a.lo, b.lo), (b.lo, a.lo)))
    return axis, tuple(tuple(r ^ c if (r, c) in zero else None for c in axis) for r in axis)


def _kernel_calls(monkeypatch):
    """Count etable's zd.relation calls and every exact product taken in zd."""
    calls = {"relation": 0, "dmz_pattern": 0, "mul_element": 0}

    def counting(name, kernel):
        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)

        return wrapper

    monkeypatch.setattr(etable, "relation", counting("relation", zd.relation))
    for name in ("dmz_pattern", "mul_element"):
        monkeypatch.setattr(zd, name, counting(name, getattr(zd, name)))
    return calls


@pytest.mark.parametrize(
    "lvl, constants",
    [
        (LVL4, range(1, 8)),
        (LVL5, range(1, 16)),
        (LVL6, (1, 8, 9, 15, 16, 17, 31)),
        # one table that is full and one Sky above the levels tested exhaustively
        (Level(7), (8, 37)),
    ],
    ids=["n4", "n5", "n6", "n7"],
)
def test_build_et_matches_the_set_probe_oracle(lvl, constants, monkeypatch):
    calls = _kernel_calls(monkeypatch)
    for s in constants:
        calls.update(relation=0, dmz_pattern=0, mul_element=0)
        et = build_et(lvl, s)
        assert calls == {"relation": 1, "dmz_pattern": 0, "mul_element": 0}, s
        assert (et.axis, et.grid) == _set_probe_grid(lvl, s), s


def test_build_et_n5_s3_decides_each_pair_once(monkeypatch):
    calls = _kernel_calls(monkeypatch)
    et = build_et(LVL5, 3)
    assert calls == {"relation": 1, "dmz_pattern": 0, "mul_element": 0}
    assert sum(1 for _ in et.filled_cells()) == 168  # 84 zero pairs of the C(14, 2)


def test_stats_counts():
    from fractions import Fraction

    st4 = et_stats(build_et(LVL4, 4))
    assert (st4.filled, st4.hidden, st4.density) == (24, 12, Fraction(2, 3))
    st9 = et_stats(build_et(LVL5, 9))
    assert (st9.filled, st9.hidden, st9.density) == (72, 124, Fraction(18, 49))
    st1 = et_stats(build_et(LVL5, 1))
    assert (st1.filled, st1.hidden, st1.density) == (168, 28, Fraction(6, 7))


def test_pathion_high_strut_overflow_hides_more_cells():
    for s in range(9, 16):
        st = et_stats(build_et(LVL5, s))
        assert st.hidden > 2 * 14  # beyond the diagonal and strut cells


def test_et_matches_census_edges(pathion_surveys):
    for s, sv in pathion_surveys.items():
        et = build_et(LVL5, s)
        filled = {(r, c) for r, c, _ in et.filled_cells()}
        edges = set()
        for bk in sv.kites:
            for l1, l2, _ in bk.edge_colors:
                u, v = bk.assessor(l1).lo, bk.assessor(l2).lo
                edges.add((u, v))
                edges.add((v, u))
        assert filled == edges, s
        assert len(filled) == 24 * len(sv.kites)


def test_text_roundtrip():
    for lvl, s in ((LVL4, 4), (LVL4, 7), (LVL5, 3), (LVL5, 9)):
        et = build_et(lvl, s)
        assert parse_text(render_text(et)) == et


def test_parse_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_text("")
    with pytest.raises(ValueError):
        parse_text("X 4 S 4\n1 2\n")
    good = render_text(build_et(LVL4, 4))
    with pytest.raises(ValueError):
        parse_text(good.rsplit("\n", 2)[0])  # a grid row chopped off
    row1 = "1 . 3 2 . 7 6\n"
    bad = {
        "header only": "N 4 S 4\n",
        "wrong axis and value": "N 4 S 4\n1 2\n1 . 9\n2 3 .\n",
        "0 on the diagonal": S4_TEXT.replace(row1, "1 0 3 2 . 7 6\n"),
        "0 off the diagonal": S4_TEXT.replace(row1, "1 . 0 2 . 7 6\n"),
        "a value other than r ^ c": S4_TEXT.replace(row1, "1 . 3 2 . 7 5\n"),
        "a row label off the axis": S4_TEXT.replace(row1, "4 . 3 2 . 7 6\n"),
        "the strut constant on the axis": S4_TEXT.replace("  1 2 3 5", "  1 2 3 4"),
        "a level above the ceiling": S4_TEXT.replace("N 4", "N 99999"),
        "a level without zero divisors": S4_TEXT.replace("N 4", "N 3"),
        "s out of range": S4_TEXT.replace("S 4", "S 8"),
        "a word for a number": S4_TEXT.replace("N 4", "N four"),
        "a signed number": S4_TEXT.replace(row1, "1 . +3 2 . 7 6\n"),
    }
    for why, text in bad.items():
        with pytest.raises(ValueError) as refusal:
            parse_text(text)
        assert str(refusal.value) and "\n" not in str(refusal.value), why


def test_csv_export():
    et = build_et(LVL4, 4)
    lines = render_csv(et).splitlines()
    assert lines[0] == ",1,2,3,5,6,7"
    assert lines[1] == "1,,3,2,,7,6"
    assert len(lines) == 7


def test_render_image_golden_row():
    et = build_et(LVL4, 4)
    ppm = render_image(et, palette="gray")
    lines = ppm.splitlines()
    assert lines[:3] == ["P3", "6 6", "255"]
    # row for L-index 1: hidden,3,2,hidden,7,6 under 255*v//7 gray
    assert lines[3] == "0 0 0 109 109 109 72 72 72 0 0 0 255 255 255 218 218 218"


def test_render_image_properties():
    et = build_et(LVL5, 9)
    ppm = render_image(et)
    lines = ppm.splitlines()
    assert lines[:3] == ["P3", "14 14", "255"]
    assert len(lines) == 3 + 14
    assert render_image(et) == ppm  # deterministic
    scaled = render_image(et, scale=3)
    assert scaled.splitlines()[1] == "42 42"
    with pytest.raises(ValueError):
        render_image(et, palette="neon")
    with pytest.raises(ValueError):
        render_image(et, scale=0)
    with pytest.raises(ValueError, match="limit is 2048"):
        render_image(et, scale=10**6)
    with pytest.raises(ValueError, match="2058 pixels"):
        render_image(et, scale=MAX_SIDE // 14 + 1)  # one step past the widest


def _per_pixel_image(et, palette="rainbow", scale=1):
    """The per-pixel loop render_image replaced, kept as its oracle."""
    color_of = PALETTES[palette]
    g = et.lvl.g
    side = len(et.axis) * scale
    lines = ["P3", f"{side} {side}", "255"]
    for row in et.grid:
        pixels = []
        for v in row:
            rgb = BACKGROUND if v is None else color_of(v, g)
            pixels.extend([f"{rgb[0]} {rgb[1]} {rgb[2]}"] * scale)
        line = " ".join(pixels)
        lines.extend([line] * scale)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "lvl, s, sky",
    [
        (LVL4, 4, False),
        (LVL4, 7, False),
        (LVL5, 3, False),
        (LVL5, 9, True),
        (LVL5, 15, True),
        (LVL6, 8, False),
        (LVL6, 17, True),
        (LVL6, 31, True),
    ],
    ids=["n4s4", "n4s7", "n5s3", "n5s9", "n5s15", "n6s8", "n6s17", "n6s31"],
)
def test_render_image_matches_the_per_pixel_oracle(lvl, s, sky):
    et = build_et(lvl, s)
    # a Sky table hides cells beyond its diagonal and strut cells
    hidden = sum(v is None for row in et.grid for v in row)
    assert (hidden > 2 * len(et.axis)) == sky
    for palette in sorted(PALETTES):
        for scale in (1, 2, 3):
            assert render_image(et, palette, scale) == _per_pixel_image(et, palette, scale), (
                palette,
                scale,
            )


class _GridTable(NamedTuple):
    """A table as the grid of values build_et made before cell codes."""

    lvl: Level
    s: int
    axis: tuple[int, ...]
    grid: tuple[tuple[int | None, ...], ...]


def _generator_table(lvl, s):
    """The per-cell generator build_et replaced, kept as its oracle."""
    zero, g = zd.relation(lvl, s).zero, lvl.g
    axis = tuple(k for k in range(1, g) if k != s)
    grid = tuple(tuple(r ^ c if zero >> r * g + c & 1 else None for c in axis) for r in axis)
    return _GridTable(lvl, s, axis, grid)


def _per_cell_text(et):
    """The per-cell render_text replaced by token joins, kept as its oracle."""
    w = max(len(str(v)) for v in et.axis)
    lines = [f"N {et.lvl.n} S {et.s}"]
    lines.append(" " * w + " " + " ".join(f"{v:>{w}}" for v in et.axis))
    for r, row in zip(et.axis, et.grid):
        cells = " ".join(f"{'.' if v is None else v:>{w}}" for v in row)
        lines.append(f"{r:>{w}} {cells}")
    return "\n".join(lines) + "\n"


def _per_cell_csv(et):
    """The per-cell render_csv replaced by token joins, kept as its oracle."""
    lines = ["," + ",".join(str(v) for v in et.axis)]
    for r, row in zip(et.axis, et.grid):
        lines.append(f"{r}," + ",".join("" if v is None else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _check_codes_and_bytes(lvl, s):
    et, old = build_et(lvl, s), _generator_table(lvl, s)
    assert (et.lvl, et.s, et.axis, et.grid) == old
    filled = [(r, c, v) for r, row in zip(old.axis, old.grid) for c, v in zip(old.axis, row) if v]
    assert list(et.filled_cells()) == filled
    st = et_stats(et)
    assert (st.filled, st.hidden) == (len(filled), len(old.axis) ** 2 - len(filled))
    r, c, v = filled[0]
    assert (et.cell(r, c), et.cell(r, r)) == (v, None)
    text = render_text(et)
    assert text == _per_cell_text(old)
    assert parse_text(text) == et
    assert render_csv(et) == _per_cell_csv(old)
    for palette in sorted(PALETTES):
        for scale in (1, 3):
            assert render_image(et, palette, scale) == _per_pixel_image(old, palette, scale), (
                palette,
                scale,
            )


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cell_codes_and_renderings_match_the_per_cell_oracles(n):
    lvl = Level(n)
    for s in range(1, lvl.g):
        _check_codes_and_bytes(lvl, s)


@pytest.mark.parametrize("n", [7, 8])
def test_cell_codes_and_renderings_match_the_per_cell_oracles_on_samples(n):
    lvl = Level(n)
    for s in random.Random(n).sample(range(1, lvl.g), 6):
        _check_codes_and_bytes(lvl, s)


def test_cell_codes_fit_in_a_byte_up_to_the_ceiling():
    top = Level(cdp.MEMO_MAX_N)
    assert top.g <= 256, (
        f"ET cell codes are bytes, which hold values below 256, but level "
        f"{top.n} has L-indices up to {top.g - 1}: widen the codes before "
        f"raising cdp.MEMO_MAX_N"
    )


def test_cell_codes_leave_the_row_end_marker_free_up_to_the_ceiling():
    top = Level(cdp.MEMO_MAX_N)
    assert top.g <= 128, (
        f"etable._pixmap marks each row's last cell code with bit 7 (the row-end "
        f"marker, 128), which needs every code below 128, but level {top.n} has "
        f"L-indices up to {top.g - 1}: move the row-end marker before raising "
        f"cdp.MEMO_MAX_N"
    )


@pytest.mark.parametrize("n", [7, 8])
def test_flipbook_pages_match_render_image_and_the_per_pixel_oracle(n, tmp_path):
    # at n = 8, g = 128 and the tokens fill all 256 code points
    lvl = Level(n)
    if n == 7:
        spans = [(1, lvl.g - 1)]
    else:
        spans = [(s, s) for s in random.Random(n).sample(range(1, lvl.g), 8)]
    for palette in sorted(PALETTES):
        for scale in (1, 3):
            for lo, hi in spans:
                pages = flipbook(lvl, lo, hi, tmp_path / f"{palette}{scale}_{lo}", palette, scale)
                for s, path in zip(range(lo, hi + 1), pages):
                    page, et = path.read_text(encoding="utf-8"), build_et(lvl, s)
                    assert page == render_image(et, palette, scale), (s, palette, scale)
                    assert page == _per_pixel_image(et, palette, scale), (s, palette, scale)


@pytest.mark.parametrize("n, bad", [(5, 16), (5, 130), (5, 255), (8, 128), (8, 133), (8, 255)])
@pytest.mark.parametrize("where", ["first column", "last column"])
def test_render_image_refuses_a_cell_code_not_below_g(n, bad, where):
    # from 128 on, a code in the last column would pass for a row end
    et = build_et(Level(n), 3)
    cols = len(et.axis)
    cells = bytearray(et.cells)
    cells[2 * cols + (0 if where == "first column" else cols - 1)] = bad
    doctored = et._replace(cells=bytes(cells))
    for scale in (1, 3):
        with pytest.raises(ValueError, match=f"^cell code {bad} is not below g = {et.lvl.g}$"):
            render_image(doctored, scale=scale)


def test_image_refusals_come_before_any_token_or_directory(monkeypatch, tmp_path):
    built = []
    monkeypatch.setattr(etable, "_tokens", lambda *args: built.append(args))
    et = build_et(LVL5, 9)
    book = tmp_path / "book"
    for kwargs, match in [
        ({"palette": "neon", "scale": 0}, "unknown palette 'neon'"),  # the palette first
        ({"palette": "neon", "scale": 10**6}, "unknown palette 'neon'"),
        ({"scale": 0}, "scale must be positive"),
        ({"scale": 10**6}, "limit is 2048"),
    ]:
        with pytest.raises(ValueError, match=match):
            render_image(et, **kwargs)
        with pytest.raises(ValueError, match=match):
            flipbook(LVL5, 1, 3, book, **kwargs)
        assert not book.exists(), kwargs
    assert built == []


def test_palette_functions_are_pure():
    for name, fn in PALETTES.items():
        for v in range(1, 16):
            rgb = fn(v, 16)
            assert all(0 <= c <= 255 for c in rgb)
            assert fn(v, 16) == rgb


def test_hidden_strut_cells_make_antidiagonal_band():
    et = build_et(LVL4, 1)
    for i, r in enumerate(et.axis):
        for j, c in enumerate(et.axis):
            if r ^ c == 1:
                assert et.grid[i][j] is None


def test_flipbook(tmp_path):
    pages = flipbook(LVL5, 9, 15, tmp_path / "book")
    assert [p.name for p in pages] == [f"et_n5_s{s:02d}.ppm" for s in range(9, 16)]
    manifest = (tmp_path / "book" / "manifest.txt").read_text()
    assert manifest.splitlines() == [f"5 {s} et_n5_s{s:02d}.ppm" for s in range(9, 16)]
    again = flipbook(LVL5, 9, 15, tmp_path / "book2")
    for a, b in zip(pages, again):
        assert a.read_bytes() == b.read_bytes()


def test_flipbook_sedenion(tmp_path):
    pages = flipbook(LVL4, 1, 7, tmp_path)
    assert len(pages) == 7
    assert pages[0].name == "et_n4_s1.ppm"


def test_flipbook_bad_ranges(tmp_path):
    with pytest.raises(ValueError):
        flipbook(LVL5, 15, 9, tmp_path)
    with pytest.raises(ValueError):
        flipbook(LVL5, 0, 3, tmp_path)
    with pytest.raises(ValueError):
        flipbook(LVL5, 1, 16, tmp_path)


def test_cell_lookup_by_index():
    et = build_et(LVL4, 4)
    assert et.cell(6, 1) == 7
    with pytest.raises(ValueError):
        et.cell(4, 1)  # the strut constant is not on the axis


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_tables_are_full_exactly_off_the_sky(n):
    # every S > 8 that is not a power of 2 generates a Sky: its table hides
    # cells beyond the diagonal and the strut partners, and no other does
    lvl = Level(n)
    full = (lvl.g - 2) * (lvl.g - 4)
    for s in range(1, lvl.g):
        fill = sum(1 for _ in build_et(lvl, s).filled_cells())
        assert fill <= full
        assert (fill == full) == (s <= 8 or s & (s - 1) == 0), (n, s, fill)


@cache
def _fills(n):
    """fill(n, s) for every s: the filled cells of ET(n, s), read off its relation."""
    lvl = Level(n)
    return {s: zd.relation(lvl, s).zero.bit_count() for s in range(1, lvl.g)}


def _fill_class(s):
    """c(s): the bits of s above bit 3, less their lowest when s & 7 is 0."""
    m = s >> 3
    return m if s & 7 else m & (m - 1)


def _fills_by_class(n):
    classes = {}
    for s, fill in _fills(n).items():
        classes.setdefault(_fill_class(s), set()).add(fill)
    return classes


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_fill_depends_only_on_the_bits_of_s_above_bit_3(n):
    classes = _fills_by_class(n)
    assert sorted(classes) == list(range(2 ** (n - 4)))
    assert all(len(fills) == 1 for fills in classes.values()), classes


def test_balloon_rides_and_complements_give_every_fill_class():
    # from fill(4, 0) = full(4) = 24, with h = 2^(n-5): a class below h rides
    # the balloon, 4 fill(n-1, c) + 24 (2^(n-3) - 1); one at or above h is
    # the complement of 4 fill(n-1, c-h) in the full table
    predicted = {(4, 0): 24}
    for n in range(5, 9):
        g, h = 2 ** (n - 1), 2 ** (n - 5)
        full = (g - 2) * (g - 4)
        for c in range(2 * h):
            if c < h:
                predicted[n, c] = 4 * predicted[n - 1, c] + 24 * (2 ** (n - 3) - 1)
            else:
                predicted[n, c] = full - 4 * predicted[n - 1, c - h]
    measured = {
        (n, c): fill for n in range(5, 9) for c, (fill,) in _fills_by_class(n).items()
    }
    assert len(measured) == 30
    assert measured == {key: v for key, v in predicted.items() if key[0] >= 5}
    assert measured[8, 9] == 6888


@pytest.mark.parametrize("n", [5, 6, 7])
def test_each_table_embeds_in_the_next_level(n):
    # ET(n+1, s) restricted to the L-indices below g_n is ET(n, s)
    lvl, up = Level(n), Level(n + 1)
    g, below = lvl.g, (1 << lvl.g) - 1
    for s in range(1, g):
        zero, zero_up = zd.relation(lvl, s).zero, zd.relation(up, s).zero
        rows = [zero >> r * g & below for r in range(g)]
        assert [zero_up >> r * up.g & below for r in range(g)] == rows and zero >> g * g == 0, s
