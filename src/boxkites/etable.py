"""Emanation tables: the zero-making relation over low indices as a grid.

For a fixed level and strut constant, rows and columns run over the low
indices other than the strut constant, each standing for the assessor
plane that index spans (U-index fixed by XOR with generator + strut).
A cell holds the XOR of its row and column exactly when the two planes
make zero, else it is hidden; the table is a rendering of the cluster's
``zd.relation``.  A table is held as one byte string of cell codes, the
cell's value or 0 when hidden, made from the relation's bit rows by
whole-word operations.  Grids render as text, CSV, or plain portable
pixmaps, each from one token per code; every rendering is
byte-deterministic.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import NamedTuple

from .cdp import Level
from .zd import check_span, check_strut, relation

HIDDEN = None


class EmanationTable(NamedTuple):
    """One table: ``cells`` holds len(axis)^2 cell codes, row-major over the axis.

    A code is the cell's value r ^ c where the planes r and c make zero
    and 0 where the cell is hidden.  Off the diagonal r ^ c is never 0,
    and the diagonal is always hidden, so 0 is free to mark hidden cells.
    """

    lvl: Level
    s: int
    axis: tuple[int, ...]
    cells: bytes

    @property
    def grid(self) -> tuple[tuple[int | None, ...], ...]:
        """The cells as rows of values, HIDDEN (None) where hidden."""
        return tuple(tuple(v or HIDDEN for v in row) for _, row in _rows(self))

    def cell(self, r: int, c: int) -> int | None:
        """Cell addressed by L-indices (not grid positions)."""
        axis = self.axis
        return self.cells[axis.index(r) * len(axis) + axis.index(c)] or HIDDEN

    def filled_cells(self):
        """Iterate (row_index, col_index, value) over filled cells."""
        axis = self.axis
        for r, row in _rows(self):
            for c, v in zip(axis, row):
                if v:
                    yield (r, c, v)


def _rows(et: EmanationTable):
    """Iterate (row L-index, row of cell codes) in axis order."""
    side = len(et.axis)
    return zip(et.axis, (et.cells[i : i + side] for i in range(0, side * side, side)))


class EtStats(NamedTuple):
    filled: int
    hidden: int
    density: Fraction


#: spreads a string of bits to one byte per bit: '1' to 0xff, '0' to 0
_SPREAD = bytes.maketrans(b"01", b"\x00\xff")


def build_et(lvl: Level, s: int) -> EmanationTable:
    """Render the cluster's exact zero relation as cell codes.

    One ``zd.relation`` call checks the level and s, and decides every
    plane pair from the exact sign table.  The axis is the cluster's
    L-indices, 1..g-1 without s; cell (r, c) holds r ^ c when bit c of
    the zero row of r is set, and 0 (hidden) otherwise.

    Word form.  Lay out a g x g byte matrix, cell (r, c) at byte r*g + c
    of a big-endian int, over r, c < g.  As g is at most
    2^(MEMO_MAX_N - 1) = 128, every r ^ c fits in a byte.  The column
    ramp 0..g-1 repeated g times holds c at byte r*g + c, and each row
    index repeated g times holds r there.  XOR acts bit by bit and has
    no carries, so the bytes stay separate and the XOR of the two words
    holds r ^ c at byte r*g + c.  format(m, "0{g}b") writes bit c of a
    row m at character g-1-c, so joining the rows from g-1 down to 0 and
    reversing the string puts bit c of row r at character r*g + c;
    translating '1' to 0xff and '0' to 0 spreads it to that byte.  The
    AND of the two words then holds r ^ c exactly where the pair makes
    zero and 0 elsewhere.  The relation never sets a bit in row or
    column 0 or in row or column s.  A diagonal code r ^ r is 0 whatever
    the relation holds there (a plane against itself, set only where
    Theorem 4 fails), and off the diagonal r ^ c is never 0, so a code
    is 0 exactly where the cell is hidden.  Deleting rows s and 0 and
    then, from each remaining row, columns 0 and s leaves the axis x
    axis cells in row-major order.
    The tests hold the codes equal to a cell-by-cell reading of the
    relation and to dmz_pattern's exact products.
    """
    zero = relation(lvl, s).zero
    g = lvl.g
    bits = "".join([format(m, f"0{g}b") for m in reversed(zero)])[::-1]
    mask = int.from_bytes(bits.encode().translate(_SPREAD), "big")
    codes = bytearray((_xor_word(g) & mask).to_bytes(g * g, "big"))
    del codes[s * g : (s + 1) * g]  # row s
    del codes[:g]  # row 0
    del codes[::g]  # column 0: rows are now g - 1 wide
    del codes[s - 1 :: g - 1]  # column s
    axis = tuple(k for k in range(1, g) if k != s)
    return EmanationTable(lvl, s, axis, bytes(codes))


@cache
def _xor_word(g: int) -> int:
    """The g x g byte matrix holding r ^ c at byte r*g + c, as a big-endian int.

    It depends on the level alone, so it is built by the first call and kept.
    """
    ramp = bytes(range(g))
    rows = b"".join([bytes([r]) * g for r in range(g)])
    return int.from_bytes(ramp * g, "big") ^ int.from_bytes(rows, "big")


def et_stats(et: EmanationTable) -> EtStats:
    """Filled and hidden cell counts, and the filled share of the grid."""
    total = len(et.cells)
    filled = total - et.cells.count(0)
    return EtStats(
        filled=filled,
        hidden=total - filled,
        density=Fraction(filled, total),
    )


def render_text(et: EmanationTable) -> str:
    """Fixed-width text grid; hidden cells print as '.'."""
    w = max(len(str(v)) for v in et.axis)
    tokens = [f"{'.':>{w}}"] + [f"{v:>{w}}" for v in range(1, et.lvl.g)]
    lines = [f"N {et.lvl.n} S {et.s}"]
    lines.append(" " * w + " " + " ".join(map(tokens.__getitem__, et.axis)))
    for r, row in _rows(et):
        lines.append(f"{r:>{w}} " + " ".join(map(tokens.__getitem__, row)))
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> EmanationTable:
    """Inverse of render_text; text that no table can hold is refused in one line.

    The level and s must pass zd.check_strut, the axis and the row
    labels must run over 1..g-1 without s, and each cell must be '.' or
    the decimal r ^ c of its row and column (never 0), so that every
    table parsed can be held as cell codes.  Which cells are filled is
    not checked against the relation.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty table text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "N" or head[2] != "S":
        raise ValueError(f"bad header line: {lines[0]!r}")
    lvl, s = Level(_int(head[1])), _int(head[3])
    check_strut(lvl, s)
    if len(lines) < 2:
        raise ValueError("no axis line after the header")
    axis = tuple(k for k in range(1, lvl.g) if k != s)
    if tuple(_int(tok) for tok in lines[1].split()) != axis:
        raise ValueError(f"axis must be 1..{lvl.g - 1} without {s}: {lines[1]!r}")
    if len(lines) != 2 + len(axis):
        raise ValueError(f"expected {len(axis)} grid rows, found {len(lines) - 2}")
    codes = bytearray()
    for r, ln in zip(axis, lines[2:]):
        toks = ln.split()
        if len(toks) != 1 + len(axis):
            raise ValueError(f"bad grid row: {ln!r}")
        if _int(toks[0]) != r:
            raise ValueError("row labels do not match the axis")
        for c, tok in zip(axis, toks[1:]):
            if tok == ".":
                codes.append(0)
            elif _int(tok) == r ^ c and r != c:
                codes.append(r ^ c)
            else:
                want = "'.'" if r == c else f"'.' or {r ^ c}"
                raise ValueError(f"cell ({r}, {c}) must be {want}: {tok!r}")
    return EmanationTable(lvl, s, axis, bytes(codes))


def _int(tok: str) -> int:
    """A decimal token as an int, refused in one line when it is not one."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"not a decimal number: {tok!r}")
    return int(tok)


def render_csv(et: EmanationTable) -> str:
    """Spreadsheet export: header row/column of L-indices, empty = hidden."""
    tokens = [""] + [str(v) for v in range(1, et.lvl.g)]
    lines = ["," + ",".join(map(tokens.__getitem__, et.axis))]
    for r, row in _rows(et):
        lines.append(f"{r}," + ",".join(map(tokens.__getitem__, row)))
    return "\n".join(lines) + "\n"


BACKGROUND = (0, 0, 0)


def _hue_rgb(hue: int) -> tuple[int, int, int]:
    """Fully saturated hue (degrees) to RGB, all-integer arithmetic."""
    h = hue % 360
    f = h % 60
    q = 255 - 255 * f // 60
    t = 255 * f // 60
    return ((255, t, 0), (q, 255, 0), (0, 255, t), (0, q, 255), (t, 0, 255), (255, 0, q))[h // 60]


def _rainbow(v: int, g: int) -> tuple[int, int, int]:
    return _hue_rgb((v - 1) * 360 // (g - 1))


def _gray(v: int, g: int) -> tuple[int, int, int]:
    level = 255 * v // (g - 1)
    return (level, level, level)


PALETTES = {"rainbow": _rainbow, "gray": _gray}

#: the widest pixmap rendered, in pixels on a side
MAX_SIDE = 2048


def _check_scale(cells: int, scale: int) -> None:
    """Refuse a scale below 1, or one that makes a pixmap wider than MAX_SIDE."""
    if scale < 1:
        raise ValueError(f"scale must be positive: {scale}")
    if cells * scale > MAX_SIDE:
        raise ValueError(
            f"scale {scale} makes a {cells}-cell table {cells * scale} pixels wide; "
            f"the limit is {MAX_SIDE}"
        )


def render_image(et: EmanationTable, palette: str = "rainbow", scale: int = 1) -> str:
    """Plain portable pixmap (P3) of the grid, one scale^2 block per cell.

    Hidden cells take the black background; a filled value v takes the
    named palette's color, a pure function of v and the generator.  Each
    code's block row (its color repeated scale times) is formatted once
    per table and every row is joined from those.  The output is plain
    text, so identical inputs give identical bytes.
    """
    try:
        color_of = PALETTES[palette]
    except KeyError:
        raise ValueError(f"unknown palette {palette!r}; have {sorted(PALETTES)}") from None
    _check_scale(len(et.axis), scale)
    g = et.lvl.g
    side = len(et.axis) * scale
    colors = [BACKGROUND] + [color_of(v, g) for v in range(1, g)]
    blocks = [" ".join([f"{rgb[0]} {rgb[1]} {rgb[2]}"] * scale) for rgb in colors]
    lines = ["P3", f"{side} {side}", "255"]
    for _, row in _rows(et):
        lines.extend([" ".join(map(blocks.__getitem__, row))] * scale)
    return "\n".join(lines) + "\n"


def flipbook(
    lvl: Level,
    s_from: int,
    s_to: int,
    out_dir: str | os.PathLike,
    palette: str = "rainbow",
    scale: int = 1,
) -> list[Path]:
    """Write one pixmap per strut constant in the range, plus a manifest.

    Page files are named et_n{n}_s{s}.ppm with the strut constant padded
    to a fixed width, so directory order matches page order; the
    manifest lists "n s filename" per page.  Ranges must run forward and
    stay inside 1..g-1, and the scale is checked before anything is written.
    """
    check_span(lvl, s_from, s_to)
    _check_scale(lvl.g - 2, scale)  # every table has g - 2 cells on a side
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    width = len(str(lvl.g - 1))
    pages = []
    manifest_lines = []
    for s in range(s_from, s_to + 1):
        name = f"et_n{lvl.n}_s{s:0{width}d}.ppm"
        path = out / name
        path.write_text(render_image(build_et(lvl, s), palette=palette, scale=scale))
        manifest_lines.append(f"{lvl.n} {s} {name}")
        pages.append(path)
    (out / "manifest.txt").write_text("\n".join(manifest_lines) + "\n")
    return pages
