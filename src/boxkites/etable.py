"""Emanation tables: the zero-making relation over low indices as a grid.

For a fixed level and strut constant, rows and columns run over the low
indices other than the strut constant, each standing for the assessor
plane that index spans (U-index fixed by XOR with generator + strut).
A cell holds the XOR of its row and column exactly when the two planes
make zero, else it is hidden; the table is a rendering of the cluster's
``zd.relation``.  Grids render as text, CSV, or plain portable pixmaps;
every rendering is byte-deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .cdp import Level
from .zd import check_span, relation

HIDDEN = None


@dataclass(frozen=True, slots=True)
class EmanationTable:
    lvl: Level
    s: int
    axis: tuple[int, ...]
    grid: tuple[tuple[int | None, ...], ...]

    def cell(self, r: int, c: int) -> int | None:
        """Cell addressed by L-indices (not grid positions)."""
        return self.grid[self.axis.index(r)][self.axis.index(c)]

    def filled_cells(self):
        """Iterate (row_index, col_index, value) over filled cells."""
        for i, r in enumerate(self.axis):
            for j, c in enumerate(self.axis):
                v = self.grid[i][j]
                if v is not None:
                    yield (r, c, v)


@dataclass(frozen=True, slots=True)
class EtStats:
    filled: int
    hidden: int
    density: Fraction


def build_et(lvl: Level, s: int) -> EmanationTable:
    """Render the cluster's exact zero relation as a grid.

    One ``zd.relation`` call checks the level and s, and decides every
    plane pair from the exact sign table.  The axis is the cluster's
    L-indices, 1..g-1 without s; row r fills cell c with r ^ c for each
    set bit c of its zero mask, and every other cell stays hidden.
    """
    zero = relation(lvl, s).zero
    axis = tuple(k for k in range(1, lvl.g) if k != s)
    grid = tuple(tuple(r ^ c if zero[r] >> c & 1 else HIDDEN for c in axis) for r in axis)
    return EmanationTable(lvl, s, axis, grid)


def et_stats(et: EmanationTable) -> EtStats:
    """Filled and hidden cell counts, and the filled share of the grid."""
    total = len(et.axis) ** 2
    filled = sum(1 for _ in et.filled_cells())
    return EtStats(
        filled=filled,
        hidden=total - filled,
        density=Fraction(filled, total),
    )


def render_text(et: EmanationTable) -> str:
    """Fixed-width text grid; hidden cells print as '.'."""
    w = max(len(str(v)) for v in et.axis)
    lines = [f"N {et.lvl.n} S {et.s}"]
    lines.append(" " * w + " " + " ".join(f"{v:>{w}}" for v in et.axis))
    for r, row in zip(et.axis, et.grid):
        cells = " ".join(f"{'.' if v is None else v:>{w}}" for v in row)
        lines.append(f"{r:>{w}} {cells}")
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> EmanationTable:
    """Inverse of render_text."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty table text")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "N" or head[2] != "S":
        raise ValueError(f"bad header line: {lines[0]!r}")
    lvl, s = Level(int(head[1])), int(head[3])
    axis = tuple(int(tok) for tok in lines[1].split())
    rows = []
    if len(lines) != 2 + len(axis):
        raise ValueError(f"expected {len(axis)} grid rows, found {len(lines) - 2}")
    for ln in lines[2:]:
        toks = ln.split()
        if len(toks) != 1 + len(axis):
            raise ValueError(f"bad grid row: {ln!r}")
        rows.append(tuple(None if tok == "." else int(tok) for tok in toks[1:]))
    if tuple(int(ln.split()[0]) for ln in lines[2:]) != axis:
        raise ValueError("row labels do not match the axis")
    return EmanationTable(lvl, s, axis, tuple(rows))


def render_csv(et: EmanationTable) -> str:
    """Spreadsheet export: header row/column of L-indices, empty = hidden."""
    lines = ["," + ",".join(str(v) for v in et.axis)]
    for r, row in zip(et.axis, et.grid):
        lines.append(f"{r}," + ",".join("" if v is None else str(v) for v in row))
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
    distinct cell value's block row (its color repeated scale times) is
    formatted once per table and every row is joined from those.  The
    output is plain text, so identical inputs give identical bytes.
    """
    try:
        color_of = PALETTES[palette]
    except KeyError:
        raise ValueError(f"unknown palette {palette!r}; have {sorted(PALETTES)}") from None
    _check_scale(len(et.axis), scale)
    g = et.lvl.g
    side = len(et.axis) * scale
    blocks: dict[int | None, str] = {}
    for v in set().union(*et.grid):
        rgb = BACKGROUND if v is None else color_of(v, g)
        blocks[v] = " ".join([f"{rgb[0]} {rgb[1]} {rgb[2]}"] * scale)
    lines = ["P3", f"{side} {side}", "255"]
    for row in et.grid:
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
