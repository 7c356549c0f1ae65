"""Command-line front end.

Every invocation is deterministic: identical inputs give byte-identical
output.  Bad flags exit 2 with a usage message; domain errors and output
paths that cannot be written exit 1 with a one-line diagnostic.  Signs
print as "+k"/"-k" with an ASCII minus, indices in decimal.  The default
level is n=4 (the sedenions).  Levels above n=8 are refused by the
library, whose sweeps all stop at cdp.MEMO_MAX_N; mul (one product) and
trips --count (a closed form, refused when too long for the interpreter
to print) answer at any level.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import cdp, etable, kites, theorems, trips, zd
from .cdp import Level

def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _parse_range(spec: str) -> tuple[int, int]:
    lo, sep, hi = spec.partition("..")
    if sep != ".." or not lo.isdigit() or not hi.isdigit():
        raise ValueError(f"range must look like a..b with integers: {spec!r}")
    return int(lo), int(hi)


def cmd_mul(args) -> int:
    sign, index = cdp.mul_basis(args.a, args.b, Level(args.n))
    print(f"{'+' if sign > 0 else '-'}{index}")
    return 0


def _printable_trip_count(n: int) -> int:
    """The trip count at level n, refused when it has too many digits to print.

    The count (2^n - 1)(2^n - 2)/6 lies between 4^n/16 and 4^n, so it has
    about 2n log10(2) digits, and more than (2n - 4) * 0.30102.  Past that
    bound n alone refuses it before it is computed; below it the count is
    small and is compared with 10^limit.  The limit is the interpreter's
    digit limit for int to str conversion, or its default when the limit
    is off (0), so the run stays bounded either way.
    """
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if (2 * n - 4) * 30102 < limit * 100_000:
        total = trips.trip_count(n).total
        if total < 10**limit:
            return total
    raise ValueError(f"the trip count at --n {n} has more than {limit} digits")


def cmd_trips(args) -> int:
    if args.count:
        print(_printable_trip_count(args.n))
        return 0
    lines = trips.trips_to_lines(trips.enumerate_trips(Level(args.n)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_assessors(args) -> int:
    groups = zd.cluster_indices(Level(args.n))
    if args.clusters:
        lines = [f"{s} {lo} {hi}" for s, pairs in groups.items() for lo, hi in pairs]
    else:
        # enumerate_assessors' order, (lo, hi), with no plane object built
        lines = [f"{lo} {hi}" for lo, hi in sorted([p for pairs in groups.values() for p in pairs])]
    _emit("\n".join(lines) + "\n" if lines else "", args.out)
    return 0


def _emit_blocks(blocks: Iterable[str], out: str | None) -> None:
    """Write each block as it is made, none held after it is written."""
    if out is None:
        sys.stdout.writelines(blocks)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.writelines(blocks)


def cmd_dmz(args) -> int:
    # written as it is formatted, one plane's lines at a time: at --n 8 the
    # report has 523,404 lines
    _emit_blocks(zd.dmz_report(Level(args.n), args.s), args.out)
    return 0


def cmd_boxkite(args) -> int:
    lvl = Level(args.n)
    if args.zigzag is not None:
        seed = tuple(int(tok) for tok in args.zigzag.split(","))
        dumps = [kites.build_boxkite(lvl, args.s, seed).dump()]
    else:
        found = kites.survey(lvl, args.s).kites
        if not found:
            raise ValueError(f"no box-kites at n={args.n}, s={args.s}")
        dumps = [bk.dump() for bk in found]
    _emit("\n".join(dumps), args.out)
    return 0


def cmd_census(args) -> int:
    lvl = Level(args.n)
    if args.s is not None:
        span = (args.s, args.s)
    elif args.range is not None:
        span = _parse_range(args.range)
    else:
        zd.check_strut(lvl, 1)  # refuses a level out of reach before g is built
        span = (1, lvl.g - 1)
    zd.check_span(lvl, *span)
    # written one cluster's lines at a time, as each survey returns, with
    # the totals last: every refusal above comes before the first byte, but
    # a ClassificationError from a later survey leaves the clusters before
    # it written, as dmz can
    _emit_blocks(_census_blocks(lvl, span), args.out)
    return 0


def _census_blocks(lvl: Level, span: tuple[int, int]) -> Iterator[str]:
    total = broken_total = 0
    g = lvl.g
    for s in range(span[0], span[1] + 1):
        sv = kites.survey(lvl, s)
        total += len(sv.kites)
        broken_total += len(sv.broken)
        # a strut's lower end is its end with bit h clear, h the top bit of s;
        # low[k] is the lower end of k's strut, and strut[p] the text of p's
        h = 1 << s.bit_length() - 1
        low = [k ^ s if k & h else k for k in range(g)]
        strut = {p: f"({p},{p ^ s})" for p in range(1, g) if not p & h}
        head = f"S={s} zigzag=("
        lines = []
        for bk in sv.kites:
            a, b, c = bk.los[:3]  # one end of each strut, as in BoxKite.strut_pairs
            p, q, r = low[a], low[b], low[c]
            if p > q:
                p, q = q, p
            if q > r:
                q, r = r, q
                if p > q:
                    p, q = q, p
            lines.append(f"{head}{a},{b},{c}) struts={strut[p]}{strut[q]}{strut[r]}\n")
        yield "".join(lines)
    yield f"{total} box-kite(s)\n"
    if broken_total:
        yield f"{broken_total} broken frame(s)\n"


def cmd_verify(args) -> int:
    results = theorems.run_suite(args.n)
    status = 0
    out = []
    for r in results:
        out.append(f"{r.name}: {'PASS' if r.passed else 'FAIL'}  {r.detail}")
        if not r.passed:
            status = 1
    _emit("\n".join(out) + "\n", args.out)
    return status


def cmd_et(args) -> int:
    et = etable.build_et(Level(args.n), args.s)
    if args.format == "text":
        _emit(etable.render_text(et), args.out)
    elif args.format == "csv":
        _emit(etable.render_csv(et), args.out)
    else:
        _emit(etable.render_image(et, palette=args.palette, scale=args.scale), args.out)
    return 0


def cmd_flipbook(args) -> int:
    s_from, s_to = _parse_range(args.range)
    pages = etable.flipbook(
        Level(args.n), s_from, s_to, args.out, palette=args.palette, scale=args.scale
    )
    for page in pages:
        print(f"wrote {page}")
    print(f"wrote {Path(args.out) / 'manifest.txt'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxkites",
        description="Exact Cayley-Dickson arithmetic and zero-divisor structure search.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--n", type=int, default=4, help="level exponent (default 4)")
        p.add_argument("--out", default=None, help="write output to this path")
        p.set_defaults(func=fn)
        return p

    p = add("mul", cmd_mul, "signed product of two basis units")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = add("trips", cmd_trips, "enumerate or count associative triplets")
    p.add_argument("--count", action="store_true", help="print the total only")

    p = add("assessors", cmd_assessors, "list candidate zero-divisor planes")
    p.add_argument("--clusters", action="store_true", help="prefix each plane with its strut constant")

    p = add("dmz", cmd_dmz, "list annihilating plane pairs")
    p.add_argument("--s", type=int, default=None, help="restrict to one strut constant")

    p = add("boxkite", cmd_boxkite, "dump box-kites for one strut constant")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--zigzag", default=None, help="seed trip a,b,c to build one specific kite")

    p = add("census", cmd_census, "count box-kites per strut constant")
    span = p.add_mutually_exclusive_group()
    span.add_argument("--s", type=int, default=None)
    span.add_argument("--range", default=None, help="strut constant range a..b")

    add("verify", cmd_verify, "run the theorem suites and print PASS/FAIL lines")

    p = add("et", cmd_et, "render one emanation table")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "image"), default="text")
    p.add_argument("--palette", choices=sorted(etable.PALETTES), default="rainbow")
    p.add_argument("--scale", type=int, default=1)

    p = add("flipbook", cmd_flipbook, "write a pixmap per strut constant in a range")
    p.add_argument("--range", required=True, help="strut constant range a..b")
    p.add_argument("--palette", choices=sorted(etable.PALETTES), default="rainbow")
    p.add_argument("--scale", type=int, default=1)
    # flipbook writes a directory, so --out is mandatory here
    for action in p._actions:
        if action.dest == "out":
            action.required = True
            action.help = "output directory"

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves it as it was, so every call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
