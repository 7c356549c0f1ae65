import argparse
import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import boxkites
from boxkites import cli, kites, theorems
from boxkites.cli import main

S4_DUMP_HEAD = "4 4\nA 1 13\nB 2 14\nC 3 15\nD 7 11\nE 6 10\nF 5 9\n"

#: the directory that holds the imported package (src/ in a checkout)
PKG_ROOT = str(Path(boxkites.__file__).resolve().parents[1])


def child_env(base):
    """A copy of ``base`` with PKG_ROOT at the head of PYTHONPATH.

    A ``python -m boxkites`` child then imports the same source as the
    in-process tests, whether or not the package is installed and
    whatever PYTHONPATH the caller set.
    """
    env = dict(base)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (PKG_ROOT, base.get("PYTHONPATH")) if p)
    return env


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "boxkites", *argv],
        capture_output=True,
        text=True,
        env=child_env(os.environ),
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_mul_default_level(capsys):
    assert main(["mul", "1", "2"]) == 0
    assert capsys.readouterr().out == "+3\n"


def test_mul_negative_sign(capsys):
    assert main(["mul", "--n", "3", "7", "1"]) == 0
    assert capsys.readouterr().out == "-6\n"


def test_trips_count(capsys):
    assert main(["trips", "--n", "5", "--count"]) == 0
    assert capsys.readouterr().out == "155\n"


def test_trips_lines(capsys):
    assert main(["trips", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("1 2 3 good\n")
    assert len(out.splitlines()) == 7


def test_assessors(capsys):
    assert main(["assessors"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 42
    assert main(["assessors", "--clusters"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 42 and lines[0].split()[0] == "1"


def test_dmz_scan(capsys):
    assert main(["dmz", "--n", "4", "--s", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert "1 13 2 14 opposite" in lines
    assert main(["dmz", "--n", "3"]) == 0  # no zero divisors: nothing to list
    assert capsys.readouterr().out == ""


def test_boxkite_dump(capsys):
    assert main(["boxkite", "--n", "4", "--s", "4"]) == 0
    assert capsys.readouterr().out.startswith(S4_DUMP_HEAD)


def test_boxkite_with_seed(capsys):
    assert main(["boxkite", "--n", "4", "--s", "7", "--zigzag", "5,1,4"]) == 0
    assert "A 1 14" in capsys.readouterr().out


def test_census_report(capsys):
    assert main(["census", "--n", "5", "--s", "9"]) == 0
    out = capsys.readouterr().out
    assert out.count("S=9 zigzag=") == 3
    assert "3 box-kite(s)" in out
    assert "32 broken frame(s)" in out


def test_census_range(capsys):
    assert main(["census", "--n", "4", "--range", "1..7"]) == 0
    out = capsys.readouterr().out
    assert "7 box-kite(s)" in out


def test_census_writes_each_cluster_as_its_survey_returns(monkeypatch, capsys):
    # each write holds one cluster's lines, the cluster last surveyed, and
    # the totals come last: census never holds the level's lines at once
    assert main(["census", "--n", "6"]) == 0
    whole = capsys.readouterr().out
    events = []
    survey = kites.survey

    def surveyed(lvl, s):
        sv = survey(lvl, s)
        events.append(("survey", s, len(sv.kites)))
        return sv

    class Writer:
        def write(self, text):
            events.append(("write", text))

        def writelines(self, blocks):
            for block in blocks:
                self.write(block)

    monkeypatch.setattr(kites, "survey", surveyed)
    monkeypatch.setattr(sys, "stdout", Writer())
    assert main(["census", "--n", "6"]) == 0
    writes = [e[1] for e in events if e[0] == "write"]
    assert "".join(writes) == whole
    assert [e[0] for e in events] == ["survey", "write"] * 31 + ["write", "write"]
    for (_, s, count), (_, text) in zip(events[0:62:2], events[1:62:2]):
        lines = text.splitlines()
        assert len(lines) == count and all(line.startswith(f"S={s} ") for line in lines), s
    assert writes[-2:] == ["665 box-kite(s)\n", "8064 broken frame(s)\n"]


def test_verify_level4(capsys):
    assert main(["verify", "--n", "4"]) == 0
    out = capsys.readouterr().out
    for k in range(1, 8):
        assert f"Theorem {k}: PASS" in out


def test_et_text(capsys):
    assert main(["et", "--n", "4", "--s", "4"]) == 0
    assert capsys.readouterr().out.startswith("N 4 S 4\n")


def test_et_csv_to_file(tmp_path, capsys):
    out = tmp_path / "et.csv"
    assert main(["et", "--n", "4", "--s", "4", "--format", "csv", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().startswith(",1,2,3,5,6,7\n")


def test_et_image(capsys):
    assert main(["et", "--n", "4", "--s", "4", "--format", "image"]) == 0
    assert capsys.readouterr().out.startswith("P3\n6 6\n255\n")


def test_flipbook_writes_files(tmp_path, capsys):
    code = main(["flipbook", "--n", "5", "--range", "9..15", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [f"et_n5_s{s:02d}.ppm" for s in range(9, 16)] + ["manifest.txt"]


@pytest.mark.parametrize("verb", ["et --s 1 --format image", "flipbook --range 1..3"])
def test_huge_scales_are_refused(verb, tmp_path, capsys):
    out_dir = tmp_path / "book"
    argv = [*verb.split(), "--n", "5", "--scale", "1000000"]
    if verb.startswith("flipbook"):
        argv += ["--out", str(out_dir)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert not out_dir.exists()


def test_domain_error_exit_code(capsys):
    assert main(["et", "--n", "3", "--s", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_bad_flags_exit_code():
    assert main(["et", "--n", "4"]) == 2  # --s is required
    assert main(["flipbook", "--n", "5", "--range", "9..15"]) == 2  # --out required
    assert main(["nonsense"]) == 2


def test_reversed_range_is_domain_error(capsys):
    assert main(["flipbook", "--n", "5", "--range", "15..9", "--out", "/tmp/x"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--n", "5", "--s", "99"], ["--n", "5", "--s", "0"], ["--n", "3", "--s", "1"]]
)
def test_dmz_refuses_bad_strut_constants(argv, capsys):
    assert main(["dmz", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_dmz_writes_to_a_file_what_it_prints(tmp_path, capsys):
    assert main(["dmz", "--n", "5"]) == 0
    printed = capsys.readouterr().out
    assert printed.count("\n") == 924
    out = tmp_path / "dmz.txt"
    assert main(["dmz", "--n", "5", "--out", str(out)]) == 0
    assert out.read_text() == printed
    # a refused request is refused before the file is opened
    refused = tmp_path / "refused.txt"
    assert main(["dmz", "--n", "5", "--s", "99", "--out", str(refused)]) == 1
    assert not refused.exists()


@pytest.mark.parametrize(
    "argv, out",
    [
        (["census", "--n", "4"], ""),  # an existing directory
        (["dmz", "--n", "4"], "missing/x"),  # in a directory that does not exist
        (["flipbook", "--n", "4", "--range", "1..2"], "file"),  # an existing file
    ],
    ids=["census-into-a-directory", "dmz-into-a-missing-directory", "flipbook-onto-a-file"],
)
def test_unwritable_output_paths_are_one_line_refusals(argv, out, tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main([*argv, "--out", str(tmp_path / out)]) == 1
    printed, err = capsys.readouterr()
    assert printed == "" and err.startswith("error: ") and err.count("\n") == 1


def test_census_refuses_a_bad_range_before_any_survey(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(kites, "survey", lambda *args: calls.append(args))
    assert main(["census", "--n", "5", "--range", "1..99"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert main(["census", "--n", "5", "--s", "3", "--range", "1..2"]) == 2
    assert calls == []


def test_verify_refuses_levels_above_its_ceiling_before_any_survey(monkeypatch, capsys):
    calls = []
    for holder in (kites, theorems):
        monkeypatch.setattr(holder, "survey", lambda *args: calls.append(args))
    assert main(["verify", "--n", "9"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["trips", "--n", "40"],
        ["assessors", "--n", "40"],
        ["census", "--n", "12"],
        ["dmz", "--n", "12"],
        ["et", "--n", "30", "--s", "3"],
        ["boxkite", "--n", "30", "--s", "3"],
        ["boxkite", "--n", "9", "--s", "3", "--zigzag", "1,2,3"],
        ["flipbook", "--n", "30", "--range", "1..3", "--out", "book"],
        ["verify", "--n", "9"],
    ],
)
def test_levels_above_the_sign_tables_are_refused(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # nothing written, not even a directory


def test_trip_count_answers_above_the_sign_tables(capsys):
    assert main(["trips", "--n", "40", "--count"]) == 0
    assert int(capsys.readouterr().out) == (2**40 - 1) * (2**40 - 2) // 6


def test_trip_count_refuses_too_many_digits_before_computing(monkeypatch, capsys):
    computed = []
    monkeypatch.setattr(cli.trips, "trip_count", lambda n: computed.append(n))
    t0 = time.perf_counter()
    assert main(["trips", "--count", "--n", "20000000"]) == 1
    assert time.perf_counter() - t0 < 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the trip count at --n 20000000 has more than 4300 digits\n"
    assert computed == []


@pytest.mark.parametrize(
    "limit,last_n", [(4300, 7143), (0, 7143), (5000, 8306)], ids=["default", "off", "raised"]
)
def test_trip_count_digit_limit_is_exact(limit, last_n, capsys):
    # the last level whose count fits the limit answers, the next is refused;
    # with the limit off (0) the interpreter's default bounds the run
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert main(["trips", "--count", "--n", str(last_n)]) == 0
        digits = capsys.readouterr().out.strip()
        assert len(digits) == (limit or 4300) and digits.isdigit()
        assert main(["trips", "--count", "--n", str(last_n + 1)]) == 1
        assert capsys.readouterr().err == (
            f"error: the trip count at --n {last_n + 1} has more than {limit or 4300} digits\n"
        )
    finally:
        sys.set_int_max_str_digits(before)


def test_mul_far_above_the_tables_builds_no_two_to_the_n(capsys):
    tracemalloc.start()
    try:
        assert main(["mul", "--n", "4000000000", "1", "2"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "+3\n"
    assert peak < 1 << 20


def test_one_parser_serves_every_call_as_a_fresh_process_would(tmp_path, monkeypatch, capsys):
    # every verb, interleaved with usage errors (exit 2) and domain errors
    # (exit 1), through one process's parser; each must match its own
    # python -m boxkites child byte for byte
    monkeypatch.setenv("COLUMNS", "80")  # help and usage wrap alike in both
    book = tmp_path / "book"
    runs = [
        ["mul", "--n", "3", "7", "1"],
        ["nonsense"],
        ["trips", "--n", "3"],
        ["dmz", "--n", "5", "--s", "99"],
        ["trips", "--n", "4", "--count"],
        ["et", "--n", "4"],
        ["assessors", "--clusters"],
        ["mul", "--n", "3", "8", "1"],
        ["dmz", "--n", "4", "--s", "4"],
        ["census", "--n", "5", "--s", "3", "--range", "1..2"],
        ["boxkite", "--n", "4", "--s", "4"],
        ["trips", "--count", "--n", "20000000"],
        ["census", "--n", "4", "--range", "1..3"],
        ["mul", "--n", "4", "x", "2"],
        ["verify", "--n", "4"],
        ["verify", "--n", "9"],
        ["et", "--n", "4", "--s", "5", "--format", "csv"],
        ["flipbook", "--n", "4", "--range", "1..3"],
        ["flipbook", "--n", "4", "--range", "1..3", "--out", str(book)],
        ["et", "--n", "4", "--s", "1", "--format", "bmp"],
        ["mul", "--help"],
    ]
    made = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    here = []
    for i, argv in enumerate(runs):
        rc = main(argv)
        if i == 0:
            assert made  # the first call builds the process's parser
            made.clear()
        here.append((rc, *capsys.readouterr()))
    assert made == []  # no later call builds another
    pages = {p.name: p.read_bytes() for p in book.iterdir()}
    shutil.rmtree(book)
    assert {rc for rc, _, _ in here} == {0, 1, 2}
    for argv, got in zip(runs, here):
        assert got == run_cli(*argv), argv
    assert {p.name: p.read_bytes() for p in book.iterdir()} == pages


def test_entry_point_subprocess():
    code, out, _ = run_cli("mul", "--n", "4", "1", "2")
    assert code == 0 and out == "+3\n"


def test_output_determinism_across_processes():
    first = run_cli("census", "--n", "4")
    second = run_cli("census", "--n", "4")
    assert first == second



def test_mul_far_above_the_tables(capsys):
    # 3000 doubling steps: the sign loop needs no stack depth per bit
    assert main(["mul", "--n", "3000", str(2**3000 - 1), str(2**3000 - 3)]) == 0
    assert capsys.readouterr().out == "+2\n"


def test_roadmap_set_keeps_its_output_bytes(tmp_path, monkeypatch):
    # bench/run.py --check: the ROADMAP refactor set against bench/refs.json
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(bench))
    import run

    assert run.check(tmp_path) == 0


def test_catalogue_keeps_its_output_bytes(tmp_path, monkeypatch):
    # every request any bench workload can issue, against bench/refs.json
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    monkeypatch.syspath_prepend(str(bench))
    import run
    import workloads

    refs = json.loads(run.REFS.read_text())
    requests = workloads.catalogue()
    bad = {}
    for argv in requests:
        why = run.mismatch(run.issue(argv, tmp_path), refs)
        if why is not None:
            bad[workloads.key(argv)] = why
    assert len(requests) == 846
    assert bad == {}


def test_dmz_n6_keeps_its_output_bytes(capsys):
    # recorded from the all-planes sweep; pins the order of the joined clusters
    assert main(["dmz", "--n", "6"]) == 0
    out = capsys.readouterr().out.encode()
    digest = "71c45c2ab50183eea6daba9babd93f24b101cc1448de8ba1d3330f5a3f6cc4de"
    assert hashlib.sha256(out).hexdigest() == digest


def test_dmz_n7_keeps_its_output_bytes(capsys):
    # recorded from the per-cluster dmz_pattern sweep, before the relation kernel
    assert main(["dmz", "--n", "7"]) == 0
    out = capsys.readouterr().out.encode()
    digest = "7e8c7a770e61767e67696318fffe6be67a221d777ba7e5c39c2768f3312c9287"
    assert hashlib.sha256(out).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("census --n 7", "18ceaa1b45b31e194350139afd7e95d1412fbb5f16d77d0bdac2848459f9cec9"),
        ("census --n 8", "9ac77a859582f2f909a0cacebf5e44c218a86eec1953c25f79dbcc66ec9effb4"),
        ("assessors --n 7", "16dc768057c0775da80c25c71077b94316167e7bd116bae9c3956075beca752f"),
        (
            "assessors --n 8 --clusters",
            "0bfa2270c5d4d7455bf1b239443461e00ef6125a9eabc726a94955bd66abca9c",
        ),
        ("boxkite --n 7 --s 37", "71a598504dc942e8ed3c3d6b7a533809496b226b042bef274384f46aaa4aa4a9"),
    ],
)
def test_kite_and_plane_listings_keep_their_output_bytes(capsys, argv, digest):
    # recorded while kites held six Assessor objects and assessors built every plane
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_n6_passes_with_the_sky_twist_law(capsys):
    targets = list(range(9, 16)) + list(range(17, 32))
    sources = list(range(1, 16)) + list(range(25, 32))
    assert main(["verify", "--n", "6"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "Theorem 1: PASS  all-low dyads (930) never annihilate a mixed dyad, and make no "
        "zeros of their own beyond those inherited from one level down",
        "Theorem 2: PASS  no dyad containing i_32 annihilates anything",
        "Theorem 3: PASS  slope-class dichotomy held on all 431985 candidate pairs "
        "(7980 annihilating)",
        "Theorem 4: PASS  no plane's own diagonals make zero (930 planes)",
        "Theorem 5: PASS  every sail edge emanates its third vertex (2660 sails)",
        "Theorem 6: PASS  21840/31920 twisted pairs still make zero; failing twists land "
        f"at strut constants {targets} (sources {sources})",
        "Theorem 7: PASS  U-index law and edge sign patterns hold on all 665 kites",
    ]


def test_package_has_no_bare_asserts():
    # invariant checks must survive python -O, which strips assert statements
    for path in sorted(Path(boxkites.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not found, f"{path.name}: bare assert at lines {found}"


def test_verify_under_python_o_prints_what_it_prints_without():
    # -O strips assert statements, and every invariant check must still run:
    # the optimised run's stdout and exit code are the normal run's
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "boxkites", "verify", "--n", "5"],
        capture_output=True,
        text=True,
        env=child_env(os.environ),
        timeout=60,
    )
    code, out, _ = run_cli("verify", "--n", "5")
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and out.count(": PASS  ") == 7


def test_importing_the_package_and_its_cli_loads_no_dataclasses():
    # every start-up pays for what the package imports: dataclasses would
    # bring inspect, ast, dis and tokenize with it, and each decorated
    # record compiles its methods at import.  -I ignores PYTHONPATH, so the
    # child puts the package root on sys.path itself
    code = (
        f"import sys; sys.path.insert(0, {PKG_ROOT!r}); import boxkites, boxkites.cli; "
        "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout == "\n", proc.stdout
