"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

run.load_package()
REFS = json.loads(run.REFS.read_text())


def _traced(argv, scratch):
    tracer = Tracer()
    tracer.install()
    try:
        req = run.issue(argv, scratch)
    finally:
        tracer.uninstall()
    assert req.error is None and req.rc == 0
    return tracer, req


def test_wrappers_bind_every_namespace_that_imported_the_function():
    import boxkites
    from boxkites import etable, kites, zd

    original = zd.dmz_pattern
    holders = (zd, kites, etable, boxkites)
    tracer = Tracer()
    tracer.install()
    try:
        for mod in holders:
            assert mod.dmz_pattern is not original
            assert mod.dmz_pattern.__wrapped__ is original
    finally:
        tracer.uninstall()
    for mod in holders:
        assert mod.dmz_pattern is original


def test_census_n4_counts_are_exact(tmp_path):
    tracer, _ = _traced(("census", "--n", "4"), tmp_path)
    assert tracer.stats["kites.survey"].calls == 7
    assert tracer.stats["zd.dmz_pattern"].calls == 168
    assert tracer.stats["zd.dmz_pattern"].hits == 168
    assert tracer.stats["cdp.mul_element"].calls == 672


def test_et_n5_s3_counts_are_exact(tmp_path):
    tracer, req = _traced(("et", "--n", "5", "--s", "3"), tmp_path)
    assert tracer.stats["zd.dmz_pattern"].calls == 91
    assert tracer.stats["zd.dmz_pattern"].hits == 84
    assert run.mismatch(req, REFS) is None


def test_self_times_partition_the_request(tmp_path):
    tracer, req = _traced(("verify", "--n", "4"), tmp_path)
    selfs = [v for k, v in tracer.metrics().items() if k.endswith(".self_s")]
    assert all(v >= 0 for v in selfs)
    assert sum(selfs) <= req.latency


def test_times_are_scaled_by_the_kernel_times_around_them(tmp_path):
    import signal

    before = signal.getsignal(signal.SIGALRM)
    req = run.issue(("census", "--n", "5"), tmp_path)
    assert signal.getsignal(signal.SIGALRM) is before
    assert req.latency > run.SAMPLE_EVERY_S and req.speed_samples
    assert run.scaled(2.0, [run.CAL_REF_S / 2, run.CAL_REF_S, run.CAL_REF_S * 4]) == 2.0
    assert run.scaled(2.0, [run.CAL_REF_S * 2, run.CAL_REF_S * 2]) == 1.0


def test_query_mix_is_seeded_distinct_and_referenced():
    first = workloads.requests("query_mix", workloads.DEFAULT_SEED)
    assert first == workloads.requests("query_mix", workloads.DEFAULT_SEED)
    assert first != workloads.requests("query_mix", workloads.HOLDOUT_SEED)
    # the DRAWS rule: ten latencies beyond p90 in one pass
    assert len(set(first)) == len(first) == 119 >= 100
    assert all(workloads.key(argv) in REFS for argv in first)


def test_module_state_does_not_survive_into_the_next_pass(tmp_path):
    from boxkites import etable, kites, zd

    def stale(*args, **kwargs):
        raise AssertionError("state of an earlier pass was used")

    zd.PLANTED_CACHE = {}
    zd.dmz_pattern = kites.dmz_pattern = etable.dmz_pattern = stale
    p = run.run_pass([("et", "--n", "5", "--s", "3")], REFS, tmp_path, (5,))
    assert p.failures == []
    from boxkites import zd as fresh_zd

    assert fresh_zd is not zd and not hasattr(fresh_zd, "PLANTED_CACHE")


def test_references_cover_exactly_the_catalogue():
    assert {workloads.key(argv) for argv in workloads.catalogue()} == set(REFS)
    assert all(ref["rc"] == 0 for ref in REFS.values())


def test_in_process_capture_matches_the_command_line(tmp_path):
    argv = ("flipbook", "--n", "5", "--range", "2..4", "--out", workloads.OUT)
    out = tmp_path / "pages"
    env = {k: v for k, v in os.environ.items() if k != "BOXKITES_CACHE_DIR"}
    env["PYTHONPATH"] = str(run.SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "boxkites", *(str(out) if t == workloads.OUT else t for t in argv)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    req = run.Request(argv, proc.returncode, proc.stdout, str(out), None, 0.0)
    assert run.digest(req) == run.digest(run.issue(argv, tmp_path))


def test_check_entry_point_passes_and_drops_the_cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("BOXKITES_CACHE_DIR", str(tmp_path / "cache"))
    assert run.main(["--check"]) == 0
    assert "BOXKITES_CACHE_DIR" not in os.environ


def test_refuses_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", str(Path(run.__file__)), "--check"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""


@pytest.mark.parametrize("trace", ["0", "1"])
def test_fails_without_the_sources(tmp_path, trace):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census_n6", "--seed", "1",
         "--seconds", "1", "--trace", trace],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
