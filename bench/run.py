"""Benchmark harness for boxkites.

Run from the repository root:

    python3 bench/run.py --workload census_n6 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --check

The first form measures one workload (see workloads.py) and prints, as
its last stdout line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the run (seed, request-list hash, pass times, Python, cores, git sha).
With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  ``--check``
only compares the ROADMAP refactor set against the reference hashes
and exits 1 on any mismatch.

Requests go in-process through ``boxkites.cli.main(argv)``, one at a
time.  A request fails when it raises, or when its exit status, stdout
sha256 or written-file sha256 differs from bench/refs.json.

Every reported time is scaled to a fixed machine speed: a short
calibration kernel is timed before and after each request (and each
fresh set-up) and every ``SAMPLE_EVERY_S`` during it, and the measured
time is multiplied by ``CAL_REF_S`` over the median of those kernel
times.  A virtual machine on a shared host can change speed by half
within seconds, uniformly across the program's code, and the kernel
follows it; the raw times are kept in the info line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads
from workloads import OUT

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFS = Path(__file__).resolve().parent / "refs.json"
SCRATCH = ROOT / ".bench_tmp"
#: fresh interpreters started before each pass; setup_s is their median
SETUPS_PER_PASS = 4
#: the calibration kernel's time at the reference machine speed, to which
#: every reported time is scaled (about the fast state of a 2-vCPU Xeon VM)
CAL_REF_S = 0.0005
#: interval of the timer that times the kernel during a request
SAMPLE_EVERY_S = 0.1


def _kernel(n: int = 3000) -> int:
    """Interpreter work like the program's own: integer ops, indexing, dict stores."""
    table = list(range(64))
    seen = {}
    acc = 0
    for i in range(n):
        j = (i * 7) & 63
        acc ^= table[j] * (i | 1)
        seen[j] = (acc & 0xFF, i)
    return acc


def calibrate() -> float:
    """Median time of three runs of the calibration kernel, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, cals: list[float]) -> float:
    """A measured time at the reference machine speed, from kernel times around it."""
    return seconds * CAL_REF_S / statistics.median(cals)


class SpeedSampler:
    """Times the calibration kernel from a timer signal while a request runs.

    A request of several seconds spans more than one machine state; the
    kernel times taken within it follow them.  The handler's own time is
    kept in ``spent`` so the caller can take it out of the request's.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        _kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def load_package():
    """Import boxkites from this checkout's src/, never from elsewhere."""
    if not (SRC / "boxkites" / "__init__.py").is_file():
        raise SystemExit(f"bench: no boxkites sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import boxkites

    if Path(boxkites.__file__).resolve().parent != SRC / "boxkites":
        raise SystemExit(f"bench: imported boxkites from {boxkites.__file__}, not {SRC}")
    return boxkites


@dataclass
class Request:
    argv: tuple[str, ...]
    rc: int | None
    stdout: str
    out_dir: str | None
    error: str | None
    latency: float  # without the time spent in the speed sampler
    speed_samples: list[float] = field(default_factory=list)


def issue(argv: tuple[str, ...], scratch: Path) -> Request:
    """Run one CLI request in-process, capturing stdout and the exit status."""
    from boxkites import cli

    out_dir = tempfile.mkdtemp(dir=scratch) if OUT in argv else None
    args = [out_dir if tok == OUT else tok for tok in argv]
    stdout, error, rc = io.StringIO(), None, None
    sampler = SpeedSampler()
    t0 = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()), sampler:
            rc = cli.main(args)
    except Exception as exc:  # a request that raises is a failed request, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - t0 - sampler.spent
    return Request(argv, rc, stdout.getvalue(), out_dir, error, latency, sampler.samples)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(req: Request) -> dict:
    """Exit status and hashes of one request's outputs; deletes its output directory."""
    text, files = req.stdout, {}
    if req.out_dir is not None:
        text = text.replace(req.out_dir, OUT)
        out = Path(req.out_dir)
        for path in sorted(out.rglob("*")):
            if path.is_file():
                files[path.relative_to(out).as_posix()] = _sha(path.read_bytes())
        shutil.rmtree(out)
    return {"rc": req.rc, "stdout": _sha(text.encode()), "files": files}


def mismatch(req: Request, refs: dict) -> str | None:
    """Why a request failed against the references, or None when it matched."""
    got = digest(req)  # first, as it also deletes the request's output directory
    if req.error is not None:
        return req.error
    want = refs.get(workloads.key(req.argv))
    if want is None:
        return "no reference recorded"
    for field in ("rc", "stdout", "files"):
        if got[field] != want[field]:
            return f"{field} differs from the reference"
    return None


def fresh_package(levels) -> float:
    """Drop and re-import every boxkites module; returns the sign-table build time.

    A command-line user starts each request in a new process, so nothing a
    pass leaves in module state (a memo, a cache of relations) may serve
    the next pass.  The package and its CLI are imported and the sign
    tables of the workload's levels built here, outside the timed pass;
    a fresh process pays that cost as ``setup_s``.
    """
    for name in [m for m in sys.modules if m == "boxkites" or m.startswith("boxkites.")]:
        del sys.modules[name]
    import boxkites
    import boxkites.cli  # noqa: F401

    t0 = perf_counter()
    for n in levels:
        boxkites.sign_table(n)
    return perf_counter() - t0


@dataclass
class Pass:
    wall: float  # sum of the scaled request latencies
    wall_raw: float
    latencies: list[float]  # scaled
    failures: list[tuple[str, str]]
    build_s: float
    layers: dict[str, float] | None


def run_pass(reqs, refs, scratch, levels, traced: bool = False) -> Pass:
    """Issue one pass of requests from fresh package state, traced or not."""
    build_s = fresh_package(levels)
    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    done, cals = [], [calibrate()]
    try:
        for argv in reqs:
            done.append(issue(argv, scratch))
            cals.append(calibrate())
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures = [(workloads.key(r.argv), msg) for r in done if (msg := mismatch(r, refs))]
    layers = tracer.metrics() if tracer is not None else None
    latencies = [
        scaled(r.latency, [cals[i], *r.speed_samples, cals[i + 1]]) for i, r in enumerate(done)
    ]
    wall_raw = sum(r.latency for r in done)
    return Pass(sum(latencies), wall_raw, latencies, failures, build_s, layers)


def fresh_setup(levels) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import boxkites and build the sign
    tables, scaled and raw."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import boxkites; "
        f"[boxkites.sign_table(n) for n in {tuple(levels)!r}]"
    )
    cal_before = calibrate()
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-c", code],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        check=True,
        timeout=120,
    )
    raw = perf_counter() - t0
    return scaled(raw, [cal_before, calibrate()]), raw


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool, scratch: Path):
    """Run one workload; returns (attempted, failures, metrics, info)."""
    refs = json.loads(REFS.read_text())
    reqs = workloads.requests(workload, seed)
    levels = workloads.LEVELS[workload]
    info = {
        "workload": workload,
        "seed": seed,
        "requests_per_pass": len(reqs),
        "requests_sha256": workloads.requests_sha256(reqs),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }
    fresh_package(levels)
    info["rss_before_passes_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    setups, passes, traced_passes, steps = [], [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        if trace:
            # alternate which side of each pair goes first
            for traced in (False, True) if len(passes) % 2 else (True, False):
                p = run_pass(reqs, refs, scratch, levels, traced)
                (traced_passes if traced else passes).append(p)
        else:
            # set-ups are spread over the run, a few before each pass, so
            # that their median sees the machine states the passes see
            setups += [fresh_setup(levels) for _ in range(SETUPS_PER_PASS)]
            passes.append(run_pass(reqs, refs, scratch, levels))
        steps.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(steps) > seconds:
            break
    walls = [p.wall for p in passes]
    latencies = [x for p in passes + traced_passes for x in p.latencies]
    failures = [f for p in passes + traced_passes for f in p.failures]
    info.update(
        cal_ref_s=CAL_REF_S,
        passes=len(walls),
        pass_walls_s=walls,
        pass_walls_raw_s=[p.wall_raw for p in passes],
        setups_s=[s for s, _ in setups],
        setups_raw_s=[raw for _, raw in setups],
        requests=len(latencies),
    )

    if not trace:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "req_p50_ms": 1000 * statistics.median(latencies),
            "req_p90_ms": 1000 * _p90(latencies),
        }
    else:
        traced_walls = [p.wall for p in traced_passes]
        info["traced_pass_walls_s"] = traced_walls
        snapshots = [p.layers for p in traced_passes]
        values = {name: statistics.median_low(s[name] for s in snapshots) for name in snapshots[0]}
        values["cdp.sign_table.build_s"] = statistics.median(p.build_s for p in traced_passes)
        values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        info["layers"] = values
    return len(latencies), failures, values, info


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def check(scratch: Path) -> int:
    """Compare the ROADMAP refactor set with the references; 0 when all match."""
    refs = json.loads(REFS.read_text())
    bad = 0
    for argv in workloads.ROADMAP_SET:
        msg = mismatch(issue(argv, scratch), refs)
        bad += msg is not None
        print(f"{'MISMATCH' if msg else 'ok'}  {workloads.key(argv)}{'  ' + msg if msg else ''}")
    print(f"{len(workloads.ROADMAP_SET) - bad}/{len(workloads.ROADMAP_SET)} match the references")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true", help="check the ROADMAP set only")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("bench: refusing to run under python -O; the measured code keeps its asserts",
              file=sys.stderr)
        return 2
    if not args.check and args.workload is None:
        parser.error("--workload is required unless --check is given")
    # the disk sign-table cache must not feed any workload
    os.environ.pop("BOXKITES_CACHE_DIR", None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_package()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        if args.check:
            return check(scratch)
        attempted, failures, values, info = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    info["failures"] = failures[:20]
    print(json.dumps({"info": info}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
