"""The benchmark's workloads: what each one asks the CLI, and why.

Every request is an argv list for ``boxkites.cli.main``.  The token
``OUT`` stands for a fresh output directory that the harness creates per
request; reference hashes and stdout are recorded with the token in
place of the real path, so they do not depend on where the run happens.

Workloads (one closed-loop client; the next request is issued only
after the previous one completed):

census_n6    one ``census --n 6``.  ``kites.survey`` retests every edge
             in each of the 455 frames per strut constant that contain
             it, so the survey and the exact zero test dominate;
             ``etable`` and ``theorems`` do nothing here.
flipbook_n7  one ``flipbook --n 7 --range 1..63``.  ``etable.build_et``
             tests each plane pair once, then 63 pixmaps and a manifest
             are rendered and written.  ``kites.survey`` never runs, so a
             survey-only change must leave this workload unchanged.
query_mix    a seeded stream of distinct short requests: interactive
             use, one strut constant at a time.  Its cost is CLI
             parsing and per-s views, so work moved into eager all-s
             computation or into set-up shows here as a regression.
             Its ``verify --n 4`` request runs every theorem sweep,
             generic-dyad products included, and lands in the p90 tail.

A ``verify --n 5`` batch workload, where the theorem sweeps dominate, is
left out: with it, four workloads must share the run time, and at 30 s a
run holds only two or three ``census --n 6`` passes, whose median then
spread up to 0.14 (p90 0.21) between runs against a 0.25 bound; three
workloads keep 40 s runs.  ``verify --n 6`` takes about 29 s and exits 1
(Theorem 6 FAIL), which is a correctness question.
"""

from __future__ import annotations

import hashlib
import json
import random

OUT = "{out}"

#: the batch workloads: one fixed request each, independent of the seed
BATCH = {
    "census_n6": (("census", "--n", "6"),),
    "flipbook_n7": (("flipbook", "--n", "7", "--range", "1..63", "--out", OUT),),
}

#: levels whose sign tables a workload's set-up builds
LEVELS = {
    "census_n6": (6,),
    "flipbook_n7": (7,),
    "query_mix": tuple(range(1, 9)),
}

WORKLOADS = tuple(BATCH) + ("query_mix",)

#: the seed to develop a later change against, and one kept back so its
#: claim can be checked on a seed it was not tuned on.  The query_mix
#: composition depends on no seed: it follows the DRAWS rule below.
DEFAULT_SEED = 1
HOLDOUT_SEED = 7_037_450

#: requests drawn from each query_mix stratum (all of a smaller one).
#: Every stratum counts alike, as nothing is known of how often users ask
#: each verb; 5 is the fewest equal draws for which one pass holds at
#: least 100 requests (119), so at least ten latencies lie beyond its p90.
DRAWS = 5

#: byte-identity set every refactor must keep (ROADMAP): census, dmz and
#: verify at n = 5, every ET at n = 5, and the n = 5 flip-book
ROADMAP_SET = (
    ("census", "--n", "5"),
    ("dmz", "--n", "5"),
    ("verify", "--n", "5"),
    *(("et", "--n", "5", "--s", str(k)) for k in range(1, 16)),
    ("flipbook", "--n", "5", "--range", "1..15", "--out", OUT),
)


def _mul_requests(n: int) -> list[tuple[str, ...]]:
    dim = 1 << n
    g = dim >> 1
    picks = sorted({0, 1, g - 1, g, g + 1, dim // 3, dim - 1} & set(range(dim)))
    return [("mul", "--n", str(n), str(a), str(b)) for a in picks for b in picks]


def _per_s(verb: str, n: int, *extra: str) -> list[tuple[str, ...]]:
    g = 1 << (n - 1)
    return [(verb, "--n", str(n), "--s", str(s), *extra) for s in range(1, g)]


def query_strata() -> list[tuple[str, list[tuple[str, ...]]]]:
    """The query_mix catalogue as (stratum, requests).

    A stratum holds requests of one verb, level and format, whose costs
    are alike; drawing the same number from each keeps the stream's cost
    profile the same for every seed, so seeds vary which strut constants
    and operands are asked, not how much work a stream is.
    """
    strata = []
    for n in range(1, 9):
        strata.append((f"mul_n{n}", _mul_requests(n)))
        strata.append((f"trips_count_n{n}", [("trips", "--n", str(n), "--count")]))
    for n in (5, 6, 7):
        strata.append((f"trips_n{n}", [("trips", "--n", str(n))]))
        strata.append((f"assessors_n{n}", [("assessors", "--n", str(n), "--clusters")]))
    for n in (6, 7):
        strata.append((f"dmz_n{n}", _per_s("dmz", n)))
        for fmt in ("text", "csv", "image"):
            strata.append((f"et_{fmt}_n{n}", _per_s("et", n, "--format", fmt)))
    for n in (5, 6):
        strata.append((f"boxkite_n{n}", _per_s("boxkite", n)))
        strata.append((f"census_s_n{n}", _per_s("census", n)))
    windows = [
        ("flipbook", "--n", "6", "--range", f"{lo}..{lo + 3}", "--out", OUT) for lo in range(1, 29)
    ]
    strata.append(("flipbook_n6", windows))
    strata.append(("verify_n4", [("verify", "--n", "4")]))
    return strata


def catalogue() -> list[tuple[str, ...]]:
    """Every request any workload can issue, plus the ROADMAP set."""
    seen: dict[tuple[str, ...], None] = {}
    for reqs in BATCH.values():
        seen.update(dict.fromkeys(reqs))
    for _, reqs in query_strata():
        seen.update(dict.fromkeys(reqs))
    seen.update(dict.fromkeys(ROADMAP_SET))
    return list(seen)


def requests(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The request list of one pass; the same seed gives the same list."""
    if workload in BATCH:
        return list(BATCH[workload])
    if workload != "query_mix":
        raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    out = []
    for _, reqs in query_strata():
        out.extend(rng.sample(reqs, min(DRAWS, len(reqs))))
    rng.shuffle(out)
    return out


def requests_sha256(reqs: list[tuple[str, ...]]) -> str:
    return hashlib.sha256(json.dumps(reqs).encode()).hexdigest()


def key(argv: tuple[str, ...]) -> str:
    """Reference-table key of a request."""
    return " ".join(argv)
