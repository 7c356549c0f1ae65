"""Record reference outputs for every request the benchmark can issue.

    python3 bench/make_refs.py

writes bench/refs.json: for each request in workloads.catalogue(), its
exit status, the sha256 of its stdout (output directory written as
``{out}``) and the sha256 of each file it wrote.  The references pin
the outputs of the commit they were recorded at; rerun this only when
a change to the outputs is intended and has been checked on its own.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
import workloads


def main() -> int:
    run.load_package()
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=run.SCRATCH)
    refs = {}
    try:
        for argv in workloads.catalogue():
            req = run.issue(argv, scratch)
            if req.error is not None or req.rc != 0:
                raise SystemExit(f"{workloads.key(argv)}: exit {req.rc}, {req.error}")
            refs[workloads.key(argv)] = run.digest(req)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run.REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(refs)} requests in {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
