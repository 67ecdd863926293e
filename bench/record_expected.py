"""Rewrite ``expected.json``: the sha256 of the canonical output of every pinned op.

    python3 bench/record_expected.py

Pinned ops (ids starting with ``pin-``) do not depend on the seed.  Every op
is still checked by its oracle while recording, so a wrong output cannot be
recorded; rerun this only when an output is meant to change, and review the
diff.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import gen
import run


def main() -> int:
    expected = {}
    for workload, generate in gen.GENERATORS.items():
        work = run.BENCH / "work" / f"record-{workload}-{os.getpid()}"
        try:
            report = run.run_pass(run.materialize(next(generate(0)), work), "record")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if report["failures"]:
            print(f"{workload}: {report['failures']}", file=sys.stderr)
            return 1
        expected[workload] = dict(sorted(report["hashes"].items()))
    (run.BENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
