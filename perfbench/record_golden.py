"""Record the expected report of every workload for a range of seeds.

Usage: python3 perfbench/record_golden.py

Writes perfbench/golden.json: for each workload and seeds 0-15, the row
count, the pass/fail/skip counts, each theorem's row and skip counts and the
digest of the 11 report columns.  Seed 0 is
the seed to develop a change on; seed 1 is held out, to confirm a claim on
a seed the change was not tuned to.  Recording refuses a sweep that is not
itself clean, so a golden entry never blesses a failing row.
"""

import json
import shutil
import sys

from check import grade, summarize
from run import HERE, ROOT, WORKLOADS, run_sweep

SEEDS = range(16)


def main():
    work = ROOT / ".perfbench" / "golden"
    work.mkdir(parents=True, exist_ok=True)
    out = {"workloads": {}}
    try:
        for name, make_args in WORKLOADS.items():
            entries = out["workloads"][name] = {}
            for seed in SEEDS:
                _, rows = run_sweep(make_args(seed), "sweep", work / "report.json", 600)
                if rows is None or grade(rows, None, seed)[1]:
                    print(f"{name} seed {seed}: sweep is not clean, nothing recorded",
                          file=sys.stderr)
                    return 1
                entries[str(seed)] = summarize(rows)
                print(name, seed, entries[str(seed)], file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    (HERE / "golden.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
