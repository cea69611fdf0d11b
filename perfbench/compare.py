"""Compare benchmark runs: the spread of one set, or a change against its parent.

Usage:

    python3 perfbench/compare.py RUNS.log               # spread of each metric
    python3 perfbench/compare.py PARENT.log CHANGE.log  # change against parent

A log is the standard output of any number of ``perfbench/run.py --trace 0``
runs, concatenated.  Spread is the distance between the first and third
quartile of the runs' values, as a share of their median.  Runs taken on
different engines are refused, never compared.  Exit status: 0 when every
metric is within its bound, 1 otherwise, 2 when the logs cannot be compared.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    """{workload: [(header, result)]} for the untraced runs in a log."""
    runs = defaultdict(list)
    header = None
    for line in Path(path).read_text().splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "perfbench" in obj:
            header = obj
        elif isinstance(obj, dict) and "metrics" in obj and header is not None:
            if not header["perfbench"]["trace"]:
                runs[header["perfbench"]["workload"]].append((header, obj))
            header = None
    return runs


def engines(runs):
    return {h["env"].get("engine") for rs in runs.values() for h, _ in rs}


def stats(values):
    if len(values) < 2:
        return values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def values(runs, metric):
    return [res["metrics"][metric]["value"] for _, res in runs]


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())["end_to_end"]
    sets = [load_runs(path) for path in argv]
    found = set().union(*(engines(s) for s in sets))
    if len(found) != 1:
        print(f"refused: runs come from different engines {sorted(map(str, found))}",
              file=sys.stderr)
        return 2
    ok = True
    for workload in sorted(set().union(*sets)):
        for runs in sets:
            bad = sum(1 for _, res in runs.get(workload, []) if not res["correct"])
            if bad:
                print(f"{workload}: {bad} run(s) not correct")
                ok = False
        for m in spec:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            base = values(sets[0].get(workload, []), name)
            if not base:
                continue
            med, spread = stats(base)
            line = f"{workload:<13} {name:<13} n={len(base):<3} median={med:<12.6g} spread={spread:.3f} bound={bound}"
            if len(sets) == 1:
                steady = spread <= bound / 3
                if name != "setup_s" and spread > bound:
                    ok = False
                print(line + ("  steady" if steady else "  WIDE"))
                continue
            change = values(sets[1].get(workload, []), name)
            if not change:
                print(line + "  no change runs")
                ok = False
                continue
            cmed, _ = stats(change)
            worse = (cmed - med) / med if lower else (med - cmed) / med
            better_all = (max(change) < min(base)) if lower else (min(change) > max(base))
            if worse > bound:
                verdict, ok = "REGRESSION", False
            elif spread > bound and not better_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(line + f"  change={cmed:<12.6g} worse_by={worse:+.3f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
