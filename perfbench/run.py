"""The rkksums benchmark: how many congruence checks a CLI sweep settles per second.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload modp_random --seed 0 --seconds 40 --trace 0

Each sweep runs in a fresh interpreter (``perfbench/sweep.py``) that imports
the package from ``src/`` and calls the public entry ``rkksums.cli.main``,
because a CLI user starts with cold caches on every invocation.  The run
repeats sweeps until ``--seconds`` is spent and reports medians:

* ``--trace 0``: checks_per_s, setup_s and peak_rss_mb.
* ``--trace 1``: per-layer counters, from traced sweeps that alternate with
  untraced ones so the tracing overhead is measured too.

Every sweep's report is graded by ``check.grade``; ``failed`` counts
expected rows not delivered as their expected verdict.  The lines before the
last one describe the run (environment, quartiles, a pure-Python reference
loop that shows how fast the machine was); the last line is the result.
"""

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import grade, limits  # noqa: E402
from layers import ABSENT  # noqa: E402

MIN_SWEEPS = 3
RUN_CAP_S = 150.0    # a run never starts a sweep after this many seconds


def shared_x(seed):
    """Eleven small rationals drawn from the seed, shared by every theorem tag."""
    rng = random.Random(f"modp2_shared|{seed}")
    xs = []
    while len(xs) < 11:
        x = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        if x not in xs:
            xs.append(x)
    return ",".join(str(x) for x in xs)


# Why these grids: modp_random draws x per tag, so root sums are computed
# afresh (polylogs over Galois rings and factoring at e=1 dominate);
# modp2_shared shares eleven x values across nine tags at e=2 and e=3, and each
# tag asks for 572 distinct (r, x, p, e) keys, more than the 512-entry
# root-sum cache holds, so cache or task-order changes show here;
# lhs_exact makes almost no root-sum calls (split test, brute-force sums,
# constants, report writing).
WORKLOADS = {
    "modp_random": lambda seed: [
        "--theorems", "rkksuk,rkksuk_short,rkk", "--r", "1,2,3,4,5,6",
        "--primes", "7..200", "--x-random", "2", "--seed", str(seed),
    ],
    "modp2_shared": lambda seed: [
        "--theorems", "rkksukk,rkksukmod2,rkkmod2,rkkmod2_var,rkksuk_z,"
        "rkksuk_long,lemma_technical,mystery,rkkmod2_multiple",
        "--r", "2,3,4,5", "--primes", "7..53", f"--x={shared_x(seed)}",
        "--seed", str(seed),
    ],
    "lhs_exact": lambda seed: [
        "--theorems", "cor_split,numerics,central_pol,fe,r3_beta,series,identities",
        "--r", "2,3", "--primes", "5..200", "--x-random", "8", "--seed", str(seed),
    ],
}


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def reference_loop_s():
    """A fixed pure-Python loop: how fast this machine runs Python right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


def run_sweep(cli_args, mode, report_path, timeout):
    """One sweep in a fresh interpreter: (child result or None, parsed report or None).

    mode is passed to sweep.py: "sweep" or "trace".
    """
    if report_path.exists():
        report_path.unlink()
    argv = cli_args + ["--format", "json", "--out", str(report_path)]
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sweep.py"), repr(spawn), mode, "--", *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        return None, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    if result is None or result["crashed"] or result["exit"] not in (0, 1):
        sys.stderr.write(proc.stderr[-4000:])
        return result, None
    return result, load_json(report_path)


def describe(values):
    """Median, quartiles and sample count."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the running sweep is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "rkksums" / "cli.py").is_file():
        print(f"no rkksums sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    recorded = (load_json(HERE / "golden.json") or {}).get("workloads", {}).get(args.workload, {})
    expected = recorded.get(str(args.seed))
    cli_args = WORKLOADS[args.workload](args.seed)

    work = ROOT / ".perfbench" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    report_path = work / "report.json"
    try:
        # compile the sources and warm the file cache before anything is timed
        run_sweep(["--theorems", "numerics", "--primes", "7"], "sweep", report_path, 60)
        samples = run_loop(args, cli_args, expected, limits(recorded), report_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return report(args, samples, "golden" if expected else "consistency+brute-force")


def run_loop(args, cli_args, expected, bounds, report_path):
    samples = {"untraced": [], "traced": [], "ref_s": [], "env": [],
               "attempted": 0, "failed": 0}
    start = time.perf_counter()
    cycle_s = []
    sweep = 0
    while True:
        cycle_start = time.perf_counter()
        samples["ref_s"].append(reference_loop_s())
        traced = bool(args.trace) and sweep % 2 == 1
        elapsed = cycle_start - start
        result, rows = run_sweep(cli_args, "trace" if traced else "sweep", report_path,
                                 timeout=max(10.0, 170.0 - elapsed))
        attempted, failed, executed = grade(rows, expected, f"{args.seed}|{sweep}", bounds)
        samples["attempted"] += attempted
        samples["failed"] += failed
        if result is not None:
            samples["env"].append(result["env"])
            if rows is not None:
                result["checks_per_s"] = executed / result["sweep_s"]
                samples["traced" if traced else "untraced"].append(result)
        sweep += 1
        cycle_s.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - start
        enough = sweep >= MIN_SWEEPS + args.trace
        if (enough and elapsed + statistics.median(cycle_s) > args.seconds) or elapsed > RUN_CAP_S:
            return samples


def report(args, samples, gate):
    spec = load_json(ROOT / "BENCHMARK.json")
    untraced, traced = samples["untraced"], samples["traced"]
    envs = {json.dumps(env, sort_keys=True) for env in samples["env"]}
    env = dict(samples["env"][0]) if samples["env"] else {}
    env.update({
        "nproc": len(os.sched_getaffinity(0)),
        "rkksums_no_numba": os.environ.get("RKKSUMS_NO_NUMBA", ""),
        "platform": platform.platform(),
    })
    attempted = max(samples["attempted"], 1)
    header = {
        "perfbench": {"workload": args.workload, "seed": args.seed, "trace": args.trace},
        "env": env,
        "gate": gate,
        "failed_frac": samples["failed"] / attempted,
        "ref_loop_ms": describe([s * 1e3 for s in samples["ref_s"]]),
        "detail": {},
    }
    if args.trace:
        metrics = layer_metrics(spec["per_layer"], untraced, traced, header["detail"])
    else:
        metrics = {}
        for m in spec["end_to_end"]:
            values = [s[m["name"]] for s in untraced]
            header["detail"][m["name"]] = describe(values or [0.0])
            metrics[m["name"]] = {"value": header["detail"][m["name"]]["median"], "unit": m["unit"]}
    print(json.dumps(header))
    print(json.dumps({
        "correct": samples["failed"] == 0 and len(envs) == 1 and bool(untraced),
        "attempted": attempted,
        "failed": samples["failed"],
        "metrics": metrics,
    }))
    return 0


def layer_metrics(spec, untraced, traced, detail):
    metrics = {}
    for m in spec:
        name = m["name"]
        if name == "trace.overhead_frac":
            base = statistics.median(s["sweep_s"] for s in untraced) if untraced else 0.0
            value = statistics.median(s["sweep_s"] for s in traced) / base if traced and base else 0.0
        else:
            numbers = [v for v in (s["layers"].get(name) for s in traced)
                       if isinstance(v, (int, float))]
            if numbers:
                detail[name] = describe(numbers)
                value = detail[name]["median"]
                if all(isinstance(v, int) for v in numbers) and value == int(value):
                    value = int(value)
            else:
                value = ABSENT
        metrics[name] = {"value": value, "unit": m["unit"]}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
