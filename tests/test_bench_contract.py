"""The benchmark's untraced run must stay well-formed and correct on this tree.

perfbench/run.py grades every sweep's report against the recorded golden
digests and prints its result as the last line of standard output.  These
run its shortest run on each workload and check that result's shape:
lhs_exact (the split scan, the numerical table, the exact series), and the
two root-sum workloads, whose points run through theorems.point_rows.
"""

import json
import math
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def assert_run_is_correct_and_numeric(workload):
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for metric in spec:
        value = result["metrics"][metric["name"]]["value"]
        assert not isinstance(value, bool) and isinstance(value, (int, float)), metric
        assert math.isfinite(value), metric


def test_lhs_exact_run_is_correct_and_numeric():
    assert_run_is_correct_and_numeric("lhs_exact")


@pytest.mark.parametrize("workload", ["modp2_shared", "modp_random"])
def test_root_sum_run_is_correct_and_numeric(workload):
    assert_run_is_correct_and_numeric(workload)
