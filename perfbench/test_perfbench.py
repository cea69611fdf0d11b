"""Tests of the benchmark itself: the output gate, the layer wrappers, the CLI.

Run with: python3 -m pytest perfbench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
from check import grade, limits, shortfall, summarize  # noqa: E402
from run import WORKLOADS  # noqa: E402

SMALL = ["--theorems", "rkksuk,rkk,rkkmod2,central_pol", "--r", "2,3",
         "--primes", "7..31", "--x-random", "2", "--seed", "0"]


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    from rkksums import cli

    out = tmp_path_factory.mktemp("report") / "report.json"
    assert cli.main(SMALL + ["--format", "json", "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_clean_report_grades_clean(rows):
    golden = summarize(rows)
    assert golden["fail"] == 0 and golden["pass"] > 0
    assert grade(rows, golden, 0) == (len(rows), 0, golden["pass"])
    assert grade(rows, None, 0)[1] == 0


def test_digest_ignores_row_order_and_added_columns(rows):
    shuffled = [dict(row, reason="") for row in rows]
    random.Random(1).shuffle(shuffled)
    assert summarize(shuffled) == summarize(rows)


def test_one_corrupted_rhs_raises_failed(rows):
    """Negative control: a single wrong rhs must show as failed rows."""
    golden = summarize(rows)
    bad = [dict(row) for row in rows]
    victim = next(row for row in bad if row["verdict"] == "pass" and row["modulus"])
    victim["rhs"] = (victim["rhs"] + 1) % victim["modulus"]
    attempted, failed, _ = grade(bad, golden, 0)
    assert attempted == len(rows) and failed > 0
    assert grade(bad, None, 0)[1] > 0


def test_wrong_lhs_with_matching_rhs_is_caught_by_brute_force(rows, monkeypatch):
    monkeypatch.setattr(check, "ORACLE_SAMPLE", len(rows))
    bad = [dict(row) for row in rows]
    victim = next(row for row in bad if row["theoremId"] == "rkksuk" and row["verdict"] == "pass")
    victim["lhs"] = victim["rhs"] = (victim["lhs"] + 1) % victim["modulus"]
    assert grade(bad, None, 0)[1] == 1


def test_fewer_rows_or_more_skips_fail_against_golden(rows):
    golden = summarize(rows)
    assert grade(rows[1:], golden, 0)[1] == len(rows)
    skipped = [dict(row) for row in rows]
    skipped[0].update(verdict="skip", lhs=None, rhs=None)
    assert grade(skipped, golden, 0)[1] == len(rows)


def test_dropped_or_skipped_checks_fail_on_an_unrecorded_seed(rows):
    bounds = limits({"0": summarize(rows)})
    assert grade(rows, None, 0, bounds)[1] == 0
    assert grade(rows[: len(rows) * 9 // 10], None, 0, bounds)[1] > 0
    skipped = [dict(row, verdict="skip", lhs=None, rhs=None) if i % 3 == 0 else row
               for i, row in enumerate(rows)]
    assert grade(skipped, None, 0, bounds)[1] > 0


def rows_like(counts):
    """Stand-in report rows with a recorded entry's per-theorem counts."""
    return [{"theoremId": tag, "verdict": "skip" if i < c["skip"] else "pass"}
            for tag, c in counts.items() for i in range(c["rows"])]


@pytest.mark.parametrize("workload,prefix", [
    ("modp2_shared", "rkkmod2_multiple"),  # the only caller of the double-root path
    ("lhs_exact", "series_"),
    ("lhs_exact", "identity_"),
])
def test_one_small_theorem_dropped_or_skipped_fails_on_an_unrecorded_seed(workload, prefix):
    recorded = json.loads((HERE / "golden.json").read_text())["workloads"][workload]
    bounds = limits(recorded)
    for entry in recorded.values():
        assert shortfall(rows_like(entry["tags"]), bounds) == 0
    counts = recorded["0"]["tags"]
    victims = {t for t in counts if t.startswith(prefix)}
    assert victims
    kept = {t: c for t, c in counts.items() if t not in victims}
    assert shortfall(rows_like(kept), bounds) > 0
    skipped = dict(counts, **{t: dict(counts[t], skip=counts[t]["rows"]) for t in victims})
    assert shortfall(rows_like(skipped), bounds) > 0
    renamed = dict(kept, **{"renamed_" + t: counts[t] for t in victims})
    assert shortfall(rows_like(renamed), bounds) > 0


def test_crash_fails_every_expected_row(rows):
    assert grade(None, summarize(rows), 0) == (len(rows), len(rows), 0)
    assert grade(None, None, 0) == (1, 1, 0)


def test_workload_inputs_come_from_the_seed():
    for make in WORKLOADS.values():
        assert make(3) == make(3)
        assert make(3) != make(4)


def run_sweep_child(tmp_path, mode, prelude=""):
    """Run sweep.py on SMALL; prelude is Python run before it, in the child."""
    out = tmp_path / "report.json"
    code = (
        f"import sys, time; sys.argv = ['sweep.py', repr(time.perf_counter()), '{mode}', '--',"
        f" *{SMALL + ['--format', 'json', '--out', str(out)]!r}];"
        f" sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; {prelude}"
        f" import runpy; runpy.run_path({str(HERE / 'sweep.py')!r}, run_name='__main__')"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_sweep_sees_calls_through_from_imports(tmp_path):
    result = run_sweep_child(tmp_path, "trace")
    layers = result["layers"]
    assert result["exit"] == 0 and result["setup_s"] > 0 and result["sweep_s"] > 0
    # theorems calls these through `from ... import` copies
    assert layers["binomsums.lhs_sum_calls"] > 0
    assert layers["finlog.pounds_ring_calls"] > 0
    assert layers["polyfactor.root_factor_set_calls"] > 0
    assert layers["kernels.poly_mulmod_calls"] > 0
    assert layers["theorems.root_sums_misses"] > 0
    assert 0.5 < layers["trace.covered_frac"] <= 1.0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(layers) == {m["name"] for m in spec} - {"trace.overhead_frac"}


def test_removed_function_is_reported_absent(tmp_path):
    prelude = (
        "import rkksums.polyfactor as pf, rkksums.theorems as th;"
        " del pf.hensel_lift; th._factor_rings = th._factor_rings.__wrapped__;"
    )
    layers = run_sweep_child(tmp_path, "trace", prelude)["layers"]
    assert layers["polyfactor.hensel_lift_s"] == "absent"
    assert layers["theorems.factor_rings_misses"] == "absent"
    assert isinstance(layers["polyfactor.factor_mod_p_s"], float)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "modp_random", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
