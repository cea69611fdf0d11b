"""CLI harness tests: config handling, report formats, determinism, exit codes."""

import collections
import csv
import functools
import io
import json
import pathlib
import random
import time

import jsonschema
import pytest

from rkksums import cli
from rkksums.report import emit_report

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(argv):
    args = cli.build_parser().parse_args(argv)
    config = cli.config_from_args(args)
    return cli.run(config)


def test_config_errors_exit_2(capsys):
    assert cli.main(["--primes", "nonsense"]) == 2
    assert cli.main(["--theorems", "bogus_tag"]) == 2
    assert cli.main(["--primes", "9"]) == 2
    assert cli.main(["--primes", "2"]) == 2  # even primes are out of scope
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--theorems", "series", "--series-order", "0"],
    ["--theorems", "series", "--series-order", "101"],
    ["--theorems", "identities", "--identity-n", "0"],
    ["--theorems", "identities", "--identity-n", "61"],
    ["--theorems", "fe", "--primes", "7", "--x-random=-3"],
])
def test_out_of_range_sizes_are_config_errors(argv, capsys):
    assert cli.main(["--r", "2", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1


def test_empty_prime_range_is_a_clean_noop(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["--primes", "", "--theorems", "rkksuk",
                     "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text()) == []


def test_closed_form_sweep(tmp_path):
    out = tmp_path / "rows.json"
    code = cli.main([
        "--r", "3", "--primes", "7..60", "--x", "2",
        "--theorems", "rkksukmod2", "--out", str(out),
    ])
    assert code == 0
    rows = json.loads(out.read_text())
    mains = [row for row in rows if row["theoremId"] == "rkksukmod2"]
    assert mains and all(row["verdict"] == "pass" for row in mains)
    # RHS carries the closed form -3 p q_p(2)^2 mod p^2
    from rkksums.finlog import fermat_quotient

    for row in mains:
        p = row["p"]
        q2 = fermat_quotient(2, p)
        assert row["rhs"] == (-3 * p * q2 * q2) % (p * p)


def test_cor_split_scan_at_101(tmp_path):
    out = tmp_path / "rows.json"
    code = cli.main(["--r", "2", "--primes", "101",
                     "--theorems", "cor_split", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 2 * (101 - 3) // 2
    assert all(row["verdict"] == "pass" for row in rows)


def test_cor_split_at_r1_gives_every_nondegenerate_residue():
    # a linear root polynomial always splits: p - 2 residues, two rows each
    summary, reports = run_cli(["--r", "1,2", "--primes", "7..13", "--theorems", "cor_split"])
    rows = [rep for rep in reports if rep.r == 1]
    assert sorted({(rep.p, rep.x) for rep in rows}) == [
        (p, a) for p in (7, 11, 13) for a in range(2, p)]
    assert len(rows) == 50 and all(rep.verdict == "pass" for rep in rows)


def test_csv_round_trip():
    summary, reports = run_cli([
        "--r", "2,3", "--primes", "5..20", "--x", "2,1/8",
        "--theorems", "rkksuk,central_pol",
    ])
    text = emit_report(reports, "csv")
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(reports)
    for row, rep in zip(parsed, sorted(reports, key=lambda r: r.sort_key())):
        rrow = rep.row()
        for key, value in rrow.items():
            assert row[key] == ("" if value is None else str(value))


def test_json_schema_validation():
    summary, reports = run_cli([
        "--r", "2,3", "--primes", "5..30", "--x-random", "2",
        "--theorems", "rkksuk,rkk,mystery,numerics,fe",
    ])
    schema = json.loads((DATA / "report_schema.json").read_text())
    rows = json.loads(emit_report(reports, "json"))
    jsonschema.validate(rows, schema)


def test_determinism_and_parallel_equivalence():
    argv = ["--r", "2,3,4", "--primes", "5..40", "--x-random", "3",
            "--seed", "11", "--theorems", "rkksuk,rkksuk_short,lemma_technical"]
    _, serial = run_cli(argv)
    _, again = run_cli(argv)
    assert emit_report(serial, "json") == emit_report(again, "json")
    _, other_seed = run_cli(argv[:-2] + ["--seed", "12", "--theorems",
                                         "rkksuk,rkksuk_short,lemma_technical"])
    assert emit_report(serial, "json") != emit_report(other_seed, "json")


def test_summary_counts():
    summary, reports = run_cli([
        "--r", "3", "--primes", "11", "--x", "4/27,2",
        "--theorems", "rkksuk",
    ])
    assert summary.total == len(reports) == 2
    assert summary.skipped == 1 and summary.passed == 1
    assert summary.skip_reasons == {"DegenerateX:x0": 1}


def test_series_and_identity_tags():
    summary, reports = run_cli([
        "--r", "1,2,3", "--theorems", "series,identities",
        "--series-order", "20", "--identity-n", "8",
    ])
    assert summary.failed == 0
    names = {rep.theorem for rep in reports}
    assert {"series_log", "series_functional_eq", "identity_id0",
            "identity_id1b", "identity_id2b", "identity_ladder"} <= names


def test_import_writes_nothing_to_stderr():
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c", "import rkksums; print(rkksums.engine())"],
        capture_output=True, text=True, check=True,
    )
    assert out.stderr == ""
    assert out.stdout.strip() == "numpy"


def test_a_sweep_over_every_tag_never_imports_numpy(tmp_path):
    import subprocess
    import sys

    from rkksums.theorems import FAMILIES

    out = tmp_path / "rows.json"
    argv = ["--theorems", ",".join(FAMILIES), "--r", "2,3", "--primes", "7,11",
            "--x-random", "1", "--series-order", "10", "--identity-n", "5",
            "--out", str(out)]
    script = ("import sys\nfrom rkksums import cli\n"
              f"print(cli.main({argv!r}), 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "False"], proc.stderr
    assert "rkkmod2_multiple" in {row["theoremId"] for row in json.loads(out.read_text())}


def test_exit_code_propagates_failures(monkeypatch, tmp_path):
    # force a fail row through a patched checker to confirm exit code 1
    from rkksums import theorems
    from rkksums.report import CongruenceReport

    def fake(p):
        return [CongruenceReport(theorem="numerics", r=3, p=p, e=1, x=None,
                                 lhs=0, rhs=1, modulus=p, verdict="fail")]

    # the table calls checkers by module-level name, so the patch is seen
    monkeypatch.setattr(theorems, "check_numerics_table", fake)
    code = cli.main(["--primes", "7", "--theorems", "numerics",
                     "--out", str(tmp_path / "x.json")])
    assert code == 1


def test_modulus_too_large_is_a_clean_exit_2(capsys):
    # p^3 > MAX_MODULUS for p = 1451: refused with one line, not a traceback
    from rkksums.errors import ModulusTooLarge, RkksumsError
    from rkksums.modring import ModulusCtx

    assert issubclass(ModulusTooLarge, RkksumsError)
    assert issubclass(ModulusTooLarge, ValueError)
    capsys.readouterr()
    code = cli.main(["--primes", "1451", "--theorems", "rkksukk",
                     "--r", "2", "--x", "2"])
    assert code == 2
    err = [line for line in capsys.readouterr().err.splitlines()
           if line.startswith("error:")]
    assert len(err) == 1 and "exceeds" in err[0]
    try:
        ModulusCtx(1451, 3)
    except ModulusTooLarge:
        pass
    else:
        raise AssertionError("ModulusCtx(1451, 3) was accepted")


def test_a_modulus_too_large_is_refused_before_any_work(capsys):
    # numerics reads p^3; 1451^3 > MAX_MODULUS, so the run stops before 1409..1447
    start = time.perf_counter()
    code = cli.main(["--theorems", "numerics", "--primes", "1400..1460"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "error: numerics at p = 1451: p^e = 3054936851 exceeds the modulus bound 3037000498"
    ]
    assert elapsed < 1.0


def test_a_family_reading_only_p_squared_runs_at_1451():
    summary, reports = run_cli(["--theorems", "rkksuk_z", "--r", "2", "--x", "2",
                                "--primes", "1451"])
    assert summary.failed == 0
    assert {rep.p for rep in reports} == {1451}
    assert {rep.verdict for rep in reports} == {"pass"}


def test_the_binomial_sums_at_5003_all_pass():
    summary, reports = run_cli(["--r", "3", "--primes", "5003", "--x", "2,3,5",
                                "--theorems", "rkksuk,rkksuk_short,rkk"])
    assert summary.total == 12
    assert [rep.verdict for rep in reports] == ["pass"] * 12


def test_numerics_at_a_large_prime_never_fail():
    # both sides of E_{p-3} and B_{p-2}(1/3): the brute-force sums at p = 1009
    summary, reports = run_cli(["--theorems", "numerics", "--primes", "1009"])
    assert {rep.verdict for rep in reports} <= {"pass", "skip"}
    assert {"num_r3_x2_k2", "num_r2_x13_k2"} <= {
        rep.theorem for rep in reports if rep.verdict == "pass"}


def test_x_random_zero_draws_no_points():
    # 0 means zero sampled points for every family; only an omitted flag means 8
    _, zero = run_cli(["--theorems", "fe,r3_beta", "--primes", "11", "--x-random", "0"])
    assert sorted(rep.theorem for rep in zero) == ["wolstenholme_l1", "wolstenholme_l2"]
    _, omitted = run_cli(["--theorems", "fe,r3_beta", "--primes", "11"])
    _, eight = run_cli(["--theorems", "fe,r3_beta", "--primes", "11", "--x-random", "8"])
    assert omitted == eight and len(omitted) > 2


def test_primes_not_above_r_get_skip_rows():
    summary, reports = run_cli([
        "--r", "7", "--primes", "5,7,11", "--x", "2",
        "--theorems", "rkksuk,rkkmod2,rkkmod2_multiple,cor_split",
    ])
    skipped = [(rep.theorem, rep.p, rep.e) for rep in reports
               if rep.reason == "RequiresPGreaterThanR"]
    # one row per (tag, r, p) with p <= r, at the tag's precision
    assert sorted(skipped) == [
        ("cor_split", 5, 1), ("cor_split", 7, 1),
        ("rkkmod2", 5, 2), ("rkkmod2", 7, 2),
        ("rkkmod2_multiple", 5, 2), ("rkkmod2_multiple", 7, 2),
        ("rkksuk", 5, 1), ("rkksuk", 7, 1),
    ]
    assert all(rep.verdict == "skip" for rep in reports if rep.p <= 7)
    assert summary.skip_reasons["RequiresPGreaterThanR"] == 8
    assert any(rep.p == 11 and rep.verdict == "pass" for rep in reports)


def test_tags_sharing_a_point_run_there_together(monkeypatch):
    # the grid is walked once: every (r, x, p) asks for its root sums in one
    # contiguous run, whichever tags ask, and at one precision
    from rkksums import theorems

    calls = []
    precisions = {}
    original = theorems.root_sums

    def recording(r, x, p, e):
        calls.append((r, x, p))
        precisions.setdefault((r, x, p), set()).add(e)
        return original(r, x, p, e)

    monkeypatch.setattr(theorems, "root_sums", recording)
    run_cli(["--r", "2,3", "--primes", "7..23", "--x", "2,-1/3,5",
             "--theorems", "rkksuk,rkksukk,mystery,rkkmod2_var,rkksuk_z"])
    runs = [key for i, key in enumerate(calls) if i == 0 or calls[i - 1] != key]
    assert len(set(calls)) > 1
    assert len(runs) == len(set(runs))
    assert all(len(es) == 1 for es in precisions.values()), precisions


def test_json_template_matches_json_dumps():
    # skip rows (None sides, m), a negative x_num and exact rows without x
    from rkksums.report import render_json

    _, reports = run_cli([
        "--r", "1,2,3", "--primes", "3..13", "--x=-2,4/27,1/7",
        "--theorems", "rkksuk,rkksuk_z,rkkmod2_var,numerics,series",
        "--series-order", "6",
    ])
    rows = [rep.row() for rep in reports]
    assert any(row["x_num"] == -2 for row in rows)
    assert any(row["lhs"] is None for row in rows)
    assert any(row["x_num"] is None for row in rows)
    assert render_json(reports) == json.dumps(rows, indent=2) + "\n"
    assert render_json([]) == json.dumps([], indent=2) + "\n"


def test_a_crash_exits_3_with_one_internal_error_line(monkeypatch, capsys):
    # a bug at a point is not a failed congruence: exit 3, not 1
    from rkksums import theorems

    def broken(tags, r, p, x):
        raise RuntimeError("boom")

    monkeypatch.setattr(theorems, "point_rows", broken)
    code = cli.main(["--r", "2", "--primes", "11", "--x", "3", "--theorems", "rkksuk"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 3
    assert err == ["internal error: tag=rkksuk, r=2, p=11, x=3: RuntimeError: boom"]


def test_a_crash_in_a_checker_exits_3(monkeypatch, capsys):
    # the checker runs inside the point's task, so its crash names that task
    from rkksums import theorems

    def broken(pt):
        raise RuntimeError("boom")

    monkeypatch.setattr(theorems, "check_rkksuk", broken)
    code = cli.main(["--r", "2", "--primes", "11", "--x", "2", "--theorems", "rkksuk,rkk"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 3
    assert err == ["internal error: tag=rkksuk,rkk, r=2, p=11, x=2: RuntimeError: boom"]


def test_a_package_error_in_a_task_exits_3_not_2(monkeypatch, capsys):
    # every refusal comes before any task runs; a package error inside one is a bug
    from rkksums import theorems
    from rkksums.errors import DivisibilityFailure

    def broken(pt):
        raise DivisibilityFailure("L_p != 1 mod p")

    monkeypatch.setattr(theorems, "check_rkksuk", broken)
    code = cli.main(["--r", "2", "--primes", "11", "--x", "2", "--theorems", "rkksuk,rkk"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 3
    assert err == ["internal error: tag=rkksuk,rkk, r=2, p=11, x=2: "
                   "DivisibilityFailure: L_p != 1 mod p"]


def test_repeated_x_and_tags_are_merged(capsys):
    # a repeated value is one check: the report and its counts match the plain run
    assert cli.main(["--r", "2", "--primes", "7", "--x", "2,2",
                     "--theorems", "rkksuk,rkksuk"]) == 0
    repeated = capsys.readouterr()
    assert cli.main(["--r", "2", "--primes", "7", "--x", "2", "--theorems", "rkksuk"]) == 0
    plain = capsys.readouterr()
    assert repeated.out == plain.out and len(json.loads(plain.out)) == 1
    assert "checks=1 " in repeated.err
    assert repeated.err.splitlines()[:-1] == plain.err.splitlines()[:-1]  # all but wall time


def test_a_failing_functional_equation_is_a_fail_row(monkeypatch, capsys):
    # a nonzero residual is a failed identity, reported on its own row: exit 1, not 3
    from rkksums import seriesid

    def residual(r, order):
        return (0, 1) + (0,) * (order - 1)

    monkeypatch.setattr(seriesid, "fuss_catalan_residual", residual)
    code = cli.main(["--r", "2", "--theorems", "series", "--series-order", "10"])
    rows = {row["theoremId"]: row["verdict"] for row in json.loads(capsys.readouterr().out)}
    assert code == 1
    assert rows == {"series_functional_eq": "fail", "series_log": "pass"}


# negative controls for the exact families: a wrong coefficient anywhere in
# the integer-only checks must reach the report as a fail row

def exact_verdicts(argv, capsys):
    code = cli.main(argv)
    rows = json.loads(capsys.readouterr().out)
    return code, {(row["theoremId"], row["r"]): row["verdict"] for row in rows}


def test_a_bumped_catalan_coefficient_fails_both_series_rows(monkeypatch, capsys):
    from rkksums import seriesid

    original = seriesid.fuss_catalan

    def bumped(r, order):
        coeffs = original(r, order)
        coeffs[3] += 1
        return coeffs

    monkeypatch.setattr(seriesid, "fuss_catalan", bumped)
    code, rows = exact_verdicts(
        ["--r", "2,3", "--theorems", "series", "--series-order", "10"], capsys)
    assert code == 1
    assert rows == {(tag, r): "fail" for tag in ("series_functional_eq", "series_log")
                    for r in (2, 3)}


def test_a_perturbed_power_sum_fails_an_identity_row(monkeypatch, capsys):
    from rkksums import seriesid

    original = seriesid.power_sums

    def perturbed(r, n):
        s, sprime = original(r, n)
        s[2] = [s[2][0] + 1] + s[2][1:]
        return s, sprime

    monkeypatch.setattr(seriesid, "power_sums", perturbed)
    # a fresh cache, so no sides built from the true power sums are read
    monkeypatch.setattr(seriesid, "identity_sides",
                        functools.lru_cache(maxsize=32)(seriesid.identity_sides.__wrapped__))
    code, rows = exact_verdicts(
        ["--r", "2,3", "--theorems", "identities", "--identity-n", "10"], capsys)
    assert code == 1
    assert len(rows) == 8
    assert any(verdict == "fail" for (tag, _), verdict in rows.items()
               if tag != "identity_ladder")


def test_a_perturbed_id2b_side_fails_the_ladder(monkeypatch, capsys):
    from rkksums import seriesid

    original = seriesid.identity_sides

    def perturbed(r, n):
        sides = dict(original(r, n))
        lhs2, rhs2 = sides["id2b"]
        # add y, not a constant: d/dy would erase a constant
        sides["id2b"] = (lhs2, (rhs2[0], rhs2[1] + 1) + rhs2[2:])
        return sides

    monkeypatch.setattr(seriesid, "identity_sides", perturbed)
    code, rows = exact_verdicts(
        ["--r", "2,3", "--theorems", "identities", "--identity-n", "10"], capsys)
    assert code == 1
    for r in (2, 3):
        assert rows[("identity_ladder", r)] == "fail"
        assert rows[("identity_id0", r)] == rows[("identity_id1b", r)] == "pass"


# negative controls for the brute-force left-hand sides: every entry of the
# binomial table moved by its own seeded random unit delta_k.  Shifting every
# entry by 1 (or by k) is blind: sum_{0<k<p} t^k = 0 mod p for t != 0, 1, so
# such a table often leaves the sum unchanged.  A random shift leaves it
# unchanged only by chance, about once in p rows.

NO_LHS_IDS = {"rkksuk_z_const", "rkksukk_cert", "rkksukmod2_cert", "rkkmod2_cross"}
LHS_TAGS = [tag for tag in cli.FAMILIES
            if tag not in ("lemma_technical", "mystery", "fe", "series", "identities")]


@pytest.mark.parametrize("tag", LHS_TAGS)
def test_a_randomly_shifted_binomial_table_fails_every_lhs_row(tag, monkeypatch, capsys):
    from rkksums import binomsums

    original = binomsums.binom_table

    def shifted(r, p, e):
        rng = random.Random(f"{r}|{p}|{e}")
        return tuple((b + rng.randrange(1, p)) % p ** e for b in original(r, p, e))

    monkeypatch.setattr(binomsums, "binom_table", shifted)
    # a fresh cache, so no coefficients built from the true table are read
    monkeypatch.setattr(binomsums, "lhs_coefficients",
                        functools.lru_cache(maxsize=64)(binomsums.lhs_coefficients.__wrapped__))
    code = cli.main(["--theorems", tag, "--r", "2,3,4", "--primes", "101..199",
                     "--x-random", "2"])
    verdicts = collections.defaultdict(collections.Counter)
    for row in json.loads(capsys.readouterr().out):
        verdicts[row["theoremId"]][row["verdict"]] += 1
    assert code == 1
    assert any(theorem_id not in NO_LHS_IDS for theorem_id in verdicts)
    for theorem_id, counts in verdicts.items():
        if theorem_id in NO_LHS_IDS:
            assert set(counts) == {"pass"}, (theorem_id, counts)
        else:
            assert counts["fail"] >= 0.95 * (counts["fail"] + counts["pass"]), (theorem_id, counts)


# negative controls for the right-hand sides: every compared row checked
# against rhs + 1 must fail, so no sampled family can pass whatever it computes

RHS_TAGS = [tag for tag, fam in cli.FAMILIES.items() if fam.grid != cli.EXACT]


def row_verdicts(argv, capsys):
    code = cli.main(argv)
    rows = json.loads(capsys.readouterr().out)
    return code, {(row["theoremId"], row["r"], row["p"], row["e"], row["x_num"], row["x_den"],
                   row["m"]): row["verdict"] for row in rows}


@pytest.mark.parametrize("tag", RHS_TAGS)
def test_a_right_hand_side_plus_one_fails_every_row(tag, monkeypatch, capsys):
    from rkksums import finlog, report, theorems

    argv = ["--theorems", tag, "--r", "2,3,4", "--primes", "11..60", "--x-random", "2"]
    code, plain = row_verdicts(argv, capsys)
    passed = [key for key, verdict in plain.items() if verdict == "pass"]
    assert code == 0 and passed

    def off_by_one(theorem, r, p, e, x, lhs, rhs, m=None):
        return report.checked(theorem, r, p, e, x, lhs, rhs + 1, m)

    monkeypatch.setattr(theorems, "checked", off_by_one)
    monkeypatch.setattr(finlog, "checked", off_by_one)
    code, shifted = row_verdicts(argv, capsys)
    assert code == 1
    assert "pass" not in shifted.values()
    # rkksukk and rkksukmod2 skip their congruence where their certificate fails
    behind_failed_cert = {(theorem_id.removesuffix("_cert"), r, p, x_num, x_den)
                          for (theorem_id, r, p, _, x_num, x_den, _), verdict in shifted.items()
                          if theorem_id.endswith("_cert") and verdict == "fail"}
    for key in passed:
        theorem_id, r, p, _, x_num, x_den, _ = key
        if shifted[key] == "skip":
            assert (theorem_id, r, p, x_num, x_den) in behind_failed_cert, key
        else:
            assert shifted[key] == "fail", key


# the walk goes prime by prime and never comes back to a prime it has left,
# which is what lets every per-prime cache hold one prime

def test_the_walk_reads_each_prime_once(monkeypatch):
    from rkksums import binomsums, finlog, theorems

    asked = {}  # name -> (the cache, the keys asked of it in order)
    for owner, name in ((binomsums, "binom_table"), (binomsums, "inverse_table"),
                        (finlog, "_weights")):
        cache, keys = getattr(owner, name), []
        cache.cache_clear()
        asked[name] = cache, keys

        def recording(*key, cache=cache, keys=keys):
            keys.append(key)
            return cache(*key)

        monkeypatch.setattr(owner, name, recording)
    # tables read through these caches would not be asked for again
    binomsums.lhs_coefficients.cache_clear()
    theorems.root_sums.cache_clear()
    summary, _ = run_cli([
        "--theorems", "numerics,fe,r3_beta,central_pol,cor_split,rkkmod2_multiple,"
        "rkksuk,rkksukk,rkksukmod2,mystery",
        "--r", "1,2,3,4,5", "--primes", "5..37", "--x-random", "2",
    ])
    assert summary.total and not summary.failed
    for name, (cache, keys) in asked.items():
        primes = [key[1] if name == "binom_table" else key[0] for key in keys]
        assert primes and primes == sorted(primes), name
        assert cache.cache_info().misses == len(set(keys)), name
