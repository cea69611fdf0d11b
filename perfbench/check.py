"""The benchmark's output gate: is a sweep's report what it should be?

A report passes when every executed row is a consistent ``pass``, a sample
of rows agrees with an independent brute-force left-hand side, and, for a
seed with a recorded golden entry, the pass/fail/skip counts and the digest
match.  On other seeds each theorem must deliver about as many rows, and no
more skips, as it did on the recorded seeds of the workload.  The digest
covers the 11 report columns below, not the raw bytes, so an added column or
a new row order does not change it.
"""

import hashlib
import json
import math
import random
from collections import Counter, defaultdict

COLUMNS = (
    "theoremId", "r", "p", "e", "x_num", "x_den", "m",
    "lhs", "rhs", "modulus", "verdict",
)

# theoremId -> (d, range) for rows whose lhs is sum_k binom(rk,k) x^k / k^d
# taken directly mod p^e; "full" is 0 < k < p, "short" is 0 < k < p/r, and
# a trailing 0 admits k = 0
DIRECT_LHS = {
    "rkksuk": (1, "full"),
    "rkksuk_short": (1, "short"),
    "rkk_long": (0, "full"),
    "rkk_short": (0, "short"),
    "rkksukk": (2, "full"),
    "rkksukmod2": (1, "full"),
    "rkkmod2": (0, "full0"),
    "rkkmod2_var": (0, "full"),
    "rkkmod2_multiple": (0, "full0"),
    "cor_split_long": (0, "full"),
    "cor_split_short": (0, "short"),
    "central_pol": (0, "short0"),
}

ORACLE_SAMPLE = 48

# share of a theorem's fewest recorded rows that an unrecorded seed may lack,
# or turn into skips beyond the most recorded, for seed-to-seed variation
SLACK = 0.1


def digest(rows):
    """Order-independent sha256 over the 11 report columns of every row."""
    lines = sorted(
        json.dumps([row.get(c) for c in COLUMNS], separators=(",", ":")) for row in rows
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def tag_counts(rows):
    """theoremId -> {"rows": n, "skip": n}."""
    tags = defaultdict(lambda: {"rows": 0, "skip": 0})
    for row in rows:
        tag = tags[str(row.get("theoremId"))]
        tag["rows"] += 1
        tag["skip"] += row.get("verdict") == "skip"
    return dict(sorted(tags.items()))


def summarize(rows):
    counts = Counter(row.get("verdict") for row in rows)
    return {
        "rows": len(rows),
        "pass": counts["pass"],
        "fail": counts["fail"],
        "skip": counts["skip"],
        "tags": tag_counts(rows),
        "sha256": digest(rows),
    }


def consistent(row):
    """A pass or fail row whose residues and verdict agree; skips always do."""
    verdict = row.get("verdict")
    if verdict == "skip":
        return True
    if verdict not in ("pass", "fail"):
        return False
    lhs, rhs, modulus = row.get("lhs"), row.get("rhs"), row.get("modulus")
    if not all(isinstance(v, int) for v in (lhs, rhs, modulus)):
        return False
    if modulus:
        if modulus != row["p"] ** row["e"] or not (0 <= lhs < modulus and 0 <= rhs < modulus):
            return False
    return (verdict == "pass") == (lhs == rhs)


def brute_lhs(row):
    """sum of binom(rk,k) x^k / k^d over the row's range, in plain integers."""
    d, kind = DIRECT_LHS[row["theoremId"]]
    r, p, m = row["r"], row["p"], row["modulus"]
    x = row["x_num"] * pow(row["x_den"], -1, m) % m
    lo = 0 if kind.endswith("0") else 1
    hi = p if kind.startswith("full") else -(-p // r)
    total = 0
    for k in range(lo, hi):
        term = math.comb(r * k, k) * pow(x, k, m)
        if d:
            term *= pow(k, -d, m)
        total += term
    return total % m


def oracle_mismatches(rows, seed):
    """How many of a seeded sample of direct-lhs rows disagree with brute force."""
    eligible = [
        row for row in rows
        if row.get("verdict") == "pass" and row.get("theoremId") in DIRECT_LHS
    ]
    sample = random.Random(seed).sample(eligible, min(ORACLE_SAMPLE, len(eligible)))
    return sum(1 for row in sample if brute_lhs(row) != row["lhs"])


def limits(entries):
    """theoremId -> row floor and skip ceiling, for a seed without a golden entry.

    Taken per theorem from the recorded seeds of the same workload, so that
    dropping one theorem's rows, or turning its checks into skips, fails on
    any seed however few rows that theorem has.
    """
    if not entries:
        return None
    zero = {"rows": 0, "skip": 0}
    tags = set().union(*(e["tags"] for e in entries.values()))
    bounds = {}
    for tag in sorted(tags):
        seen = [e["tags"].get(tag, zero) for e in entries.values()]
        fewest = min(c["rows"] for c in seen)
        slack = int(SLACK * fewest)
        bounds[tag] = {"min_rows": fewest - slack,
                       "max_skip": max(c["skip"] for c in seen) + slack}
    return bounds


def shortfall(rows, bounds):
    """Rows missing, or skipped beyond the ceiling, against per-theorem bounds.

    Rows of a theorem with no bounds count in full.
    """
    found = tag_counts(rows)
    missing = sum(count["rows"] for tag, count in found.items() if tag not in bounds)
    for tag, bound in bounds.items():
        count = found.get(tag, {"rows": 0, "skip": 0})
        missing += max(0, bound["min_rows"] - count["rows"])
        missing += max(0, count["skip"] - bound["max_skip"])
    return missing


def grade(rows, golden, seed, bounds=None):
    """(attempted, failed, executed) for one sweep.

    rows is the parsed report, or None when the sweep crashed or wrote none.
    golden is the recorded summary for this workload and seed, or None; then
    bounds (from limits) stands in for the expected row and skip counts.
    A crash fails every expected row; so does a golden digest or count
    mismatch, since it cannot say which rows changed.
    """
    floor = sum(b["min_rows"] for b in bounds.values()) if bounds else 1
    if rows is None:
        expected = golden["rows"] if golden else floor
        return expected, expected, 0
    executed = sum(1 for row in rows if row.get("verdict") in ("pass", "fail"))
    bad = sum(1 for row in rows if row.get("verdict") != "skip"
              and (row.get("verdict") != "pass" or not consistent(row)))
    bad += oracle_mismatches(rows, seed)
    if golden is None:
        attempted = max(len(rows), floor)
        bad += shortfall(rows, bounds) if bounds else attempted - len(rows)
        return attempted, min(bad, attempted), executed
    attempted = golden["rows"]
    if summarize(rows) != golden:
        return attempted, attempted, executed
    return attempted, min(bad, attempted), executed
