"""Report rows and run summaries shared by the checkers and the CLI."""

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

CSV_COLUMNS = (
    "theoremId", "r", "p", "e", "x_num", "x_den", "m",
    "lhs", "rhs", "modulus", "verdict",
)


@dataclass
class CongruenceReport:
    """One theorem instance: parameters, both sides, modulus, verdict."""

    theorem: str
    r: int
    p: int
    e: int
    x: Fraction | None
    lhs: int | None
    rhs: int | None
    modulus: int
    verdict: str
    m: int | None = None
    reason: str = ""

    def row(self):
        return {
            "theoremId": self.theorem,
            "r": self.r,
            "p": self.p,
            "e": self.e,
            "x_num": None if self.x is None else self.x.numerator,
            "x_den": None if self.x is None else self.x.denominator,
            "m": self.m,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "modulus": self.modulus,
            "verdict": self.verdict,
        }

    def sort_key(self):
        x = self.x or Fraction(0)
        return (self.theorem, self.r, self.p, self.e,
                x.numerator, x.denominator, self.m or 0)


def checked(theorem, r, p, e, x, lhs, rhs, m=None):
    """A compared row: both sides reduced mod p^e, and the verdict of their equality."""
    modulus = p ** e
    lhs %= modulus
    rhs %= modulus
    return CongruenceReport(
        theorem=theorem, r=r, p=p, e=e, x=x, lhs=lhs, rhs=rhs,
        modulus=modulus, verdict=PASS if lhs == rhs else FAIL, m=m,
    )


def skipped(theorem, r, p, e, x, reason, m=None):
    """A row outside the theorem's scope: no sides, and the reason it was skipped."""
    return CongruenceReport(
        theorem=theorem, r=r, p=p, e=e, x=x, lhs=None, rhs=None,
        modulus=p ** e, verdict=SKIP, m=m, reason=reason,
    )


@dataclass
class RunSummary:
    total: int = 0
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    skip_reasons: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def add(self, report):
        self.total += 1
        if report.verdict == PASS:
            self.passed += 1
        elif report.verdict == FAIL:
            self.failed += 1
        else:
            self.skipped += 1
            key = report.reason or "unspecified"
            self.skip_reasons[key] = self.skip_reasons.get(key, 0) + 1

    def describe(self):
        parts = [
            f"checks={self.total} passed={self.passed} "
            f"failed={self.failed} skipped={self.skipped}"
        ]
        for reason, count in sorted(self.skip_reasons.items()):
            parts.append(f"  skip[{reason}]={count}")
        parts.append(f"wall_time={self.wall_time:.2f}s")
        return "\n".join(parts)


def render_csv(reports):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for rep in reports:
        row = rep.row()
        writer.writerow({k: ("" if row[k] is None else row[k]) for k in CSV_COLUMNS})
    return buf.getvalue()


def render_json(reports):
    """The bytes of json.dumps(rows, indent=2) + "\\n", from a template.

    The indenting json encoder is pure Python; the row shape is fixed, so a
    template writes the same text without it.  Its keys are those of
    CongruenceReport.row(), in the same order.
    """
    if not reports:
        return "[]\n"
    rows = ",\n".join(
        f'''  {{
    "theoremId": {json.dumps(rep.theorem)},
    "r": {rep.r},
    "p": {rep.p},
    "e": {rep.e},
    "x_num": {"null" if rep.x is None else rep.x.numerator},
    "x_den": {"null" if rep.x is None else rep.x.denominator},
    "m": {"null" if rep.m is None else rep.m},
    "lhs": {"null" if rep.lhs is None else rep.lhs},
    "rhs": {"null" if rep.rhs is None else rep.rhs},
    "modulus": {rep.modulus},
    "verdict": {json.dumps(rep.verdict)}
  }}'''
        for rep in reports
    )
    return f"[\n{rows}\n]\n"


def emit_report(reports, fmt, path=None):
    """Serialize rows as CSV or JSON; write to path or return the text."""
    if fmt == "csv":
        text = render_csv(reports)
    elif fmt == "json":
        text = render_json(reports)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
