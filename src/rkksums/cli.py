"""Command-line harness: sweep checkers over (r, p, x) grids and emit reports.

Exit codes: 0 when every executed check passes (skips allowed), 1 when any
check fails, 2 on configuration errors and on inputs the package refuses
(such as a modulus p^e beyond the int64-safe bound).
"""

import argparse
import os
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from . import theorems
from ._accel import engine
from .errors import ConfigError, RkksumsError
from .finlog import check_functional_equations
from .modring import as_rational
from .polyfactor import Degeneracy, classify_residue
from .primes import odd_primes_in
from .report import FAIL, PASS, SKIP, CongruenceReport, RunSummary, emit_report
from .seriesid import (
    check_differentiation_ladder,
    check_identities,
    check_series_log_identity,
    fuss_catalan_residual,
)


@dataclass
class RunConfig:
    r_values: list = field(default_factory=lambda: [2, 3])
    primes: list = field(default_factory=list)
    x_values: list = field(default_factory=list)
    x_random: int = 0
    theorems: list = field(default_factory=list)
    seed: int = 0
    series_order: int = 60
    identity_n: int = 20
    fmt: str = "json"
    out: str | None = None
    jobs: int = 1


# sweep modes: how each theorem tag consumes the (r, p, x) grid
PER_RPX = "rpx"       # one call per (r, p, x)
PER_RP = "rp"         # one call per (r, p)
PER_PX = "px"         # one call per (p, x), r fixed by the checker
PER_P = "p"           # one call per prime
EXACT = "exact"       # characteristic-zero checks, no primes involved

CHECKERS = {
    "central_pol": (PER_PX, lambda p, x: theorems.check_central_pol(x, p)),
    "rkksuk": (PER_RPX, lambda r, p, x: theorems.check_rkksuk(r, x, p)),
    "rkksuk_short": (PER_RPX, lambda r, p, x: theorems.check_rkksuk_short(r, x, p)),
    "rkk": (PER_RPX, lambda r, p, x: theorems.check_rkk(r, x, p)),
    "rkksuk_z": (PER_RPX, lambda r, p, x: theorems.check_rkksuk_z(r, x, p)),
    "rkksuk_long": (PER_RPX, lambda r, p, x: theorems.check_rkksuk_long(r, x, p)),
    "lemma_technical": (PER_RPX, lambda r, p, x: theorems.check_lemma_technical(r, x, p)),
    "mystery": (PER_RPX, lambda r, p, x: theorems.check_mystery(r, x, p)),
    "rkksukk": (PER_RPX, lambda r, p, x: theorems.check_rkksukk(r, x, p)),
    "rkksukmod2": (PER_RPX, lambda r, p, x: theorems.check_rkksukmod2(r, x, p)),
    "rkkmod2": (PER_RPX, lambda r, p, x: theorems.check_rkkmod2(r, x, p)),
    "rkkmod2_var": (PER_RPX, lambda r, p, x: theorems.check_rkkmod2_var(r, x, p)),
    "rkkmod2_multiple": (PER_RP, lambda r, p: theorems.check_rkkmod2_multiple(r, p)),
    "cor_split": (PER_RP, lambda r, p: theorems.check_cor_split(r, p)),
    "r3_beta": (PER_P, None),    # sample count and seed bound at task build
    "numerics": (PER_P, lambda p: theorems.check_numerics_table(p)),
    "fe": (PER_P, None),
    "series": (EXACT, None),
    "identities": (EXACT, None),
}

# per-(r, p) tags stated mod p^2; the rest are stated mod p
MOD_P2_TAGS = {
    "rkksuk_z", "rkksuk_long", "lemma_technical", "mystery", "rkksukmod2",
    "rkkmod2", "rkkmod2_var", "rkkmod2_multiple",
}

DEFAULT_THEOREMS = [
    "rkksuk", "rkksuk_short", "rkk", "rkksuk_z", "rkksuk_long",
    "lemma_technical", "mystery", "rkksukk", "rkksukmod2",
    "rkkmod2", "rkkmod2_var", "rkkmod2_multiple", "central_pol",
]


def parse_primes(text):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_s, hi_s = part.split("..", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ConfigError(f"empty prime range {part}")
            out.extend(odd_primes_in(lo, hi))
        else:
            p = int(part)
            if not odd_primes_in(p, p):
                raise ConfigError(f"{p} is not an odd prime")
            out.append(p)
    return sorted(set(out))


def parse_rationals(text):
    return [as_rational(part.strip()) for part in text.split(",") if part.strip()]


def draw_x_values(config, tag, r, p):
    """Explicit x values plus seeded random nondegenerate units mod p."""
    xs = list(config.x_values)
    if config.x_random > 0:
        rng = random.Random(f"{config.seed}|{tag}|{r}|{p}")
        for _ in range(config.x_random):
            while True:
                a = rng.randrange(1, p)
                if classify_residue(r, a, p) is Degeneracy.NONDEGENERATE:
                    xs.append(Fraction(a))
                    break
    return xs


def _series_reports(config):
    out = []
    for r in config.r_values:
        residual = fuss_catalan_residual(r, config.series_order)
        ok_fc = all(c == 0 for c in residual)
        out.append(CongruenceReport(
            theorem="series_functional_eq", r=r, p=0, e=0, x=None,
            lhs=0 if ok_fc else 1, rhs=0, modulus=0,
            verdict=PASS if ok_fc else FAIL,
        ))
        ok_log = check_series_log_identity(r, config.series_order)
        out.append(CongruenceReport(
            theorem="series_log", r=r, p=0, e=0, x=None,
            lhs=0 if ok_log else 1, rhs=0, modulus=0,
            verdict=PASS if ok_log else FAIL,
        ))
    return out


def _identity_reports(config):
    out = []
    for r in config.r_values:
        verdicts = check_identities(r, config.identity_n)
        for key, ok in verdicts.items():
            out.append(CongruenceReport(
                theorem=f"identity_{key}", r=r, p=0, e=0, x=None,
                lhs=0 if ok else 1, rhs=0, modulus=0,
                verdict=PASS if ok else FAIL,
            ))
        ladder = check_differentiation_ladder(r, config.identity_n)
        out.append(CongruenceReport(
            theorem="identity_ladder", r=r, p=0, e=0, x=None,
            lhs=0 if ladder else 1, rhs=0, modulus=0,
            verdict=PASS if ladder else FAIL,
        ))
    return out


def _p_not_above_r(tag, r, p):
    """The skip row for a per-(r, p) tag at a prime p <= r, outside every scope."""
    e = 2 if tag in MOD_P2_TAGS else 1
    return CongruenceReport(
        theorem=tag, r=r, p=p, e=e, x=None, lhs=None, rhs=None,
        modulus=p ** e, verdict=SKIP, reason="RequiresPGreaterThanR",
    )


def build_tasks(config):
    """The flat list of independent callables the run executes."""
    tasks = []
    for tag in config.theorems:
        if tag not in CHECKERS:
            raise ConfigError(f"unknown theorem tag {tag!r}")
        mode, fn = CHECKERS[tag]
        if mode == EXACT:
            if tag == "series":
                tasks.append(lambda c=config: _series_reports(c))
            else:
                tasks.append(lambda c=config: _identity_reports(c))
            continue
        if not config.primes:
            continue
        if mode == PER_P:
            for p in config.primes:
                if tag == "fe":
                    count = config.x_random or 8
                    tasks.append(lambda p=p, c=count, s=config.seed:
                                 check_functional_equations(p, c, s))
                elif tag == "r3_beta":
                    count = config.x_random or 8
                    tasks.append(lambda p=p, c=count, s=config.seed:
                                 theorems.check_r3_beta(p, c, s))
                else:
                    tasks.append(lambda p=p, f=fn: f(p))
        elif mode == PER_RP:
            for r in config.r_values:
                for p in config.primes:
                    if p <= r:
                        tasks.append(lambda t=tag, r=r, p=p: _p_not_above_r(t, r, p))
                        continue
                    tasks.append(lambda r=r, p=p, f=fn: f(r, p))
        elif mode == PER_PX:
            for p in config.primes:
                for x in draw_x_values(config, tag, 2, p):
                    tasks.append(lambda p=p, x=x, f=fn: f(p, x))
        else:
            for r in config.r_values:
                for p in config.primes:
                    if p <= r:
                        tasks.append(lambda t=tag, r=r, p=p: _p_not_above_r(t, r, p))
                        continue
                    for x in draw_x_values(config, tag, r, p):
                        tasks.append(lambda r=r, p=p, x=x, f=fn: f(r, p, x))
    return tasks


def run(config):
    """Execute all selected checks; returns (summary, sorted reports)."""
    start = time.perf_counter()
    tasks = build_tasks(config)
    reports = []

    def consume(result):
        if isinstance(result, CongruenceReport):
            reports.append(result)
        else:
            reports.extend(result)

    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            for result in pool.map(lambda t: t(), tasks):
                consume(result)
    else:
        for task in tasks:
            consume(task())

    reports.sort(key=lambda rep: rep.sort_key())
    summary = RunSummary()
    for rep in reports:
        summary.add(rep)
    summary.wall_time = time.perf_counter() - start
    return summary, reports


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rkksums",
        description="Verify binomial-sum congruences modulo p, p^2, p^3.",
    )
    parser.add_argument("--r", default="2,3",
                        help="comma-separated list of r values (default 2,3)")
    parser.add_argument("--primes", default="",
                        help="prime list/range, e.g. '5..100' or '7,11,13'")
    parser.add_argument("--x", default="",
                        help="comma-separated rationals, e.g. '2,1/8,4/27,-2'")
    parser.add_argument("--x-random", type=int, default=0, metavar="N",
                        help="draw N random nondegenerate x per (r, p)")
    parser.add_argument("--theorems", default=",".join(DEFAULT_THEOREMS),
                        help=f"tags from: {', '.join(sorted(CHECKERS))}")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--series-order", type=int, default=60, metavar="N")
    parser.add_argument("--identity-n", type=int, default=20, metavar="N")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, metavar="PATH")
    parser.add_argument("--jobs", type=int, default=1, metavar="N")
    return parser


def available_cpus():
    """CPUs this process may run on; --jobs is capped at this many threads."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def config_from_args(args):
    try:
        r_values = [int(v) for v in args.r.split(",") if v.strip()]
        if any(r < 1 for r in r_values):
            raise ConfigError("r values must be positive")
        config = RunConfig(
            r_values=r_values,
            primes=parse_primes(args.primes) if args.primes else [],
            x_values=parse_rationals(args.x) if args.x else [],
            x_random=args.x_random,
            theorems=[t.strip() for t in args.theorems.split(",") if t.strip()],
            seed=args.seed,
            series_order=args.series_order,
            identity_n=args.identity_n,
            fmt=args.format,
            out=args.out,
            jobs=min(max(args.jobs, 1), available_cpus()),
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc
    for tag in config.theorems:
        if tag not in CHECKERS:
            raise ConfigError(f"unknown theorem tag {tag!r}")
    return config


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        summary, reports = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RkksumsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        text = emit_report(reports, config.fmt, config.out)
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    if config.out is None:
        sys.stdout.write(text)
    print(f"[engine={engine()}]", file=sys.stderr)
    print(summary.describe(), file=sys.stderr)
    return 1 if summary.failed else 0


if __name__ == "__main__":
    sys.exit(main())
