"""Command-line harness: walk the (r, p, x) grid once and emit reports.

Every tag's grid, precision and row function come from theorems.FAMILIES;
this module only parses the sweep, draws the x values and runs the tasks.

Exit codes: 0 when every executed check passes (skips allowed), 1 when any
check fails, 2 on configuration errors and on inputs the package refuses
(such as a modulus p^e beyond MAX_MODULUS), all refused before any task
runs, 3 when a task raises, the package's own errors included: one
"internal error:" line names the task, so a crash never reads as a failed
congruence or a refusal.
"""

import argparse
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import engine, seriesid, theorems
from .errors import ConfigError, ModulusTooLarge, RkksumsError
from .modring import as_rational, ctx_for
from .polyfactor import Degeneracy, classify_residue
from .primes import odd_primes_in
from .report import RunSummary, emit_report, skipped
from .theorems import EXACT, FAMILIES, P, PX, RP, RPX


@dataclass
class RunConfig:
    r_values: list = field(default_factory=lambda: [2, 3])
    primes: list = field(default_factory=list)
    x_values: list = field(default_factory=list)
    x_random: int | None = None   # None: not given
    theorems: list = field(default_factory=list)
    seed: int = 0
    series_order: int = 60
    identity_n: int = 20
    fmt: str = "json"
    out: str | None = None


DEFAULT_THEOREMS = [tag for tag, fam in FAMILIES.items() if fam.default]


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
    if config.x_random:
        rng = random.Random(f"{config.seed}|{tag}|{r}|{p}")
        for _ in range(config.x_random):
            while True:
                a = rng.randrange(1, p)
                if classify_residue(r, a, p) is Degeneracy.NONDEGENERATE:
                    xs.append(Fraction(a))
                    break
    return xs


def refuse_large_moduli(selected, primes):
    """Raise ModulusTooLarge naming the first (tag, p) whose checker would read
    a p^e beyond MAX_MODULUS, so such a run stops before any work."""
    for p in primes:
        for tag, fam in selected:
            if fam.grid == EXACT:
                continue
            try:
                ctx_for(p, fam.max_e)
            except ModulusTooLarge as exc:
                raise ModulusTooLarge(f"{tag} at p = {p}: {exc}") from exc


class TaskError(Exception):
    """A task raised, a package error included: a bug, not a verdict."""


def _outside_scope(tags, r, p):
    """A prime p <= r lies outside every per-(r, p) scope: one skip row per tag."""
    return [skipped(tag, r, p, FAMILIES[tag].e, None, "RequiresPGreaterThanR") for tag in tags]


def build_tasks(config):
    """The tasks the run executes, each (where, fn, args): fn(*args) returns a
    list of rows, and where (tag, r, p, x) names the task if it breaks.

    The grid is walked once, prime by prime: at each p the per-prime tags,
    then for each r the per-(r, p) tags and one task per x running every
    selected per-(r, p, x) tag (theorems.point_rows), so the tags share the
    point's guard and its root sums.  The walk never comes back to a prime
    it has left, so each per-prime cache holds one prime.  Task order never
    reaches the report, because run sorts its rows.
    """
    selected = []
    for tag in config.theorems:
        if tag not in FAMILIES:
            raise ConfigError(f"unknown theorem tag {tag!r}")
        selected.append((tag, FAMILIES[tag]))
    refuse_large_moduli(selected, config.primes)

    def on(*grids):
        return [(tag, fam.rows) for tag, fam in selected if fam.grid in grids]

    scoped = [tag for tag, _ in on(RP, RPX)]
    tasks = [({"tag": tag, "r": r}, rows, (r, config))
             for tag, rows in on(EXACT) for r in config.r_values]
    for p in config.primes:
        tasks += [({"tag": tag, "p": p}, rows, (p, config)) for tag, rows in on(P)]
        # a per-(p, x) family fixes r = 2, so its x are drawn for r = 2
        tasks += [({"tag": tag, "r": 2, "p": p, "x": x}, rows, (p, x)) for tag, rows in on(PX)
                  for x in draw_x_values(config, tag, 2, p)]
        for r in config.r_values:
            if p <= r:
                tasks.append(({"tag": ",".join(scoped), "r": r, "p": p},
                              _outside_scope, (scoped, r, p)))
                continue
            tasks += [({"tag": tag, "r": r, "p": p}, rows, (r, p)) for tag, rows in on(RP)]
            at_x = {}  # x -> the tags that drew it, once per draw
            for tag, _ in on(RPX):
                for x in draw_x_values(config, tag, r, p):
                    at_x.setdefault(x, []).append(tag)
            tasks += [({"tag": ",".join(dict.fromkeys(tags)), "r": r, "p": p, "x": x},
                       theorems.point_rows, (tags, r, p, x)) for x, tags in at_x.items()]
    return tasks


def run(config):
    """Execute all selected checks serially; returns (summary, sorted reports)."""
    start = time.perf_counter()
    reports = []
    for where, fn, args in build_tasks(config):
        try:
            reports += fn(*args)
        except Exception as exc:
            at = ", ".join(f"{key}={value}" for key, value in where.items())
            raise TaskError(f"{at}: {type(exc).__name__}: {exc}") from exc

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
    parser.add_argument("--x-random", type=int, default=None, metavar="N",
                        help="draw N random nondegenerate x per (r, p); fe and r3_beta "
                             f"sample N points per prime, {theorems.DEFAULT_SAMPLES} "
                             "when the flag is omitted")
    parser.add_argument("--theorems", default=",".join(DEFAULT_THEOREMS),
                        help=f"tags from: {', '.join(sorted(FAMILIES))}")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--series-order", type=int, default=60, metavar="N")
    parser.add_argument("--identity-n", type=int, default=20, metavar="N")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, metavar="PATH")
    return parser


def config_from_args(args):
    try:
        # a repeated r, x or tag is one check, not two: keep the first (primes are a set)
        r_values = list(dict.fromkeys(int(v) for v in args.r.split(",") if v.strip()))
        if any(r < 1 for r in r_values):
            raise ConfigError("r values must be positive")
        if args.x_random is not None and args.x_random < 0:
            raise ConfigError("--x-random must be at least 0")
        if not 1 <= args.series_order <= seriesid.MAX_SERIES_ORDER:
            raise ConfigError(f"--series-order must lie in 1..{seriesid.MAX_SERIES_ORDER}")
        if not 1 <= args.identity_n <= seriesid.MAX_IDENTITY_N:
            raise ConfigError(f"--identity-n must lie in 1..{seriesid.MAX_IDENTITY_N}")
        config = RunConfig(
            r_values=r_values,
            primes=parse_primes(args.primes) if args.primes else [],
            x_values=list(dict.fromkeys(parse_rationals(args.x))) if args.x else [],
            x_random=args.x_random,
            theorems=list(dict.fromkeys(t.strip() for t in args.theorems.split(",") if t.strip())),
            seed=args.seed,
            series_order=args.series_order,
            identity_n=args.identity_n,
            fmt=args.format,
            out=args.out,
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from exc
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
    except Exception as exc:  # a bug, never a verdict: not exit 1
        detail = exc if isinstance(exc, TaskError) else f"{type(exc).__name__}: {exc}"
        print(f"internal error: {detail}", file=sys.stderr)
        return 3
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
