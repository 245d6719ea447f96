"""Command-line surface: batch verification and canonical serializations.

Data goes to stdout (report JSON lines, CSV/JSON tables, canonical
polynomial text); diagnostics go to stderr.  Exit status: 0 all checks
passed, 1 at least one check failed, 2 configuration error, 3 internal
error (any other exception, reported as one `internal error:` line).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import partitions, recurrence, verify
from .partitions import GeneralParams


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixfold",
        description="Exact verification engine for a mod-6 family of partition identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites; one JSON report line per check")
    p.add_argument(
        "--suite",
        choices=["all", *verify.SUITES, "theorem3"],
        default="all",
    )
    p.add_argument("--n-max", type=int, default=None, help="largest level checked (suite default if omitted)")
    q_max = verify.SuiteConfig().q_max_theorem
    p.add_argument("--q-max", type=int, default=q_max, help="q bound for the table/product checks")

    p = sub.add_parser("counts", help="refined (mu, nu, N) count table for one side")
    p.add_argument("--side", choices=["A", "B"], required=True)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("series", help="one windowed series, from either computation path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True, help="top-window class bound, 0..15")
    p.add_argument("--source", choices=["oracle", "recurrence"], default="oracle")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("general", help="desk check of one general-family case")
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--extra", choices=["none", *partitions.EXTRA_PARAMS], default="none")
    p.add_argument("--n-max", type=int, default=40)

    p = sub.add_parser("product", help="truncated product of the side-A generating factors")
    p.add_argument("--q-max", type=int, default=q_max)

    return parser


def _emit(reports: list[verify.Report]) -> int:
    for r in reports:
        print(r.to_json_line())
        if not r.passed:
            why = r.detail or f"{r.residual_terms} residual terms"
            print(f"FAIL {r.identity} n={r.n}: {why}", file=sys.stderr)
            for line in r.diff:
                print(f"  {line}", file=sys.stderr)
    return 0 if verify.all_passed(reports) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    for flag, value in (("--n-max", args.n_max), ("--q-max", args.q_max)):
        if value is not None and value < 0:
            raise verify.ConfigError(f"{flag} must be >= 0")
    if args.suite == "all":
        overrides = {}
        if args.n_max is not None:
            overrides = {entry.level_field: args.n_max for entry in verify.SUITES.values()}
        cfg = verify.SuiteConfig(q_max_theorem=args.q_max, **overrides)
        return _emit(verify.run_all(cfg))
    if args.suite == "theorem3":
        return _emit([verify.theorem3_check(args.q_max)])
    n_max = args.n_max
    if n_max is None:
        n_max = verify.SUITES[args.suite].top_level(verify.SuiteConfig())
    return _emit(verify.suite(args.suite, n_max))


def _cmd_counts(args: argparse.Namespace) -> int:
    terms = partitions.count_table(args.side, args.n_max).terms()
    if args.format == "csv":
        print("\n".join(["mu,nu,N,count", *(f"{mu},{nu},{n},{c}" for c, mu, nu, n in terms)]))
    else:
        print(json.dumps([[mu, nu, n, str(c)] for c, mu, nu, n in terms]))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    if args.n < -1:
        raise ValueError(f"--n must be >= -1, got {args.n}")
    if args.source == "oracle":
        poly = partitions.s_oracle(args.n, args.j)
    else:
        poly = recurrence.SeriesMemo().s(args.n, args.j)
    if args.format == "text":
        print(poly.to_text())
    else:
        print(poly.to_json())
    return 0


def _cmd_general(args: argparse.Namespace) -> int:
    gp = GeneralParams(args.lam, args.k, args.a)
    extra = None if args.extra == "none" else args.extra
    return _emit([verify.general_case(gp, extra, args.n_max)])


def _cmd_product(args: argparse.Namespace) -> int:
    print(recurrence.product_truncated(args.q_max).to_text())
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "counts": _cmd_counts,
    "series": _cmd_series,
    "general": _cmd_general,
    "product": _cmd_product,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:  # includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 must keep meaning "a check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
