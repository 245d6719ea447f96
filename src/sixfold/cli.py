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
from .poly import TriPoly


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixfold",
        description="Exact verification engine for a mod-6 family of partition identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run verification suites; one JSON report line per check")
    p.set_defaults(run=_cmd_verify)
    p.add_argument(
        "--suite",
        choices=["all", *verify.SUITES],
        default="all",
        help="all reads every suite's flag, each other suite its own: "
        + ", ".join(f"{name} {entry.flag}" for name, entry in verify.SUITES.items()),
    )
    p.add_argument("--n-max", type=int, help="largest level checked (suite default if omitted)")
    q_max = verify.SuiteConfig().q_max_theorem
    p.add_argument("--q-max", type=int, help=f"q bound of Product and Theorem3 (default {q_max})")

    p = sub.add_parser("counts", help="refined (mu, nu, N) count table for one side")
    p.set_defaults(run=_cmd_counts)
    p.add_argument("--side", choices=["A", "B"], required=True)
    p.add_argument("--n-max", type=int, default=40)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("series", help="one windowed series, from either computation path")
    p.set_defaults(run=_cmd_series)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--j", type=int, required=True, help="top-window class bound, 0..15")
    p.add_argument("--source", choices=["oracle", "recurrence"], default="oracle")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("general", help="desk check of one general-family case")
    p.set_defaults(run=_cmd_general)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--extra", choices=["none", *partitions.EXTRA_PARAMS], default="none")
    p.add_argument("--n-max", type=int, default=40)

    p = sub.add_parser("product", help="truncated product of the side-A generating factors")
    p.set_defaults(run=_cmd_product)
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
    return _emit(verify.run_choice(args.suite, {"--n-max": args.n_max, "--q-max": args.q_max}))


def _cmd_counts(args: argparse.Namespace) -> int:
    terms = partitions.count_table(args.side, args.n_max).terms()
    if args.format == "csv":
        print("\n".join(["mu,nu,N,count", *(f"{mu},{nu},{n},{c}" for c, mu, nu, n in terms)]))
    else:
        print(json.dumps([[mu, nu, n, str(c)] for c, mu, nu, n in terms]))
    return 0


def _print(poly: TriPoly, form: str = "text") -> None:
    """print(poly.to_text()) or print(poly.to_json()), written q exponent
    by q exponent (TriPoly.write)."""
    poly.write(sys.stdout, form)
    sys.stdout.write("\n")


def _cmd_series(args: argparse.Namespace) -> int:
    if args.n < -1:
        raise ValueError(f"--n must be >= -1, got {args.n}")
    if args.source == "oracle":
        poly = partitions.s_oracle(args.n, args.j)
    else:
        memo = recurrence.SeriesMemo()
        memo.s(-1, args.j)  # checks the class before any level is filled
        memo.hold_only(last=(args.n, args.j))
        for level in range(args.n):  # hold only what the next levels read
            memo.s(level, 15)
            memo.release(level + 1)
        poly = memo.s(args.n, args.j)
        del memo  # free the other entries before printing
    _print(poly, args.format)
    return 0


def _cmd_general(args: argparse.Namespace) -> int:
    gp = GeneralParams(args.lam, args.k, args.a)
    extra = None if args.extra == "none" else args.extra
    return _emit([verify.general_case(gp, extra, args.n_max)])


def _cmd_product(args: argparse.Namespace) -> int:
    _print(recurrence.product_truncated(args.q_max))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:  # includes ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 must keep meaning "a check failed"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
