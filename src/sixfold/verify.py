"""Verification suites.

Every check reduces an identity to exact polynomial residuals (a refined
count table is a generating polynomial too) or to an exact comparison of
count sequences and returns a Report; failures are data, never exceptions.
A report passes iff its residuals have no terms (respectively, no count
mismatches), so there is no tolerance anywhere.
"""

from __future__ import annotations

import json
import time
from typing import Callable, NamedTuple

from . import partitions, recurrence
from .partitions import B0_433, B0_533, EXTRA_PARAMS, GeneralParams, count_table
from .poly import TriPoly
from .recurrence import SeriesMemo


class ConfigError(ValueError):
    """Invalid suite configuration or check parameters."""


class Report(NamedTuple):
    """Outcome of one identity check.

    `n` is the check parameter: the level for per-level checks, the q bound
    for table checks, the bound n_max for Conj433 and Thm2Consistency, and
    100*lam + 10*k + a for Theorem1 (three parameters but one integer
    slot).  No two reports of one run share (identity, n): SuiteConfig
    rejects general cases that would (see _general_key).  `detail` and
    `diff` are diagnostics and not part of the serialized line.

    A NamedTuple like GeneralParams and Suite: immutable, equal to the
    plain tuple of its fields, and copied with `_replace`.
    """

    identity: str
    n: int
    passed: bool
    residual_terms: int
    ms: int
    detail: str = ""
    diff: tuple[str, ...] = ()

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "identity": self.identity,
                "n": self.n,
                "pass": self.passed,
                "residual_terms": self.residual_terms,
                "ms": self.ms,
            }
        )


def all_passed(reports: list[Report]) -> bool:
    return all(r.passed for r in reports)


def _elapsed_ms(t0: float) -> int:
    return int((time.perf_counter() - t0) * 1000)


def _residual_report(
    identity: str, n: int, residual: TriPoly, t0: float, detail: str = ""
) -> Report:
    terms = residual.terms()
    diff = tuple(f"{c}*a^{ea}*b^{eb}*q^{eq}" for c, ea, eb, eq in terms[:20])
    return Report(identity, n, not terms, len(terms), _elapsed_ms(t0), detail, diff)


# ------------------------------------------------------------------ suites


Residual = Callable[[int, SeriesMemo], TriPoly]


class Suite(NamedTuple):
    """Per-level identities that run together.

    `checks` lists (identity, residual) pairs in emit order; each residual
    is zero when its identity holds at level n.  The default top level is
    the SuiteConfig field `level_field` plus `offset`.
    """

    level_field: str
    offset: int
    checks: tuple[tuple[str, Residual], ...]

    def top_level(self, cfg: "SuiteConfig") -> int:
        return getattr(cfg, self.level_field) + self.offset


def _oracle_check(j: int) -> tuple[str, Residual]:
    """Recurrence value of class j against brute force, as Rec(16+j)."""
    return f"Rec{16 + j}", lambda n, memo: memo.s(n, j) - partitions.s_oracle(n, j)


def _recurrence_check(identity: str, name: str) -> tuple[str, Residual]:
    """`identity` as the residual recurrence.<name>(n, memo), looked up at
    call time so that a wrapped or patched function is the one that runs."""
    return identity, lambda n, memo: getattr(recurrence, name)(n, memo)


# Listed in emit order; IDENTITY_ORDER starts with their identities, in this order.
SUITES: dict[str, Suite] = {
    "oracle": Suite("n_max_oracle", 0, tuple(_oracle_check(j) for j in range(16))),
    "lemma1": Suite(
        "n_max_lemmas", 0, (_recurrence_check("J", "J_poly"), _recurrence_check("K", "K_poly"))
    ),
    # Link(n) involves K(n+1), so it stops one level below J and K.
    "link": Suite("n_max_lemmas", -1, (_recurrence_check("Link", "link_residual"),)),
    "lemma2": Suite("n_max_fourth_order", 0, (_recurrence_check("Lemma2", "lemma2_residual"),)),
    "lemma3": Suite("n_max_fourth_order", 0, (_recurrence_check("Lemma3", "lemma3_residual"),)),
    "lemma4": Suite("n_max_fourth_order", 0, (_recurrence_check("Lemma4", "lemma4_residual"),)),
}

# The general-family checks, keyed by their extra restriction set (None for
# Theorem1; a set's parameter triple is partitions.EXTRA_PARAMS): identity and
# detail template, filled with the parameters and n_max.
GENERAL_CHECKS: dict[str | None, tuple[str, str]] = {
    None: ("Theorem1", "lam={lam} k={k} a={a}, all n <= {n_max}"),
    B0_433: ("Conj433", "(4,3,3) with extras, all n <= {n_max}"),
    B0_533: ("Thm2Consistency", "pointwise A = B0 and refined-table row sums, all n <= {n_max}"),
}

IDENTITY_ORDER: tuple[str, ...] = (
    *(identity for entry in SUITES.values() for identity, _ in entry.checks),
    "Product",
    "Theorem3",
    *(identity for identity, _ in GENERAL_CHECKS.values()),
)
_ORDER_INDEX = {name: i for i, name in enumerate(IDENTITY_ORDER)}


def suite(name: str, n_max: int, memo: SeriesMemo | None = None) -> list[Report]:
    """Reports of suite `name` for every level 0..n_max, level by level.

    n_max = -1 runs no level (run_all asks the link suite for it when
    n_max_lemmas is 0); a lower n_max is a ConfigError, not an empty pass.
    """
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if n_max < -1:
        raise ConfigError(f"n_max must be >= -1, got {n_max}")
    memo = memo or SeriesMemo()
    out = []
    for n in range(n_max + 1):
        for identity, residual in SUITES[name].checks:
            t0 = time.perf_counter()
            out.append(_residual_report(identity, n, residual(n, memo), t0))
    return out


def _product_check(q_max: int) -> tuple[Report, TriPoly]:
    """The `Product` report at q_max and the product to q_max it checked:
    truncation stability, the product to q_max equals the product built
    three windows further (to q_max + 18) and cut at q_max."""
    t0 = time.perf_counter()
    wide = recurrence.product_truncated(q_max + 18).truncate(q_max)
    product = recurrence.product_truncated(q_max)
    report = _residual_report(
        "Product", q_max, product - wide, t0, detail="truncation stability under extra windows"
    )
    return report, product


# ------------------------------------------------------------ table checks


def theorem3_check(q_max: int) -> Report:
    """Three-way comparison of the side-A table, the side-B table and the
    truncated generating product, by the exact residual of each pair."""
    if q_max < 0:
        raise ConfigError(f"q_max must be >= 0, got {q_max}")
    t0 = time.perf_counter()
    return _theorem3(q_max, recurrence.product_truncated(q_max), t0)


def _theorem3(q_max: int, product: TriPoly, t0: float) -> Report:
    """theorem3_check(q_max) against the given product to q_max, timed from t0."""
    table_a = count_table("A", q_max)
    table_b = count_table("B", q_max)

    # Counts are positive, so the sum's terms are the union of the three key sets.
    compared = len(table_a + table_b + product)
    bad: set[tuple[int, int, int]] = set()  # triples where the three differ
    diffs: list[str] = []
    for name, lhs, rhs in (
        ("A vs B", table_a, table_b),
        ("A vs product", table_a, product),
        ("B vs product", table_b, product),
    ):
        residual = (lhs - rhs).terms()
        bad.update((mu, nu, n) for _, mu, nu, n in residual)
        for _, mu, nu, n in residual[:7]:
            diffs.append(
                f"{name} (mu={mu}, nu={nu}, N={n}): "
                f"{lhs.coeff(mu, nu, n)} != {rhs.coeff(mu, nu, n)}"
            )
    return Report(
        "Theorem3",
        q_max,
        not bad,
        len(bad),
        _elapsed_ms(t0),
        detail=f"{compared} coefficient triples compared three ways",
        diff=tuple(diffs[:20]),
    )


def _check_general_case(gp: GeneralParams, extra: str | None, n_max: int) -> None:
    if n_max < 0:
        raise ConfigError(f"general case {gp}: n_max must be >= 0")
    try:
        partitions.validate_case(gp, extra)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if extra is None and not (2 * gp.a > gp.lam and gp.a <= gp.k and gp.k >= gp.lam):
        raise ConfigError(f"params {gp} violate lam/2 < a <= k and k >= lam")


def _general_key(gp: GeneralParams, extra: str | None, n_max: int) -> tuple[str, int]:
    """(identity, n) of one general case's report: n is 100*lam + 10*k + a
    for Theorem1, unique only while k and a are at most 9, and n_max for
    the extra sets."""
    return GENERAL_CHECKS[extra][0], (100 * gp.lam + 10 * gp.k + gp.a if extra is None else n_max)


def general_case(gp: GeneralParams, extra: str | None, n_max: int) -> Report:
    """Report of one general-family case (identity and detail from
    GENERAL_CHECKS): family A against family B, or B0 with an extra
    restriction set, pointwise for all n <= n_max; with b0-533, also the
    refined side-B table's row sums against B0."""
    _check_general_case(gp, extra, n_max)
    identity, key = _general_key(gp, extra, n_max)
    t0 = time.perf_counter()
    left = partitions.general_A_series(gp, n_max)
    right = partitions.general_B_series(gp, n_max, extra=extra)
    totals = right  # row sums are compared for b0-533 only
    if extra == B0_533:
        totals = [0] * (n_max + 1)
        for c, _, _, n in count_table("B", n_max).terms():
            totals[n] += c
    name = "B" if extra is None else "B0"
    bad = []
    for n in range(n_max + 1):
        if left[n] != right[n]:
            bad.append(f"n={n}: A={left[n]} {name}={right[n]}")
        if totals[n] != right[n]:
            bad.append(f"n={n}: refined-table-sum={totals[n]} {name}={right[n]}")
    detail = GENERAL_CHECKS[extra][1].format(**gp._asdict(), n_max=n_max)
    return Report(identity, key, not bad, len(bad), _elapsed_ms(t0), detail, tuple(bad[:20]))


def theorem1_check(gp: GeneralParams, n_max: int) -> Report:
    """Pointwise equality of the two general families for all n <= n_max."""
    return general_case(gp, None, n_max)


def conj433_check(n_max: int) -> Report:
    """Family A at (4,3,3) against family B with the b0-433 extras."""
    return general_case(EXTRA_PARAMS[B0_433], B0_433, n_max)


def thm2_consistency(n_max: int) -> Report:
    """Family A at (5,3,3) against family B with the b0-533 extras, and the
    refined (mu, nu, N) table's row sums against the same family."""
    return general_case(EXTRA_PARAMS[B0_533], B0_533, n_max)


# --------------------------------------------------------------- full runs


DEFAULT_GENERAL_CASES: tuple[tuple[GeneralParams, str | None, int], ...] = (
    (GeneralParams(2, 2, 2), None, 40),
    (GeneralParams(2, 3, 2), None, 40),
    (GeneralParams(2, 3, 3), None, 40),
    (GeneralParams(3, 3, 2), None, 40),
    (GeneralParams(3, 3, 3), None, 40),
    (GeneralParams(4, 3, 3), B0_433, 40),
    (GeneralParams(5, 3, 3), B0_533, 40),
)


class SuiteConfig(NamedTuple):
    """Bounds for a full verification run (defaults are desk scale).

    A NamedTuple like GeneralParams and Suite: immutable, equal to the
    plain tuple of its fields, and copied with `_replace`.
    """

    n_max_lemmas: int = 6  # J, K and the linking identity
    n_max_fourth_order: int = 4  # the three fourth-order residual checks
    n_max_oracle: int = 4
    q_max_theorem: int = 50
    general_cases: tuple[tuple[GeneralParams, str | None, int], ...] = DEFAULT_GENERAL_CASES

    def validate(self) -> None:
        for name in ("n_max_lemmas", "n_max_fourth_order", "n_max_oracle", "q_max_theorem"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        seen: dict[tuple[str, int], GeneralParams] = {}
        for gp, extra, n_max in self.general_cases:
            _check_general_case(gp, extra, n_max)
            identity, n = key = _general_key(gp, extra, n_max)
            if key in seen:
                raise ConfigError(f"general cases {seen[key]} and {gp} both emit {identity} n={n}")
            seen[key] = gp


def run_all(cfg: SuiteConfig) -> list[Report]:
    """Run every suite; report content is a pure function of cfg.

    The per-level suites share one memo; the merged report list is sorted
    canonically by (identity, n).
    """
    cfg.validate()
    memo = SeriesMemo()
    reports = []
    for name, entry in SUITES.items():
        reports += suite(name, entry.top_level(cfg), memo)
    # the Product check builds the product to q_max_theorem; Theorem3 reuses it
    report, product = _product_check(cfg.q_max_theorem)
    reports += [report, _theorem3(cfg.q_max_theorem, product, time.perf_counter())]
    reports += [general_case(*case) for case in cfg.general_cases]
    reports.sort(key=lambda r: (_ORDER_INDEX[r.identity], r.n))
    return reports
