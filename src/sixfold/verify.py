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
from typing import Callable, Iterable, NamedTuple

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


def _report(
    identity: str, n: int, bad: int, lines: list[str], t0: float, detail: str = ""
) -> Report:
    """The report of a check that found `bad` mismatches, timed from t0,
    with the first 20 of its diagnostic lines."""
    return Report(identity, n, not bad, bad, _elapsed_ms(t0), detail, tuple(lines[:20]))


def _residual_report(
    identity: str, n: int, residual: TriPoly, t0: float, detail: str = ""
) -> Report:
    lines = residual.to_text().split(" + ") if residual else []
    return _report(identity, n, len(residual), lines, t0, detail)


# ------------------------------------------------------------------ suites


Residual = Callable[[int, SeriesMemo], TriPoly]


class Suite(NamedTuple):
    """One `verify --suite` choice: identities that run together.

    `checks` lists (identity, check) pairs in emit order.  `flag` is the
    verify flag that bounds the suite, and the SuiteConfig field
    `level_field` gives its default bound.  A per-level suite's checks are
    residuals, each zero when its identity holds at level n, and the
    per-level suites run together level by level over a shared memo
    (`_run`).  `reads` names what its checks read at level n: window
    classes, and identity tables by their name in the recurrence module,
    looked up at run time like the residuals, so each table's terms read
    at their dn.  A suite whose tables read above their own level runs
    `_lag` levels late, so its default top level is `level_field` minus
    its lag.  `prepare(n)`, if given, does the work the checks of level n
    share before they are timed.  A suite that is not `per_level` makes
    one report per check, check(bound), at its bound.
    """

    level_field: str
    checks: tuple[tuple[str, Callable], ...]
    reads: tuple[int | str, ...] = ()
    prepare: Callable[[int], object] | None = None
    flag: str = "--n-max"
    per_level: bool = True

    def top_level(self, cfg: "SuiteConfig") -> int:
        return getattr(cfg, self.level_field) - _lag(self)


def _oracle_check(j: int) -> tuple[str, Residual]:
    """Recurrence value of class j against brute force, as Rec(16+j)."""
    return f"Rec{16 + j}", lambda n, memo: memo.s(n, j) - partitions.s_oracle(n, j)


def _recurrence_check(identity: str, name: str) -> tuple[str, Residual]:
    """`identity` as the residual recurrence.<name>(n, memo), looked up at
    call time so that a wrapped or patched function is the one that runs."""
    return identity, lambda n, memo: getattr(recurrence, name)(n, memo)


# Every `verify --suite` choice but `all`, in emit order: IDENTITY_ORDER
# reads their identities off them.
SUITES: dict[str, Suite] = {
    "oracle": Suite(
        "n_max_oracle",
        tuple(_oracle_check(j) for j in range(16)),
        tuple(range(16)),
        lambda n: partitions.s_oracle(n, 0),  # steps the enumeration to level n
    ),
    "lemma1": Suite(
        "n_max_lemmas",
        (_recurrence_check("J", "J_poly"), _recurrence_check("K", "K_poly")),
        ("J_TERMS", "K_TERMS"),
    ),
    # Link(n) involves K(n+1), so it runs a level late and stops one level below J and K.
    "link": Suite("n_max_lemmas", (_recurrence_check("Link", "link_residual"),), ("LINK_TERMS",)),
    "lemma2": Suite(
        "n_max_fourth_order", (_recurrence_check("Lemma2", "lemma2_residual"),), ("LEMMA2_TERMS",)
    ),
    "lemma3": Suite(
        "n_max_fourth_order", (_recurrence_check("Lemma3", "lemma3_residual"),), ("LEMMA3_TERMS",)
    ),
    "lemma4": Suite(
        "n_max_fourth_order", (_recurrence_check("Lemma4", "lemma4_residual"),), ("LEMMA4_TERMS",)
    ),
    "theorem3": Suite(
        "q_max_theorem",
        (("Theorem3", lambda q_max: theorem3_check(q_max)),),
        flag="--q-max",
        per_level=False,
    ),
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
    *(identity for entry in SUITES.values() if entry.per_level for identity, _ in entry.checks),
    "Product",  # run_all builds the product once, for this check and Theorem3
    *(identity for entry in SUITES.values() if not entry.per_level for identity, _ in entry.checks),
    *(identity for identity, _ in GENERAL_CHECKS.values()),
)
_ORDER_INDEX = {name: i for i, name in enumerate(IDENTITY_ORDER)}


def _refs(entry: Suite) -> list[int | tuple]:
    """What the suite's checks read at their level: classes and identity tables."""
    return [getattr(recurrence, r) if isinstance(r, str) else r for r in entry.reads]


def _lag(entry: Suite) -> int:
    """How many levels late the runner checks the suite: as many as its
    reads reach above their own level (Link reads K(n+1): 1)."""
    return -min([0, *(dn for _, dn in recurrence.reads((ref, 0) for ref in _refs(entry)))])


def _suite_reads(entries: Iterable[Suite]) -> list[recurrence.Read]:
    """What the suites' checks read at a level of the runner, each suite's
    `_lag` levels below it."""
    return [(ref, _lag(entry)) for entry in entries for ref in _refs(entry)]


def _run(tops: dict[str, int], memo: SeriesMemo | None = None) -> list[Report]:
    """Reports of each per-level suite in `tops` at levels 0..tops[name],
    level by level, the suites of a level in SUITES order.

    At level n the runner checks each suite at level n - `_lag`: a suite
    whose tables read above their own level runs that many levels late
    (Link(n - 1) reads K(n), which the K check of level n has summed).  It
    makes each due suite's `prepare`, then fills the memo to level n, and
    only then times each check, so a report's `ms` is its own residual's.
    The oracle's window step comes first because it holds two layers at
    once: so it meets the memo's entries that level n's rules read, not
    all of level n.  A memo passed in keeps every entry and value.
    Otherwise the runner's memo holds only what the suites with levels
    still to check read (`SeriesMemo.hold_only`), and after each level
    releases what no later level reads.
    """
    owned = memo is None
    memo = memo or SeriesMemo()
    lags = {name: _lag(SUITES[name]) for name in tops}
    out = []
    for n in range(max((top + lags[s] for s, top in tops.items() if top >= 0), default=-1) + 1):
        pending = [name for name in SUITES if name in tops and tops[name] + lags[name] >= n]
        if owned:
            memo.hold_only(_suite_reads(SUITES[name] for name in pending))
        due = [(SUITES[name], n - lags[name]) for name in pending if n >= lags[name]]
        for entry, level in due:
            if entry.prepare:
                entry.prepare(level)
        memo.s(n, 15)
        for entry, level in due:
            for identity, residual in entry.checks:
                t0 = time.perf_counter()
                out.append(_residual_report(identity, level, residual(level, memo), t0))
        if owned:
            memo.release(n + 1)
    return out


def suite(name: str, n_max: int, memo: SeriesMemo | None = None) -> list[Report]:
    """Reports of the per-level suite `name` for every level 0..n_max,
    level by level (`_run`): on a memo passed in, which keeps every entry,
    or on one of its own that holds only what the later levels read.

    n_max = -1 runs no level, as Link's top under run_all is when
    n_max_lemmas is 0; a lower n_max is a ConfigError, not an empty pass.
    """
    per_level = [key for key, entry in SUITES.items() if entry.per_level]
    if name not in per_level:
        raise ConfigError(f"unknown suite {name!r}; choose from {', '.join(per_level)}")
    if n_max < -1:
        raise ConfigError(f"n_max must be >= -1, got {n_max}")
    return _run({name: n_max}, memo)


def run_choice(name: str, flags: dict[str, int | None]) -> list[Report]:
    """Reports of `sixfold verify --suite name`, `flags` mapping each bound
    flag to its value, None when it is not given.  `all` reads the flag of
    every entry and runs run_all.  Any other choice reads only its entry's
    flag: a per-level suite checks levels 0..value, a bound suite makes its
    reports at the value, and without it each checks what `all` checks.  A
    negative value, or a value for a flag the choice does not read, is a
    ConfigError.
    """
    entries = list(SUITES.values()) if name == "all" else [SUITES[name]]
    for flag, value in flags.items():
        if value is not None and value < 0:
            raise ConfigError(f"{flag} must be >= 0")
        if value is not None and flag not in {e.flag for e in entries}:
            raise ConfigError(f"--suite {name} does not read {flag}")
    given = {e.level_field: flags[e.flag] for e in entries if flags.get(e.flag) is not None}
    if name == "all":
        return run_all(SuiteConfig(**given))
    entry = SUITES[name]
    bound = given.get(entry.level_field, entry.top_level(SuiteConfig()))
    return suite(name, bound) if entry.per_level else [check(bound) for _, check in entry.checks]


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
    detail = f"{compared} coefficient triples compared three ways"
    return _report("Theorem3", q_max, len(bad), diffs, t0, detail)


def _general_key(gp: GeneralParams, extra: str | None, n_max: int) -> tuple[str, int]:
    """(identity, n) of one general case's report, once the case's
    parameters are checked (ConfigError): n is 100*lam + 10*k + a for
    Theorem1, unique only while k and a are at most 9, and n_max for the
    extra sets."""
    if n_max < 0:
        raise ConfigError(f"general case {gp}: n_max must be >= 0")
    try:
        partitions.validate_case(gp, extra)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if extra is None and not (2 * gp.a > gp.lam and gp.a <= gp.k and gp.k >= gp.lam):
        raise ConfigError(f"params {gp} violate lam/2 < a <= k and k >= lam")
    return GENERAL_CHECKS[extra][0], (100 * gp.lam + 10 * gp.k + gp.a if extra is None else n_max)


def general_case(gp: GeneralParams, extra: str | None, n_max: int) -> Report:
    """Report of one general-family case (identity and detail from
    GENERAL_CHECKS): family A against family B, or B0 with an extra
    restriction set, pointwise for all n <= n_max; with b0-533, also the
    refined side-B table's row sums against B0."""
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
    return _report(identity, key, len(bad), bad, t0, detail)


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
            identity, n = key = _general_key(gp, extra, n_max)
            if key in seen:
                raise ConfigError(f"general cases {seen[key]} and {gp} both emit {identity} n={n}")
            seen[key] = gp


def run_all(cfg: SuiteConfig) -> list[Report]:
    """Run every suite; report content is a pure function of cfg.

    The per-level suites run together, level by level, on one memo that
    holds only what their later levels read (`_run`); the merged report
    list is sorted canonically by (identity, n).
    """
    cfg.validate()
    reports = _run({name: e.top_level(cfg) for name, e in SUITES.items() if e.per_level})
    # the Product check builds the product to q_max_theorem; Theorem3 reuses it
    report, product = _product_check(cfg.q_max_theorem)
    reports += [report, _theorem3(cfg.q_max_theorem, product, time.perf_counter())]
    reports += [general_case(*case) for case in cfg.general_cases]
    reports.sort(key=lambda r: (_ORDER_INDEX[r.identity], r.n))
    return reports
