"""Acceptance suite: every exit criterion checked exactly, one line each.

All checks are exact (integer polynomial or integer table equality); there
are no tolerances anywhere.  Run with `pytest tests/test_acceptance.py -v -s`
to see one pass/fail line per criterion.
"""

import random

from helpers import (
    B2_Q9,
    DISPLAY_S0_9_SHORT,
    DISPLAY_S0_15,
    LEMMA3_LEVEL0_RESIDUAL,
)
from sixfold.partitions import (
    B0_433,
    B0_533,
    GeneralParams,
    count_table,
    general_A_series,
    general_B_series,
    s_oracle,
)
from sixfold.recurrence import (
    DEFAULT_P_TABLES,
    REC_RULES,
    J_poly,
    K_poly,
    SeriesMemo,
    lemma2_residual,
    lemma3_residual,
    lemma4_residual,
    link_residual,
    mutate_p_tables,
    mutate_rec_rules,
    product_truncated,
)
from sixfold.verify import all_passed, suite, theorem3_check


def _conclude(name: str, failures: list, note: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {status} — {note}")
    assert not failures, f"{name}: {failures}"


def test_criterion_1_oracle_equivalence(memo):
    failures = [
        (n, j)
        for n in range(5)
        for j in range(16)
        if memo.s(n, j) != s_oracle(n, j)
    ]
    _conclude(
        "criterion 1 (recurrence = brute force, n in 0..4, classes 0..15)",
        failures,
        f"{80 - len(failures)}/80 exact polynomial equalities",
    )


def test_criterion_2_vanishing_combinations(memo):
    failures = []
    for n in range(7):
        if not J_poly(n, memo).is_zero():
            failures.append(("J", n))
        if not K_poly(n, memo).is_zero():
            failures.append(("K", n))
    _conclude(
        "criterion 2 (J(n) = 0 = K(n), n in 0..6)",
        failures,
        f"{14 - len(failures)}/14 exactly zero",
    )


def test_criterion_3_linking_identity(memo):
    failures = [n for n in range(6) if not link_residual(n, memo).is_zero()]
    _conclude(
        "criterion 3 (linking identity zero, n in 0..5)",
        failures,
        f"{6 - len(failures)}/6 exactly zero",
    )


def test_criterion_4_fourth_order_residuals(memo):
    # Lemma2 is claimed for levels 0..4 and Lemma3 for levels 1..4.  The
    # Lemma3 level-0 instance is false as printed (README known finding 2);
    # its residual must equal the pinned 19 terms exactly, so the finding
    # cannot disappear or change unnoticed.
    nonzero = []
    for n in range(5):
        r2 = lemma2_residual(n, memo)
        if not r2.is_zero():
            nonzero.append(("Lemma2", n, len(r2)))
    for n in range(1, 5):
        r3 = lemma3_residual(n, memo)
        if not r3.is_zero():
            nonzero.append(("Lemma3", n, len(r3)))
    failures = list(nonzero)
    r3_level0 = lemma3_residual(0, memo)
    pinned = r3_level0 == LEMMA3_LEVEL0_RESIDUAL
    if not pinned:
        failures.append(("Lemma3 n=0 finding changed", len(r3_level0)))
    _conclude(
        "criterion 4 (fourth-order residuals zero, Lemma2 n in 0..4, "
        "Lemma3 n in 1..4)",
        failures,
        f"{9 - len(nonzero)}/9 exactly zero; level-0 residual "
        f"{'equals' if pinned else 'differs from'} the pinned 19 terms "
        "(the Lemma3 n=0 instance is false as printed; independently "
        "confirmed by a second CAS — see the README identity catalogue)",
    )


def test_criterion_5_product_form(memo):
    failures = [n for n in range(5) if not lemma4_residual(n, memo).is_zero()]
    _conclude(
        "criterion 5 (product form of the class-15 series, n in 0..4)",
        failures,
        f"{5 - len(failures)}/5 exactly zero (n = 4 exercises the full "
        "four-term history)",
    )


def test_criterion_6_refined_tables_at_desk_scale():
    report = theorem3_check(50)
    failures = [] if report.passed else [report.diff]
    _conclude(
        "criterion 6 (A table = B table = product coefficients, N <= 50)",
        failures,
        report.detail,
    )


def test_criterion_7_display_regression(memo):
    failures = []
    if s_oracle(0, 15) != DISPLAY_S0_15:
        failures.append("class-15 display mismatch")
    surplus = s_oracle(0, 9) - DISPLAY_S0_9_SHORT
    if surplus != B2_Q9:
        failures.append(f"class-9 surplus is {surplus.to_text()}, expected b^2*q^9")
    # the surplus term is forced two independent ways: by J(0) = 0 and by
    # the class-9 recurrence step at level 0
    if not J_poly(0, memo).is_zero():
        failures.append("J(0) != 0")
    if memo.s(0, 9) - memo.s(0, 8) != B2_Q9:
        failures.append("level-0 class-9 recurrence step does not add b^2*q^9")
    _conclude(
        "criterion 7 (reference displays; the 9-term class-9 display omits "
        "b^2*q^9 — reported, not suppressed)",
        failures,
        "class-15 display exact; class-9 display short by exactly the forced term",
    )


def test_criterion_8_general_family_desk_checks():
    failures = []
    for lam, k, a in ((2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 3, 2), (3, 3, 3)):
        gp = GeneralParams(lam, k, a)
        if general_A_series(gp, 40) != general_B_series(gp, 40):
            failures.append(("Theorem1", gp))
    gp = GeneralParams(4, 3, 3)
    if general_A_series(gp, 40) != general_B_series(gp, 40, extra=B0_433):
        failures.append(("Conj433", gp))
    gp = GeneralParams(5, 3, 3)
    refined = general_B_series(gp, 40, extra=B0_533)
    if general_A_series(gp, 40) != refined:
        failures.append(("Thm2", gp))
    totals = [0] * 41
    for c, _, _, n in count_table("B", 40).terms():
        totals[n] += c
    if totals != refined:
        failures.append(("Thm2Consistency", "refined table sums"))
    _conclude(
        "criterion 8 (general families, 8 desk checks, all n <= 40)",
        failures,
        f"{8 - len(failures)}/8 pointwise equal",
    )


def test_criterion_9_mutation_sensitivity():
    rng = random.Random(20260810)
    missed = []
    for _ in range(4):
        tables, note = mutate_p_tables(DEFAULT_P_TABLES, rng)
        if all_passed(suite("lemma2", 2, SeriesMemo(p_tables=tables))):
            missed.append(note)
    for _ in range(4):
        rules, note = mutate_rec_rules(REC_RULES, rng)
        if all_passed(suite("oracle", 2, SeriesMemo(rules))):
            missed.append(note)
    _conclude(
        "criterion 9 (mutation sensitivity, 8 random single-term mutations)",
        missed,
        f"{8 - len(missed)}/8 mutations caught by a suite",
    )


def test_truncation_stability_supporting_check():
    residual = product_truncated(50) - product_truncated(50 + 18).truncate(50)
    _conclude(
        "supporting check (product truncation stability at N <= 50)",
        residual.terms(),
        "extra factor windows change nothing below the bound",
    )
