import json
import random
import time
import tracemalloc
from collections import Counter

import pytest

from sixfold import partitions, recurrence, verify
from sixfold.partitions import B0_433, B0_533, GeneralParams
from sixfold.poly import monomial
from sixfold.recurrence import (
    DEFAULT_P_TABLES,
    REC_RULES,
    SeriesMemo,
    mutate_p_tables,
    mutate_rec_rules,
)
from sixfold.verify import (
    DEFAULT_GENERAL_CASES,
    IDENTITY_ORDER,
    SUITES,
    ConfigError,
    Report,
    SuiteConfig,
    all_passed,
    conj433_check,
    general_case,
    run_all,
    suite,
    theorem1_check,
    theorem3_check,
    thm2_consistency,
)

SMALL = SuiteConfig(
    n_max_lemmas=2,
    n_max_fourth_order=2,
    n_max_oracle=1,
    q_max_theorem=8,
    general_cases=(
        (GeneralParams(2, 3, 2), None, 10),
        (GeneralParams(4, 3, 3), B0_433, 10),
        (GeneralParams(5, 3, 3), B0_533, 10),
    ),
)


def _stripped(reports):
    lines = []
    for r in reports:
        obj = json.loads(r.to_json_line())
        obj.pop("ms")
        lines.append(obj)
    return lines


def test_report_json_line_schema():
    line = Report("J", 3, True, 0, 12).to_json_line()
    assert json.loads(line) == {"identity": "J", "n": 3, "pass": True, "residual_terms": 0, "ms": 12}
    assert list(json.loads(line)) == ["identity", "n", "pass", "residual_terms", "ms"]


@pytest.mark.parametrize(
    "record, field",
    [(SuiteConfig(), "q_max_theorem"), (Report("J", 3, True, 0, 12, "d", ("x",)), "passed")],
)
def test_reports_and_configs_are_immutable_and_hashable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert hash(record) == hash(record._replace())


def test_pass_iff_no_residual_terms():
    for r in run_all(SMALL):
        assert r.passed == (r.residual_terms == 0)


def test_run_all_small_config_all_green_but_the_known_finding():
    reports = run_all(SMALL)
    assert reports
    fails = [(r.identity, r.n) for r in reports if not r.passed]
    assert fails == [("Lemma3", 0)]


def test_run_all_is_deterministic():
    assert _stripped(run_all(SMALL)) == _stripped(run_all(SMALL))


def test_report_order_does_not_depend_on_the_case_order():
    # the report order is IDENTITY_ORDER, derived from SUITES
    reordered = SMALL._replace(general_cases=SMALL.general_cases[::-1])
    forward, backward = run_all(SMALL), run_all(reordered)
    assert [r._replace(ms=0) for r in backward] == [r._replace(ms=0) for r in forward]
    for entry in SUITES.values():
        for identity, _ in entry.checks:
            assert IDENTITY_ORDER.count(identity) == 1, identity
    for identity in ("Theorem1", "Conj433", "Thm2Consistency"):
        assert IDENTITY_ORDER.count(identity) == 1, identity


def test_oracle_suite_bound_semantics():
    reports = suite("oracle", 0)
    assert len(reports) == 16
    assert {r.identity for r in reports} == {f"Rec{k}" for k in range(16, 32)}
    assert all(r.n == 0 and r.passed for r in reports)


def test_lemma1_suite_emits_j_and_k_per_level(memo):
    reports = suite("lemma1", 2, memo)
    assert [(r.identity, r.n) for r in reports] == [
        ("J", 0), ("K", 0), ("J", 1), ("K", 1), ("J", 2), ("K", 2)
    ]
    assert all_passed(reports)


def test_link_suite(memo):
    assert all_passed(suite("link", 2, memo))
    assert suite("link", -1, memo) == []


def test_suite_below_level_minus_one_is_a_config_error():
    # an empty report list would read as a pass with no check run
    with pytest.raises(ConfigError, match="n_max must be >= -1, got -3"):
        suite("oracle", -3)


def test_unknown_suite_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown suite 'bogus'; choose from oracle, lemma1, link"):
        suite("bogus", 2)


# The largest dn at which the rules and the suites' tables read each class:
# the rules read the classes of REC_REACH in test_recurrence (class 9 three
# levels down), Lemma2 class 9 and Lemma3 class 15 four levels down, and the
# oracle every class at its own level.  Link reads K(n+1), so the runner
# checks it a level late: at runner level n it reads J(n - 1), K(n - 1) and
# K(n), and the window of J and K is 1.
LEMMA_WINDOW = {3: 1, 5: 1, 8: 1, 9: 4, 11: 1, 12: 1, 13: 1, 14: 1, 15: 4}
ALL_WINDOW = {**dict.fromkeys(range(16), 0), **LEMMA_WINDOW}


def _window(names):
    memo = SeriesMemo()
    memo.hold_only(verify._suite_reads([SUITES[name] for name in names]))
    return memo.window


def test_the_read_window_of_the_default_tables_is_pinned():
    window = _window(SUITES)
    assert {c: window[c] for c in range(16) if c in window} == ALL_WINDOW
    assert window[recurrence.J_TERMS] == window[recurrence.K_TERMS] == 1
    lemmas = _window(name for name in SUITES if name != "oracle")
    assert {c: lemmas[c] for c in range(16) if c in lemmas} == LEMMA_WINDOW


def _same_reports(name, n_max):
    releasing = suite(name, n_max)
    holding = suite(name, n_max, SeriesMemo())
    assert [r._replace(ms=0) for r in releasing] == [r._replace(ms=0) for r in holding]
    return releasing


def test_a_lemma2_term_moved_a_level_back_widens_the_window(monkeypatch):
    # the S(n-4, 9) term of Lemma2 moved to S(n-5, 9): the window of class 9
    # widens to 5 with it, and a releasing run still reads every entry
    table = list(recurrence.LEMMA2_TERMS)
    (i,) = [i for i, term in enumerate(table) if term[5] == 4]
    table[i] = table[i][:5] + (5,) + table[i][6:]
    original = recurrence.LEMMA2_TERMS
    monkeypatch.setattr(recurrence, "LEMMA2_TERMS", tuple(table))
    assert _window(["lemma2"])[9] == 5
    reports = _same_reports("lemma2", 9)
    assert not all_passed(reports)  # the moved term breaks the identity
    # a window read off the unmoved table drops S(n-5, 9) too early
    monkeypatch.setattr(verify, "_suite_reads", lambda entries: [(original, 0)])
    with pytest.raises(LookupError, match=r"S\(\d+, 9\) was released"):
        suite("lemma2", 9)


@pytest.mark.parametrize("name", ["lemma4", "link"])
def test_releasing_runs_report_as_holding_runs(name):
    assert all_passed(_same_reports(name, 12))


def test_lemma4_reads_inside_the_rules_window():
    # what Lemma4 reads, S(n, 15) and S(n-1, 9), must lie inside the window
    # its suite declares
    memo = SeriesMemo()
    memo.hold_only(verify._suite_reads([SUITES["lemma4"]]))
    read = []
    fill = memo.s
    memo.s = lambda n, j: read.append((n, j)) or fill(n, j)
    for n in range(6):
        fill(n, 15)  # through the unwrapped fill, so only the residual's reads are recorded
        read.clear()
        recurrence.lemma4_residual(n, memo)
        assert read and all(0 <= n - level <= memo.window[c] for level, c in read), read


def test_a_memo_passed_in_keeps_every_entry_and_value():
    memo = SeriesMemo()
    suite("lemma1", 4, memo)
    suite("link", 3, memo)
    suite("oracle", 4, memo)
    assert len(memo._table) == 16 * 5 and None not in memo._table
    assert len(memo._held) == 10 and None not in memo._held.values()
    assert all(memo.s(n, j) == SeriesMemo().s(n, j) for n in range(5) for j in range(16))


# Tracemalloc peak of run_all with J, K, Link and Lemma2-4 to level 10 and the
# oracle at level 0 only (Python 3.11): 9.16 MiB when the runner goes level by
# level and releases what no later level reads, against 17.39 MiB when each
# suite ran on its own over one memo that held every level.  The bound is the
# first plus 1.84 MiB, about 20 %.
LEMMAS_10_PEAK_BOUND = 11.0 * 2**20


def test_run_all_lemma_suites_stay_in_bounded_memory():
    tracemalloc.start()
    try:
        reports = run_all(SuiteConfig(10, 10, 0, 0, ()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [(r.identity, r.n) for r in reports if not r.passed] == [("Lemma3", 0)]
    assert len(reports) == 83
    assert peak < LEMMAS_10_PEAK_BOUND, f"{peak / 2**20:.2f} MiB"


def _count_jk_sums(monkeypatch) -> Counter:
    """Counter of (identity, n) for every sum of J_TERMS or K_TERMS."""
    calls: Counter = Counter()
    combination = recurrence._combination

    def counted(terms, n, memo):
        for name, table in (("J", recurrence.J_TERMS), ("K", recurrence.K_TERMS)):
            if terms is table:
                calls[name, n] += 1
        return combination(terms, n, memo)

    monkeypatch.setattr(recurrence, "_combination", counted)
    return calls


def test_run_all_sums_j_and_k_once_per_level(monkeypatch):
    calls = _count_jk_sums(monkeypatch)
    run_all(SuiteConfig(4, 0, 0, 0, ()))
    assert calls == Counter({(name, n): 1 for name in "JK" for n in range(5)})


def test_link_suite_sums_each_k_once(monkeypatch):
    calls = _count_jk_sums(monkeypatch)
    suite("link", 3, SeriesMemo())
    assert calls == Counter({**{("J", n): 1 for n in range(4)}, **{("K", n): 1 for n in range(5)}})


def test_link_reports_equal_a_fresh_memo_evaluation():
    """Link reports that read held J and K equal those of a memo made for
    the one level, on pristine rules and on rules that break J, K and Link."""
    broken = mutate_rec_rules(REC_RULES, random.Random(0))[0]
    for rules in (REC_RULES, broken):
        memo = SeriesMemo(rules)
        suite("lemma1", 3, memo)
        held = suite("link", 2, memo)
        fresh = [
            verify._residual_report("Link", n, recurrence.link_residual(n, SeriesMemo(rules)), 0)
            for n in range(3)
        ]
        assert [r._replace(ms=0) for r in held] == [r._replace(ms=0) for r in fresh]
        assert all_passed(held) == (rules is REC_RULES)


def test_a_slow_k_sum_is_charged_to_the_k_rows(monkeypatch):
    # Link(n) reads K(n + 1); the runner checks Link a level late, after the
    # K check of level n + 1 has summed it, so no Link row carries a K sum
    combination = recurrence._combination

    def slow_k(terms, n, memo):
        if terms is recurrence.K_TERMS:
            time.sleep(0.05)
        return combination(terms, n, memo)

    monkeypatch.setattr(recurrence, "_combination", slow_k)
    reports = run_all(SuiteConfig(3, 0, 0, 0, ()))
    assert [r.n for r in reports if r.identity == "K" and r.ms >= 50] == [0, 1, 2, 3]
    assert [r.n for r in reports if r.identity == "Link" and r.ms < 50] == [0, 1, 2]


def test_residual_time_is_charged_to_its_report(monkeypatch):
    link_residual = recurrence.link_residual

    def slow_link_residual(n, memo=None):
        time.sleep(0.05)
        return link_residual(n, memo)

    monkeypatch.setattr(recurrence, "link_residual", slow_link_residual)
    (report,) = suite("link", 0)
    assert report.identity == "Link" and report.ms >= 50


def test_product_suite(memo):
    report, _ = verify._product_check(12)
    assert report.identity == "Product" and report.passed


def test_product_suite_catches_a_product_truncated_one_slot_short(monkeypatch):
    """A product cut below its bound fails the check: the wider side is
    built to a later bound, so the two sides do not share the short cut."""
    original = recurrence.product_truncated
    monkeypatch.setattr(
        recurrence,
        "product_truncated",
        lambda q_max, *a, **k: original(q_max, *a, **k).truncate(max(q_max - 1, 0)),
    )
    report, _ = verify._product_check(12)
    assert not report.passed and report.residual_terms == 3


def test_run_all_builds_the_truncated_product_once(monkeypatch):
    """Product and Theorem3 share the product to q_max_theorem: one build
    of it, after the wider one the Product check compares it with."""
    calls = []
    original = recurrence.product_truncated

    def recorded(q_max):
        calls.append(q_max)
        return original(q_max)

    monkeypatch.setattr(recurrence, "product_truncated", recorded)
    reports = run_all(SuiteConfig())
    assert calls == [68, 50]
    assert [r.passed for r in reports if r.identity in ("Product", "Theorem3")] == [True, True]


def test_theorem3_check_small():
    report = theorem3_check(6)
    assert report.passed
    assert report.identity == "Theorem3" and report.n == 6
    assert "compared" in report.detail


def test_theorem3_check_zero_bound():
    assert theorem3_check(0).passed  # both tables are {(0,0,0): 1}


def _break_side_b_table(monkeypatch):
    """Side B's table with (1,1,6) raised by 1, (2,0,3) set to 5 and
    (0,1,5) removed, keyed (mu, nu, N)."""
    original = partitions.count_table

    def count_table(side, n_max):
        table = original(side, n_max)
        if side == "B":
            table += (
                monomial(1, 1, 1, 6)
                + monomial(5 - table.coeff(2, 0, 3), 2, 0, 3)
                - monomial(table.coeff(0, 1, 5), 0, 1, 5)
            )
        return table

    monkeypatch.setattr(verify, "count_table", count_table)


def test_theorem3_failure_report_is_pinned(monkeypatch):
    _break_side_b_table(monkeypatch)
    report = theorem3_check(20)
    assert report.passed is False and report.residual_terms == 3
    assert report.detail == "70 coefficient triples compared three ways"
    assert report.diff == (
        "A vs B (mu=2, nu=0, N=3): 1 != 5",
        "A vs B (mu=0, nu=1, N=5): 1 != 0",
        "A vs B (mu=1, nu=1, N=6): 2 != 3",
        "B vs product (mu=2, nu=0, N=3): 5 != 1",
        "B vs product (mu=0, nu=1, N=5): 0 != 1",
        "B vs product (mu=1, nu=1, N=6): 3 != 2",
    )
    assert thm2_consistency(12).diff == (
        "n=3: refined-table-sum=5 B0=1",
        "n=5: refined-table-sum=1 B0=2",
        "n=6: refined-table-sum=3 B0=2",
    )


def test_theorem1_check_packs_parameters():
    report = theorem1_check(GeneralParams(2, 3, 2), 12)
    assert report.passed and report.n == 232


def test_theorem1_check_rejects_bad_params():
    with pytest.raises(ConfigError):
        theorem1_check(GeneralParams(3, 2, 2), 10)  # k < lam
    with pytest.raises(ConfigError):
        theorem1_check(GeneralParams(4, 4, 1), 10)  # a < lam/2
    with pytest.raises(ConfigError):
        theorem1_check(GeneralParams(2, 2, 1), 10)  # a = lam/2: A and B differ at n = 1
    with pytest.raises(ConfigError):
        theorem1_check(GeneralParams(2, 3, 4), 10)  # a > k


def test_general_reports_are_pinned():
    reports = [general_case(gp, extra, 12) for gp, extra, _ in DEFAULT_GENERAL_CASES]
    assert [(r.identity, r.n, r.passed, r.detail) for r in reports] == [
        ("Theorem1", 222, True, "lam=2 k=2 a=2, all n <= 12"),
        ("Theorem1", 232, True, "lam=2 k=3 a=2, all n <= 12"),
        ("Theorem1", 233, True, "lam=2 k=3 a=3, all n <= 12"),
        ("Theorem1", 332, True, "lam=3 k=3 a=2, all n <= 12"),
        ("Theorem1", 333, True, "lam=3 k=3 a=3, all n <= 12"),
        ("Conj433", 12, True, "(4,3,3) with extras, all n <= 12"),
        ("Thm2Consistency", 12, True, "pointwise A = B0 and refined-table row sums, all n <= 12"),
    ]


def test_wrappers_return_the_general_case_report():
    def same(r):
        return r._replace(ms=0)

    gp = GeneralParams(2, 3, 2)
    assert same(theorem1_check(gp, 12)) == same(general_case(gp, None, 12))
    assert same(conj433_check(12)) == same(general_case(GeneralParams(4, 3, 3), B0_433, 12))
    assert same(thm2_consistency(12)) == same(general_case(GeneralParams(5, 3, 3), B0_533, 12))
    # a negative bound gets general_case's message from every wrapper
    for check in (lambda n: theorem1_check(gp, n), conj433_check, thm2_consistency):
        with pytest.raises(ConfigError, match=r"^general case GeneralParams\(.*\): n_max must be"):
            check(-1)


def test_conj433_and_thm2_small():
    assert conj433_check(12).passed
    assert thm2_consistency(12).passed


def test_config_validation():
    with pytest.raises(ConfigError):
        run_all(SuiteConfig(n_max_lemmas=-1))
    with pytest.raises(ConfigError):
        run_all(
            SuiteConfig(general_cases=((GeneralParams(4, 3, 3), B0_533, 10),))
        )
    with pytest.raises(ConfigError):
        run_all(SuiteConfig(general_cases=((GeneralParams(3, 2, 2), None, 10),)))
    # an extra restriction set runs only with its own parameters
    with pytest.raises(ConfigError):
        run_all(SuiteConfig(general_cases=((GeneralParams(4, 4, 3), B0_433, 10),)))
    with pytest.raises(ConfigError):
        run_all(SuiteConfig(general_cases=((GeneralParams(5, 9, 9), B0_533, 10),)))


@pytest.mark.parametrize(
    ("cases", "message"),
    [
        # 100*lam + 10*k + a is 333 for both: k = 13 spills into the hundreds
        (
            ((GeneralParams(2, 13, 3), None, 10), (GeneralParams(3, 3, 3), None, 10)),
            r"^general cases GeneralParams\(lam=2, k=13, a=3\) and "
            r"GeneralParams\(lam=3, k=3, a=3\) both emit Theorem1 n=333$",
        ),
        (
            ((GeneralParams(4, 3, 3), B0_433, 10), (GeneralParams(4, 3, 3), B0_433, 10)),
            r"^general cases GeneralParams\(lam=4, k=3, a=3\) and "
            r"GeneralParams\(lam=4, k=3, a=3\) both emit Conj433 n=10$",
        ),
    ],
    ids=["theorem1-key-collision", "case-listed-twice"],
)
def test_config_rejects_general_cases_with_one_report_key(cases, message):
    with pytest.raises(ConfigError, match=message):
        SuiteConfig(general_cases=cases).validate()
    # each case on its own is valid, and the same triple at two bounds
    # of an extra set emits two distinct keys
    for case in cases:
        SuiteConfig(general_cases=(case,)).validate()
    SuiteConfig(
        general_cases=((GeneralParams(4, 3, 3), B0_433, 10), (GeneralParams(4, 3, 3), B0_433, 12))
    ).validate()


def test_run_all_default_surfaces_the_level0_finding():
    # the one expected failure at desk scale: the fourth-order class-15
    # identity does not hold at level 0 (see README identity catalogue)
    reports = run_all(SuiteConfig())
    fails = [r for r in reports if not r.passed]
    assert [(r.identity, r.n) for r in fails] == [("Lemma3", 0)]
    assert fails[0].residual_terms == 19
    assert fails[0].diff[0] == "1*a^1*b^1*q^0"


def test_failed_reports_carry_term_diffs(memo):
    rng = random.Random(99)
    tables, _ = mutate_p_tables(DEFAULT_P_TABLES, rng)
    reports = suite("lemma2", 1, SeriesMemo(p_tables=tables))
    failed = [r for r in reports if not r.passed]
    assert failed
    for r in failed:
        assert r.diff and len(r.diff) <= 20
        assert r.residual_terms >= len(r.diff)


def test_mutating_p_tables_fails_lemma2_only_where_injected():
    rng = random.Random(5)
    tables, _ = mutate_p_tables(DEFAULT_P_TABLES, rng)
    assert not all_passed(suite("lemma2", 2, SeriesMemo(p_tables=tables)))
    # the untouched suites stay green
    memo = SeriesMemo()
    assert all_passed(suite("lemma1", 2, memo))
    assert all_passed(suite("oracle", 1, memo))
    assert all_passed(suite("lemma3", 2, memo)[1:])  # level 0 finding aside
