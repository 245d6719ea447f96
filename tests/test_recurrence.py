import hashlib
import inspect
import json
import random
import sys

import pytest

from helpers import (
    B2_Q9,
    DISPLAY_S0_9_SHORT,
    DISPLAY_S0_15,
    LEMMA3_LEVEL0_RESIDUAL,
    poly_of,
)
from sixfold.partitions import count_table, s_oracle
from sixfold.poly import ONE, ZERO, monomial
from sixfold.recurrence import (
    DEFAULT_P_TABLES,
    J_BRACKET,
    J_INNER,
    J_TERMS,
    K_INNER,
    K_TERMS,
    LEMMA2_TERMS,
    LEMMA3_TERMS,
    LINK_BRACKET,
    LINK_TERMS,
    ONE_MINUS_X,
    P1_TERMS,
    P2_TERMS,
    P3_TERMS,
    REC_RULES,
    WINDOW,
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
from sixfold import recurrence
from sixfold.recurrence import _at, _combination


# -------------------------------------------------------------- series


def test_s_rec_base_cases(memo):
    for j in range(16):
        assert memo.s(-1, j) == ONE
        assert memo.s(-3, j) == ZERO
    assert memo.s(0, 0) == ONE


def test_s_rec_level0_first_steps(memo):
    assert memo.s(0, 1) == ONE + monomial(1, 1, 0, 1)
    assert memo.s(0, 9) == DISPLAY_S0_9_SHORT + B2_Q9
    assert memo.s(0, 15) == DISPLAY_S0_15


def test_s_rec_equals_oracle_small_levels(memo):
    for n in range(3):
        for j in range(16):
            assert memo.s(n, j) == s_oracle(n, j), (n, j)


def test_memo_is_reference_transparent(memo):
    first = memo.s(1, 7)
    assert memo.s(1, 7) is first
    assert SeriesMemo().s(1, 7) == first


def test_fresh_memo_fill_keeps_the_stack_shallow(memo):
    # a recursive fill needs about 16 frames per level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        fresh = SeriesMemo().s(6, 15)
    finally:
        sys.setrecursionlimit(limit)
    assert fresh == memo.s(6, 15)


def test_every_rule_term_refers_to_a_lower_level():
    # dn >= 1 is what makes the (n, j) fill order of SeriesMemo valid
    mutated = [mutate_rec_rules(REC_RULES, random.Random(seed))[0] for seed in range(5)]
    for rules in [REC_RULES, *mutated]:
        assert all(dn >= 1 for rule in rules for *_, dn, _ in rule)
    same_level = (((1, 0, 0, 0, 0, 0, 15),),) + REC_RULES[1:]
    with pytest.raises(ValueError, match="dn >= 1"):
        SeriesMemo(same_level)


def test_memo_needs_16_rules_and_3_p_tables():
    with pytest.raises(ValueError, match="one rule per window class"):
        SeriesMemo(rules=REC_RULES[:3])
    with pytest.raises(ValueError, match="p1..p3"):
        SeriesMemo(p_tables=DEFAULT_P_TABLES[:2])
    rng = random.Random(3)
    assert len(mutate_rec_rules(REC_RULES, rng)[0]) == 16
    assert len(mutate_p_tables(DEFAULT_P_TABLES, rng)[0]) == 3


def test_s_rec_rejects_bad_class(memo):
    with pytest.raises(ValueError):
        memo.s(0, 16)


def test_s_rec_outputs_have_nonnegative_exponents_and_coefficients(memo):
    for n in range(4):
        for j in range(16):
            for c, _, _, eq in memo.s(n, j).terms():
                assert c > 0 and eq >= 0


def test_s_rec_coefficients_stabilize_once_levels_cover_n(memo):
    # coefficient of (mu, nu, N) is constant in the level once 6n+6 >= N
    for q_bound, first_level in ((12, 1), (18, 2)):
        stable = memo.s(first_level, 15).truncate(q_bound)
        for n in range(first_level + 1, 5):
            assert memo.s(n, 15).truncate(q_bound) == stable


# ------------------------------------------------- vanishing combinations


def test_j0_forces_the_extra_class9_term(memo):
    # J(0) = S(0,9) minus a fixed 10-term polynomial, so J(0) = 0 pins b^2*q^9
    bracket = DISPLAY_S0_9_SHORT + B2_Q9
    assert J_poly(0, memo).is_zero()
    assert memo.s(0, 9) == bracket


def test_k0_relates_class9_and_class15(memo):
    hexa = poly_of(
        [(1, 0, 0, 0), (1, 1, 0, 1), (1, 1, 0, 2), (1, 0, 1, 4), (1, 0, 1, 5), (1, 1, 1, 6)]
    )
    assert K_poly(0, memo).is_zero()
    assert memo.s(0, 15) == memo.s(0, 9) + monomial(1, 1, 1, 6) * hexa


def test_j_and_k_vanish(memo):
    for n in range(4):
        assert J_poly(n, memo).is_zero(), n
        assert K_poly(n, memo).is_zero(), n


def test_link_residual_vanishes(memo):
    for n in range(3):
        assert link_residual(n, memo).is_zero(), n


def test_jk_reject_negative_level(memo):
    with pytest.raises(ValueError):
        J_poly(-1, memo)
    with pytest.raises(ValueError):
        K_poly(-1, memo)


def test_j_and_k_are_summed_once_and_held_by_the_memo():
    memo = SeriesMemo()
    for residual, terms in ((J_poly, J_TERMS), (K_poly, K_TERMS)):
        first = residual(2, memo)
        assert residual(2, memo) is first
        assert first == _combination(terms, 2, SeriesMemo())


# Seed 0 moves the q offset of rule 12, which breaks K from level 0 and J
# from level 1.
BROKEN_JK_RULES = mutate_rec_rules(REC_RULES, random.Random(0))[0]


@pytest.mark.parametrize("pristine_first", [True, False])
def test_held_values_never_cross_memos(pristine_first):
    expected = {
        (residual, n): _combination(terms, n, SeriesMemo(BROKEN_JK_RULES))
        for residual, terms in ((J_poly, J_TERMS), (K_poly, K_TERMS))
        for n in range(4)
    }
    assert expected[J_poly, 1] and expected[K_poly, 0]
    pristine, mutated = SeriesMemo(), SeriesMemo(BROKEN_JK_RULES)
    memos = (pristine, mutated) if pristine_first else (mutated, pristine)
    for _ in range(2):  # the second pass reads held values
        for memo in memos:
            for (residual, n), value in expected.items():
                if memo is pristine:
                    assert residual(n, memo).is_zero(), (residual.__name__, n)
                else:
                    assert residual(n, memo) == value, (residual.__name__, n)


# ------------------------------------------------------- auxiliary p1..p3


def test_p_tables_have_the_printed_term_counts():
    assert len(P1_TERMS) == 40
    assert len(P2_TERMS) == 43
    assert len(P3_TERMS) == 23


def test_p1_spot_coefficients():
    for n in (1, 2, 5):
        assert _at(P1_TERMS, n).coeff(1, 1, 12 * n) == 3
        assert _at(P1_TERMS, n).coeff(2, 0, 12 * n - 3) == 2
    # at n = 0 the terms ab*q^(6n) and 3ab*q^(12n) share an exponent and merge
    assert _at(P1_TERMS, 0).coeff(1, 1, 0) == 4


def test_p3_spot_coefficients():
    for n in (1, 2, 4):
        assert _at(P3_TERMS, n).coeff(3, 3, 24 * n - 12) == -1
    for n in (2, 4):
        assert _at(P3_TERMS, n).coeff(3, 3, 18 * n - 12) == -1


def test_p_polys_merge_without_dropping_terms_at_generic_level():
    assert len(_at(P1_TERMS, 3)) == 40
    assert len(_at(P2_TERMS, 3)) == 43
    assert len(_at(P3_TERMS, 3)) == 23


# ------------------------------------------------- fourth-order residuals


def test_lemma2_residual_vanishes(memo):
    for n in range(4):
        assert lemma2_residual(n, memo).is_zero(), n


def test_lemma3_residual_vanishes_from_level_one(memo):
    for n in range(1, 4):
        assert lemma3_residual(n, memo).is_zero(), n


def test_lemma3_level0_finding_is_pinned(memo):
    # The printed fourth-order class-15 identity fails at level 0: with all
    # history series at base values it reduces to
    #   bracket(-6) * S(0,15) == shift(p1 at level -1), which is false.
    # The identity holds from level 1 on.  The residual is frozen in
    # helpers.LEMMA3_LEVEL0_RESIDUAL so any change in behaviour is caught.
    residual = lemma3_residual(0, memo)
    expected = LEMMA3_LEVEL0_RESIDUAL
    assert residual == expected
    # cross-path: same residual from the brute-force series
    bracket = poly_of(
        [(1, 0, 0, 0), (1, 1, 0, -5), (1, 1, 0, -4), (1, 0, 1, -2), (1, 0, 1, -1)]
    )
    assert bracket * s_oracle(0, 15) - _at(P1_TERMS, -1).shift(6, 6) == expected


def _term_factor_product(term, n: int, p_tables):
    """A term's monomial times its factor product at level n, built as
    _combination builds it (without the series)."""
    coeff, e_a, e_b, slope, offset, _, _, *factors = term
    small = monomial(coeff, e_a, e_b, slope * n + offset)
    for table, d, *shift in factors:
        if isinstance(table, int):
            table = p_tables[table - 1]
        small = small * _at(table, n - d, *shift)
    return small


def test_lemma3_terms_are_the_lemma2_terms_one_level_down_shifted():
    # Term t of Lemma3 at level n is term t of Lemma2 at level n - 1 under
    # a -> a*q^6, b -> b*q^6, with the class-15 series in place of class 9.
    p_tables = SeriesMemo().p_tables
    assert len(LEMMA3_TERMS) == len(LEMMA2_TERMS)
    for n in range(12):
        for t, (two, three) in enumerate(zip(LEMMA2_TERMS, LEMMA3_TERMS)):
            assert three[5] == two[5], t
            shifted = _term_factor_product(two, n - 1, p_tables).shift(6, 6)
            assert _term_factor_product(three, n, p_tables) == shifted, (n, t)


def test_lemma4_residual_vanishes(memo):
    for n in range(4):
        assert lemma4_residual(n, memo).is_zero(), n


def test_lemma4_level1_from_pure_oracle_values():
    # shift of the level-0 class-9 series times the four factors equals the
    # level-1 class-15 series, with every series taken from brute force
    quad = (
        (ONE + monomial(1, 1, 0, 1))
        * (ONE + monomial(1, 1, 0, 2))
        * (ONE + monomial(1, 0, 1, 4))
        * (ONE + monomial(1, 0, 1, 5))
    )
    assert quad * s_oracle(0, 9).shift(6, 6) == s_oracle(1, 15)


# ------------------------------------------------------ truncated product


def test_product_truncated_smallest_windows():
    assert product_truncated(0) == ONE
    assert product_truncated(3) == poly_of(
        [(1, 0, 0, 0), (1, 1, 0, 1), (1, 1, 0, 2), (1, 2, 0, 3)]
    )


def test_product_truncated_coefficients_count_side_a_partitions():
    prod = product_truncated(20)
    assert prod.coeff(1, 1, 6) == 2  # {5,1} and {4,2}
    assert prod == count_table("A", 20)


def test_product_truncated_stable_under_extra_windows():
    # four more windows, built to a later bound and cut at 30
    assert product_truncated(30) == product_truncated(30 + 24).truncate(30)


def test_product_truncated_rejects_negative_bound():
    with pytest.raises(ValueError):
        product_truncated(-1)


# ------------------------------------------------ pinned non-zero residuals

# Pristine residuals are all zero (except Lemma3 at n = 0), so they cannot
# tell two transcriptions of an identity apart; residuals over mutated rules
# or p-tables can.  Each digest is the SHA-256 of json.dumps(to_json_terms())
# of the residual at n = 0..3 for mutation seeds 0..3, in (seed, n) order.
RULE_MUTANT_DIGESTS = {
    "J": (J_poly, "341c6f9a38bf23b8f12513c6099434aebb77d171fbb11c06e250e28977da6f12"),
    "K": (K_poly, "290b513e13651004fbcc6330941f9db36abb0844687a2cf35770fe1fc4b464e0"),
    "Link": (link_residual, "6587de84a6d1c3532596e04cb5e4af468d53888cf0dd4a47ea21538146ea957f"),
    "Lemma2": (lemma2_residual, "4b8908df61d9d4a7580e1ec6598a8164f198ed5fb699ab9e3160b6c19ceeb51d"),
    "Lemma3": (lemma3_residual, "ff4159f7411adde2505cfbc5696c038fffa61ad3c394def991ac558ec8012a5c"),
    "Lemma4": (lemma4_residual, "76e19621ba7e84b7affda88abf22e043772e4007831470bb0b367937a08611d3"),
}
P_MUTANT_DIGESTS = {
    "Lemma2": (lemma2_residual, "67585a44a2722d5773ba7b17cefef372ca1bb5eccc783af43e02063e169b40df"),
    "Lemma3": (lemma3_residual, "4524627978b2aa715dc88f493b03152ac1d2be2b9b633889ef6d071184fc3509"),
}


def _residual_digest(residual, args_for_seed) -> str:
    digest = hashlib.sha256()
    for seed in range(4):
        args = args_for_seed(random.Random(seed))
        for n in range(4):
            digest.update(json.dumps(residual(n, *args).to_json_terms()).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(RULE_MUTANT_DIGESTS))
def test_residuals_over_mutated_rules_are_pinned(name):
    residual, expected = RULE_MUTANT_DIGESTS[name]

    def args(rng):
        return (SeriesMemo(mutate_rec_rules(REC_RULES, rng)[0]),)

    assert _residual_digest(residual, args) == expected


@pytest.mark.parametrize("name", sorted(P_MUTANT_DIGESTS))
def test_residuals_over_mutated_p_tables_are_pinned(name):
    residual, expected = P_MUTANT_DIGESTS[name]

    def args(rng):
        return (SeriesMemo(p_tables=mutate_p_tables(DEFAULT_P_TABLES, rng)[0]),)

    assert _residual_digest(residual, args) == expected


# --------------------------------------------------------- mutation hooks


def test_mutated_p_tables_change_exactly_one_term():
    rng = random.Random(7)
    mutated, note = mutate_p_tables(DEFAULT_P_TABLES, rng)
    changed = [
        (i, t)
        for i in range(3)
        for t in range(len(DEFAULT_P_TABLES[i]))
        if mutated[i][t] != DEFAULT_P_TABLES[i][t]
    ]
    assert len(changed) == 1
    assert note


def test_mutated_rules_change_the_series():
    rng = random.Random(11)
    mutated, note = mutate_rec_rules(REC_RULES, rng)
    assert mutated != REC_RULES
    pristine, perturbed = SeriesMemo(), SeriesMemo(mutated)
    assert any(pristine.s(n, j) != perturbed.s(n, j) for n in range(3) for j in range(16))
    assert note


# Identity tables with the first level each claims, and their factor tables.
IDENTITIES = ((J_TERMS, 0), (K_TERMS, 0), (LEMMA2_TERMS, 0), (LEMMA3_TERMS, 1))
FACTOR_TABLES = (WINDOW, ONE_MINUS_X, J_BRACKET, J_INNER, K_INNER)


def _replace(items: tuple, index: int, new) -> tuple:
    return items[:index] + (new,) + items[index + 1:]


def _bump(term: tuple, index: int, delta: int) -> tuple:
    return _replace(term, index, term[index] + delta)


def _replace_factor(terms: tuple, old: tuple, new: tuple) -> tuple:
    return tuple(term[:7] + tuple((new, *f[1:]) if f[0] is old else f for f in term[7:]) for term in terms)


def _single_term_edits():
    """(label, identities) for coeff + 1 and q_offset +/- 1 on every identity
    term, and coeff + 1 on every factor-table term."""
    for k, (terms, first) in enumerate(IDENTITIES):
        for t, term in enumerate(terms):
            for index, delta in ((0, 1), (4, 1), (4, -1)):
                edited = terms[:t] + (_bump(term, index, delta),) + terms[t + 1:]
                yield (k, t, index, delta), [(edited, first)]
    for k, table in enumerate(FACTOR_TABLES):
        for t in range(len(table)):
            edited = table[:t] + (_bump(table[t], 0, 1),) + table[t + 1:]
            yield ("factor", k, t), [
                (_replace_factor(terms, table, edited), first) for terms, first in IDENTITIES
            ]


def test_single_term_edits_of_the_identity_tables_are_caught(memo):
    def caught(identities):
        return any(_combination(terms, n, memo) for terms, first in identities for n in range(first, 5))

    assert not caught(IDENTITIES)
    edits = list(_single_term_edits())
    assert len(edits) == 92
    for label, identities in edits:
        assert caught(identities), label
    # x = q^(6n): every term is a polynomial in a, b, q and x
    tables = (
        *REC_RULES,
        *DEFAULT_P_TABLES,
        *FACTOR_TABLES,
        *(terms for terms, _ in IDENTITIES),
        LINK_TERMS,
        LINK_BRACKET,
    )
    assert all(term[3] % 6 == 0 for table in tables for term in table)


def _bumped(term: tuple, fields, exponents=(1, 2)):
    """(field, delta, term) for every +/-1 change of one of `fields` that
    leaves the fields `exponents` >= 0."""
    for k in fields:
        for delta in (-1, 1):
            if k not in exponents or term[k] + delta >= 0:
                yield k, delta, _bump(term, k, delta)


def _link_edits():
    """(label, Link table) for every +/-1 change of an integer field of
    LINK_TERMS, the bracket factor's level included, or of LINK_BRACKET that
    leaves every a and b exponent >= 0."""
    for t, term in enumerate(LINK_TERMS):
        edits = list(_bumped(term, range(6)))
        for f in range(7, len(term)):  # a factor's level d
            edits += [(f, delta, _replace(term, f, new)) for _, delta, new in _bumped(term[f], [1], ())]
        for k, delta, new in edits:
            yield ("term", t, k, delta), _replace(LINK_TERMS, t, new)
    for t, term in enumerate(LINK_BRACKET):
        for k, delta, new in _bumped(term, range(5)):
            bracket = _replace(LINK_BRACKET, t, new)
            yield ("bracket", t, k, delta), _replace_factor(LINK_TERMS, LINK_BRACKET, bracket)


def test_link_residual_reads_its_table(monkeypatch, memo):
    # J and K vanish on the pristine memo, so Link does whatever its
    # constants; on BROKEN_JK_RULES every edit of its table shows.
    broken = SeriesMemo(BROKEN_JK_RULES)
    levels = range(1, 4)
    expected = [link_residual(n, broken) for n in levels]
    assert all(expected)
    edits = list(_link_edits())
    assert len(edits) == 70
    below_zero = []
    for label, terms in edits:
        monkeypatch.setattr(recurrence, "LINK_TERMS", terms)
        assert [link_residual(n, broken) for n in levels] != expected, label
        assert all(link_residual(n, memo).is_zero() for n in levels), label
        try:
            link_residual(0, broken)
        except ValueError:
            below_zero.append(label)
    # a dn of 1 on J(n) or K(n) reads level -1 at n = 0, as J_poly(-1) would
    assert below_zero == [("term", 0, 5, 1), ("term", 2, 5, 1)]
