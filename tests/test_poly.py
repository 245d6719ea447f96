import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import DISPLAY_S0_15, poly_of
from sixfold.poly import ONE, ZERO, TriPoly, monomial


def test_monomial_single_term():
    p = monomial(1, 1, 0, 1)
    assert p.terms() == [(1, 1, 0, 1)]
    assert p.to_text() == "1*a^1*b^0*q^1"


def test_monomial_zero_coeff_collapses():
    assert monomial(0, 2, 3, 5) == ZERO
    assert monomial(0, 2, 3, 5).is_zero()


def test_monomial_signed_q_exponent_is_legal():
    p = monomial(-1, 3, 3, -12)
    assert p.coeff(3, 3, -12) == -1
    assert p.to_text() == "-1*a^3*b^3*q^-12"


@pytest.mark.parametrize("ea,eb", [(-1, 0), (0, -1), (-2, -2)])
def test_monomial_negative_ab_exponent_rejected(ea, eb):
    with pytest.raises(ValueError):
        monomial(1, ea, eb, 0)


def test_add_identity_and_cancellation():
    p = poly_of([(1, 0, 0, 0), (1, 1, 0, 1)])
    assert p + ZERO == p
    assert monomial(1, 1, 0, 1) + monomial(-1, 1, 0, 1) == ZERO
    assert poly_of([(1, 0, 0, 0), (1, 1, 0, 1)]) + monomial(1, 1, 0, 1) == poly_of(
        [(1, 0, 0, 0), (2, 1, 0, 1)]
    )


def test_mul_identity_and_exponent_addition():
    p = poly_of([(1, 0, 0, 0), (2, 1, 0, 1), (-1, 0, 2, 3)])
    assert p * ONE == p
    assert monomial(1, 1, 0, 1) * monomial(1, 0, 1, 4) == monomial(1, 1, 1, 5)


def test_product_expansion_matches_reference_display():
    prod = (
        (ONE + monomial(1, 1, 0, 1))
        * (ONE + monomial(1, 1, 0, 2))
        * (ONE + monomial(1, 0, 1, 4))
        * (ONE + monomial(1, 0, 1, 5))
    )
    assert prod == DISPLAY_S0_15


def test_shift_of_constant_is_identity():
    assert ONE.shift(6, 6) == ONE


def test_shift_adds_slope_per_ab_exponent():
    assert monomial(1, 2, 1, 7).shift(6, 6) == monomial(1, 2, 1, 25)


def test_truncate_examples():
    p = poly_of([(1, 0, 0, 0), (1, 1, 0, 1), (1, 1, 0, 2)])
    assert p.truncate(1) == poly_of([(1, 0, 0, 0), (1, 1, 0, 1)])
    assert p.truncate(100) == p
    with pytest.raises(ValueError):
        p.truncate(-1)


def test_coeff_lookup():
    assert DISPLAY_S0_15.coeff(1, 1, 6) == 2
    assert DISPLAY_S0_15.coeff(2, 2, 12) == 1
    assert ZERO.coeff(0, 0, 0) == 0
    assert DISPLAY_S0_15.coeff(5, 5, 5) == 0


def test_is_zero_after_subtraction():
    p = poly_of([(3, 1, 2, -4), (1, 0, 0, 7)])
    assert (p - p).is_zero()
    assert not p.is_zero()


def test_to_text_canonical_format():
    assert monomial(3, 1, 1, 12).to_text() == "3*a^1*b^1*q^12"
    assert ZERO.to_text() == "0"
    mixed = poly_of([(-2, 0, 0, 1), (1, 0, 0, 0)])
    assert mixed.to_text() == "1*a^0*b^0*q^0 + -2*a^0*b^0*q^1"


def test_terms_are_in_ascending_q_a_b_order():
    p = poly_of([(1, 2, 0, 3), (1, 0, 1, 3), (1, 0, 0, -1), (1, 1, 1, 3)])
    keys = [(eq, ea, eb) for _, ea, eb, eq in p.terms()]
    assert keys == sorted(keys)


def test_json_terms_form():
    p = poly_of([(2, 1, 0, 1), (1, 0, 0, 0)])
    assert p.to_json_terms() == [["1", 0, 0, 0], ["2", 1, 0, 1]]


def _random_poly(rng: random.Random) -> TriPoly:
    acc = ZERO
    for _ in range(rng.randrange(4)):
        acc = acc + monomial(
            rng.randint(-9, 9), rng.randrange(4), rng.randrange(4), rng.randint(-6, 12)
        )
    return acc


def test_ring_axioms_bulk_randomized():
    # commutativity, associativity and distributivity over 10^4 triples
    rng = random.Random(633633)
    for _ in range(10_000):
        p, q, r = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


_coeffs = st.integers(min_value=-20, max_value=20)
_terms = st.lists(
    st.tuples(
        _coeffs,
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-10, max_value=15),
    ),
    max_size=6,
)
_polys = _terms.map(poly_of)
_shifts = st.integers(min_value=-4, max_value=8)


@given(_polys, _polys, _shifts, _shifts)
def test_shift_is_a_ring_homomorphism(p, q, s, t):
    assert (p + q).shift(s, t) == p.shift(s, t) + q.shift(s, t)
    assert (p * q).shift(s, t) == p.shift(s, t) * q.shift(s, t)


_nonneg_terms = st.lists(
    st.tuples(
        _coeffs,
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=15),
    ),
    max_size=6,
)
_nonneg_polys = _nonneg_terms.map(poly_of)


@given(_nonneg_polys, _nonneg_polys, st.integers(min_value=0, max_value=12))
def test_truncate_commutes_with_truncated_product(p, q, m):
    # holds whenever p and q have only non-negative q exponents
    assert (p * q).truncate(m) == (p.truncate(m) * q.truncate(m)).truncate(m)


@settings(max_examples=200)
@given(_polys, _polys)
def test_operations_store_no_zero_coefficients(p, q):
    for result in (p + q, p - q, p * q, -p, p.shift(2, 3)):
        assert all(c != 0 for c, _, _, _ in result.terms())
        assert len(result.terms()) == len(result)


def test_int_operands_coerce():
    assert ONE + 1 == monomial(2, 0, 0, 0)
    assert 1 - monomial(1, 0, 0, 6) == poly_of([(1, 0, 0, 0), (-1, 0, 0, 6)])
    assert 3 * monomial(1, 1, 0, 1) == monomial(3, 1, 0, 1)
