import json
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    DISPLAY_S0_15,
    poly_of,
    ref_add,
    ref_mul,
    ref_neg,
    ref_shift,
    ref_terms,
    ref_truncate,
)
from sixfold.partitions import count_table
from sixfold.poly import (
    GAP,
    ONE,
    ZERO,
    TriPoly,
    _cut,
    _slot_bits,
    _times_monomial,
    _width,
    monomial,
    narrow,
)
from sixfold.recurrence import P2_TERMS, SeriesMemo, _at, product_truncated


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
    with pytest.raises(ValueError, match="a and b exponents must be non-negative"):
        TriPoly({(0, 0, 0): 1, (ea, eb, 0): 1})


def test_constructor_drops_zero_coefficients():
    assert TriPoly({(0, 0, 0): 0}) == ZERO
    assert TriPoly({(0, 0, 0): 0}).is_zero() and len(TriPoly({(0, 0, 0): 0})) == 0
    assert TriPoly({(0, 0, 0): 0, (1, 0, 2): 3}) == monomial(3, 1, 0, 2)


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


# ------------------------------------- cross-check against the dict reference

# Coefficients up to 2^130 push the slot width past 64 bits, where slots are
# decoded one by one; negative q exponents come from the signed range.
_wide_coeffs = st.one_of(_coeffs, st.integers(min_value=-(2**130), max_value=2**130))
_term_dicts = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-12, max_value=20),
    ),
    _wide_coeffs,
    max_size=10,
)


def _pair(terms):
    """(TriPoly, reference dict) of a term dict that may hold zero coefficients."""
    return TriPoly(terms), {k: c for k, c in terms.items() if c}


def _assert_matches(poly, ref):
    assert poly.terms() == ref_terms(ref)
    assert poly == TriPoly(ref) and hash(poly) == hash(TriPoly(ref))
    assert len(poly) == len(ref)
    assert poly.is_zero() == (not ref)


@settings(max_examples=300)
@given(_term_dicts, _term_dicts, _shifts, _shifts)
def test_every_operation_matches_the_reference_kernel(p_terms, q_terms, s, t):
    (p, rp), (q, rq) = _pair(p_terms), _pair(q_terms)
    _assert_matches(p, rp)
    _assert_matches(p + q, ref_add(rp, rq))
    _assert_matches(p - q, ref_add(rp, ref_neg(rq)))
    _assert_matches(-p, ref_neg(rp))
    _assert_matches(p * q, ref_mul(rp, rq))
    _assert_matches(p.shift(s, t), ref_shift(rp, s, t))
    for (ea, eb, eq), c in rp.items():
        assert p.coeff(ea, eb, eq) == c
        assert p.coeff(ea, eb, eq + 100) == p.coeff(ea, eb, eq - 100) == 0
    assert p.coeff(9, 9, 0) == 0


@settings(max_examples=200)
@given(_term_dicts, st.data())
def test_truncate_matches_the_reference_at_row_edges(terms, data):
    p, ref = _pair(terms)
    rows: dict[tuple[int, int], list[int]] = {}
    for ea, eb, eq in ref:
        rows.setdefault((ea, eb), []).append(eq)
    # the first and the last slot of every row, and their neighbours
    edges = {e + d for eqs in rows.values() for e in (min(eqs), max(eqs)) for d in (-1, 0, 1)}
    cuts = sorted(e for e in edges | {0} if e >= 0)
    q_max = data.draw(st.sampled_from(cuts))
    _assert_matches(p.truncate(q_max), ref_truncate(ref, q_max))


@given(_term_dicts, _term_dicts)
def test_exact_cancellation_gives_zero(p_terms, q_terms):
    p, q = TriPoly(p_terms), TriPoly(q_terms)
    for zero in (p - p, p + (-p), p * q - q * p, (p + q) - q - p):
        assert zero == ZERO and zero.is_zero() and not zero and len(zero) == 0
        assert zero.terms() == [] and hash(zero) == hash(ZERO)


def test_a_cancelled_lowest_term_leaves_a_canonical_value():
    a, b, q = monomial(1, 1, 0, 0), monomial(1, 0, 1, 0), monomial(1, 0, 0, 1)
    # the a*b terms cancel at q^0 and survive at q^1
    prod = (a + b) * (b + b * q - a)
    assert prod == poly_of([(1, 0, 2, 0), (1, 0, 2, 1), (1, 1, 1, 1), (-1, 2, 0, 0)])


@pytest.mark.parametrize("top", [2**31 - 1, 2**31, 2**63 - 1, 2**63, 2**127 - 1])
def test_coefficients_at_the_slot_width_boundary(top):
    # sums and products whose coefficients just reach the next slot width
    rp = {(0, 0, i): top for i in range(16)} | {(1, 0, 3): -top}
    p = TriPoly(rp)  # bound top, where a sum of monomials would carry 17 * top
    # three slots of -2^(b-1), which a product by 1 + q + q^2 carries to -3 * 2^(b-1)
    rc, r3 = {(0, 0, i): -((top + 1) // 2) for i in range(3)}, {(0, 0, i): 1 for i in range(3)}
    for result, ref in (
        (TriPoly(r3) * TriPoly(rc), ref_mul(r3, rc)),
        (TriPoly(rc) * TriPoly(r3), ref_mul(rc, r3)),
        (p + p, ref_add(rp, rp)),
        (p - (-p), ref_add(rp, rp)),
        (p * p, ref_mul(rp, rp)),
        (p * p * p, ref_mul(ref_mul(rp, rp), rp)),
        (monomial(-top, 0, 1, -2) * p, ref_mul({(0, 1, -2): -top}, rp)),
    ):
        _assert_matches(result, ref)


@given(_terms, st.integers(min_value=90, max_value=200))
def test_one_value_at_two_widths_is_equal_with_equal_hash(terms, bits):
    p = poly_of(terms)
    big = monomial(2**bits, 1, 2, 3)
    wide = (p + big) - big
    assert wide._w > p._w  # the same value, held in wider slots
    assert wide == p and p == wide and hash(wide) == hash(p)
    assert wide.terms() == p.terms() and len(wide) == len(p)
    assert wide + ONE != p and p != wide + ONE


@given(
    _term_dicts,
    _term_dicts,
    st.integers(min_value=90, max_value=200),
    st.integers(min_value=0, max_value=20),
)
# one row each, so the wide value is the operand whose norm is summed
@example({(0, 0, 0): 1, (0, 0, 1): 1}, {(0, 0, 0): 1, (0, 0, 1): 1}, 100, 0)
def test_products_of_values_whose_bound_exceeds_their_coefficients(p_terms, q_terms, bits, q_max):
    (p, rp), (q, rq) = _pair(p_terms), _pair(q_terms)
    big = monomial(2**bits, 0, 0, 30)
    # p after a cancellation, and p below q_max after truncating off big: both
    # carry big's bound, far above their own coefficients
    for x, rx in (((p + big) - big, rp), ((p + big).truncate(q_max), ref_truncate(rp, q_max))):
        assert x._bound >= 2**bits
        # a product is never narrower than an operand, so no row has to narrow
        if x and q:
            for u, v in ((x, q), (q, x), (x, x)):
                assert (u * v)._w >= max(u._w, v._w)
        _assert_matches(x * q, ref_mul(rx, rq))
        _assert_matches(q * x, ref_mul(rq, rx))
        _assert_matches(x * x, ref_mul(rx, rx))


# A general product cuts the rows of its operand with fewer rows at every run
# of GAP or more zero slots.  Rows of a few q exponents spread over 0..400
# carry zero runs both shorter and longer than GAP; the clustered exponents
# make short ones; the coefficients take 32-, 64- and 128-bit slots.
_sparse_terms = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=-10, max_value=400) | st.integers(min_value=0, max_value=2 * GAP),
    ),
    st.integers(min_value=-3, max_value=3)
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.integers(min_value=-(2**100), max_value=2**100),
    min_size=2,
    max_size=12,
)
_TWO_ROWS = {(0, 0, 0): 1, (0, 0, 3): -2, (1, 0, 1): 5}


@settings(max_examples=300)
@given(_sparse_terms, _sparse_terms)
@example({(0, 0, 0): 1, (0, 0, GAP + 1): 1}, _TWO_ROWS)  # a run of exactly GAP zeros
@example({(0, 0, 0): 1, (0, 0, GAP): 1}, _TWO_ROWS)  # GAP - 1 zeros: no cut
# a negative lowest slot of a later run, and a negative top slot below a cut
@example({(0, 0, 0): 5, (0, 0, GAP + 1): -3, (0, 0, GAP + 2): 7}, _TWO_ROWS)
@example({(0, 0, 0): 1, (0, 0, 1): -1, (0, 0, GAP + 3): 1}, _TWO_ROWS)
# every run one slot, alternating in sign
@example({(0, 0, i * (GAP + 1)): (-1) ** i for i in range(5)}, _TWO_ROWS)
@example({(0, 0, -7): -1, (0, 0, GAP - 6): 2, (1, 0, -3): 1}, _TWO_ROWS)  # negative q0
@example({(0, 0, 0): -(2**100), (0, 0, 2 * GAP): 2**99 + 1}, {(0, 0, 0): 2**60, (0, 1, 5): -1})
def test_products_of_sparse_rows_match_the_reference(p_terms, q_terms):
    (p, rp), (q, rq) = _pair(p_terms), _pair(q_terms)
    for prod, ref in ((p * q, ref_mul(rp, rq)), (q * p, ref_mul(rq, rp)), (p * p, ref_mul(rp, rp))):
        _assert_matches(prod, ref)


def test_rows_are_cut_at_runs_of_gap_zero_slots():
    for gap, pieces in ((GAP, 2), (GAP - 1, 1)):
        (_, x), = TriPoly({(0, 0, 0): -1, (0, 0, gap + 1): 2})._rows.values()
        assert [i for i, _ in _cut(x, 32)[1]] == [0, gap + 1][:pieces]
    (_, x), = TriPoly({(0, 0, i * (GAP + 1)): (-1) ** i for i in range(4)})._rows.values()
    assert _cut(x, 32) == (4, [(i * (GAP + 1), (-1) ** i) for i in range(4)])


# ------------------------------------------------------- the canonical walk


def _assert_serialised(p, ref):
    terms = ref_terms(ref)
    assert p.terms() == terms
    assert p.to_json_terms() == [[str(c), ea, eb, eq] for c, ea, eb, eq in terms]
    assert p.to_json() == json.dumps(p.to_json_terms())
    text = " + ".join(f"{c}*a^{ea}*b^{eb}*q^{eq}" for c, ea, eb, eq in terms)
    assert p.to_text() == (text or "0")


@settings(max_examples=200)
@given(_term_dicts, st.sampled_from([None, 64, 128, 256]))
def test_the_walk_serialises_in_the_reference_order(terms, w):
    p, ref = _pair(terms)
    if w is not None:
        # the same value in slots of at least w bits
        big = monomial(2 ** (w - 3), 0, 0, 0)
        p = (p + big) - big
        assert p._w >= w
    _assert_serialised(p, ref)


def test_the_walk_interleaves_rows_that_start_at_different_q():
    ref = {
        (0, 0, -3): 5, (0, 0, -2): -1, (0, 0, 0): 7, (0, 0, 1): 2,
        (2, 1, -1): 3, (2, 1, 0): -4, (2, 1, 2): 9,
        (1, 0, 0): 1, (1, 0, 1): 1, (1, 0, 3): -2,
        (0, 3, -5): 1, (0, 3, 2): 6,
    }
    text = (
        "1*a^0*b^3*q^-5 + 5*a^0*b^0*q^-3 + -1*a^0*b^0*q^-2 + 3*a^2*b^1*q^-1 + "
        "7*a^0*b^0*q^0 + 1*a^1*b^0*q^0 + -4*a^2*b^1*q^0 + 2*a^0*b^0*q^1 + "
        "1*a^1*b^0*q^1 + 6*a^0*b^3*q^2 + 9*a^2*b^1*q^2 + -2*a^1*b^0*q^3"
    )
    big = monomial(2**100, 0, 0, 0)
    for p in (TriPoly(ref), (TriPoly(ref) + big) - big):
        # four rows, each from its own q0, with zero slots inside them
        assert sorted(q0 for q0, _ in p._rows.values()) == [-5, -3, -1, 0]
        assert p.to_text() == text
        _assert_serialised(p, ref)


@pytest.mark.parametrize("w", [32, 64, 128])
def test_the_walk_reads_the_extreme_slots_of_each_width(w):
    # |c| = 2^(w-1) - 1 is the widest a w-bit slot holds: its biased digit
    # is 1 or 2^w - 1, so a sign flip of the top bit that went wrong shows
    top = 2 ** (w - 1) - 1
    ref = {
        (0, 0, 0): top, (0, 0, 1): -top, (0, 0, 3): top,  # a zero slot at q = 2
        (0, 0, 5 + GAP): -top, (0, 0, 6 + GAP): 1,  # after a run of zero slots
        (1, 2, -7): -top, (1, 2, -6): -1, (1, 2, -4): top,  # a row from q0 < 0
    }
    p = TriPoly(ref)
    assert p._w == w and [q0 for q0, _ in p._rows.values()] == [0, -7]
    _assert_serialised(p, ref)
    assert len(p) == len(ref)
    assert all(p.coeff(*key) == c for key, c in ref.items())
    assert p.coeff(0, 0, 2) == p.coeff(1, 2, -5) == 0


def test_zero_serialises_as_empty():
    assert ZERO.to_json() == "[]" and ZERO.to_json_terms() == [] and ZERO.terms() == []
    assert ZERO.to_text() == "0"


# ------------------------------------------ slot bits, monomials and widths


def _signed_bits(c: int) -> int:
    """Smallest b with -2^(b-1) <= c < 2^(b-1)."""
    return (c if c >= 0 else ~c).bit_length() + 1


_keys = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-6, max_value=40),
)


def _slots_of_b_bits(data, b: int, out_of_range: bool) -> TriPoly:
    """A non-zero value whose slots all take at most b signed bits, often at
    either edge or negative; with out_of_range, one slot takes b + 1."""
    half = 1 << (b - 1)
    inside = st.one_of(
        st.sampled_from([-half, half - 1, -1]), st.integers(min_value=-half, max_value=half - 1)
    )
    terms = data.draw(st.dictionaries(_keys, inside, min_size=1, max_size=12))
    if out_of_range:  # one slot just outside, above or below
        terms[data.draw(_keys)] = data.draw(st.sampled_from([half, -half - 1]))
    p = TriPoly(terms)
    assume(p)
    return p


@given(st.data(), st.integers(min_value=1, max_value=140), st.booleans(), st.booleans())
def test_slot_bits_agrees_with_the_decoded_maximum(data, b, out_of_range, wide):
    p = _slots_of_b_bits(data, b, out_of_range)
    if wide:  # the same slots at a wider W, under a bound far above them
        big = monomial(2**200, 0, 0, 30)
        p = (p + big) - big
        assert p._w == 256
    decoded = max(_signed_bits(c) for c, *_ in p.terms())
    assert _slot_bits(p) == decoded
    assert decoded == b + 1 if out_of_range else decoded <= b


@given(st.data(), st.integers(min_value=1, max_value=140), st.booleans())
def test_narrow_keeps_the_value_and_takes_the_width_its_slots_need(data, b, out_of_range):
    p = _slots_of_b_bits(data, b, out_of_range)
    # the same slots in wider slots, under a bound at the top edge of w
    w = data.draw(st.sampled_from([w for w in (64, 128, 256, 512) if w > p._w]))
    big = monomial(1 << (w - 3), 0, 0, 30)
    wide = (p + big) - big
    assert wide._w == w and wide._bound >> (w - 3)
    (narrowed,) = narrow(wide)
    assert narrowed == p and narrowed == wide
    assert narrowed.terms() == p.terms() and hash(narrowed) == hash(p)
    # every coefficient within the new bound, and the narrowest width holding
    # the signed bits of the widest slot (b + 1 with one slot out of range)
    bits = max(_signed_bits(c) for c, *_ in p.terms())
    assert bits == b + 1 if out_of_range else bits <= b
    assert all(abs(c) <= narrowed._bound for c, *_ in p.terms())
    assert narrowed._w == min(w, _width(1 << (bits - 1)))
    # the old value keeps its width, terms and hash; its bound, possibly
    # tightened, still bounds every coefficient
    assert (wide._w, wide.terms(), hash(wide)) == (w, p.terms(), hash(p)) and all(
        abs(c) <= wide._bound for c, *_ in p.terms()
    )


@given(st.data())
def test_a_sum_re_derives_its_operands_bounds_before_it_widens(data):
    # two values at width w whose tracked bounds sum past it but whose
    # coefficients and their sums fit: the sum stays at w
    w = data.draw(st.sampled_from([64, 128, 256]))
    b = data.draw(st.integers(min_value=1, max_value=w - 2))
    big = monomial(1 << (w - 3), 0, 0, 30)
    p, q = ((_slots_of_b_bits(data, b, False) + big) - big for _ in range(2))
    assert p._w == q._w == w and (p._bound + q._bound) >> (w - 1)
    refs = [{(ea, eb, eq): c for c, ea, eb, eq in x.terms()} for x in (p, q)]
    hashes = [hash(x) for x in (p, q)]
    total = p + q
    _assert_matches(total, ref_add(*refs))
    assert total._w == w
    # each operand keeps its width, terms and hash, under a bound that may
    # have tightened
    for x, ref, h in zip((p, q), refs, hashes):
        assert x._w == w and x.terms() == ref_terms(ref) and hash(x) == h
        assert all(abs(c) <= x._bound for c in ref.values())


def test_narrow_stops_at_a_slot_out_of_range():
    # slots of 31 signed bits fit 32-bit slots; one slot of 2^30 does not
    edge = {(0, 0, 0): -(2**30), (0, 0, 1): 2**30 - 1, (1, 0, 0): -1}
    big = monomial(2**61, 0, 0, 5)
    assert narrow((TriPoly(edge) + big) - big)[0]._w == 32
    for c in (2**30, -(2**30) - 1):
        value = (TriPoly({**edge, (0, 0, 2): c}) + big) - big
        (narrowed,) = narrow(value)
        assert narrowed._w == 64 and narrowed.coeff(0, 0, 2) == c


def test_narrow_leaves_a_bound_between_the_edges():
    # 2^40 sits far from both edges of 64-bit slots: no re-derivation
    value = (TriPoly({(0, 0, 0): 3}) + monomial(2**40, 0, 0, 1)) - monomial(2**40, 0, 0, 1)
    assert value._w == 64 and narrow(value)[0] is value
    assert narrow(ZERO) == (ZERO,) and narrow() == ()


def test_narrow_gives_a_group_one_width_for_the_sum_of_its_bounds():
    small, large = TriPoly({(0, 0, 0): 5}), TriPoly({(0, 0, 0): 2**31 - 3, (1, 0, 1): 1})
    assert narrow(small)[0]._w == narrow(large)[0]._w == 32
    group = narrow(small, large)
    assert group == (small, large) and {p._w for p in group} == {64}
    assert (group[0] + group[1])._w == 64


@given(
    _term_dicts,
    st.sampled_from([1, -1, 3, -3, 2**40, -(2**40)]),
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=-12, max_value=20),
    ),
)
def test_monomial_products_match_the_reference(terms, c, key):
    p, rp = _pair(terms)
    m, rm = TriPoly({key: c}), {key: c}
    for prod, ref in ((m * p, ref_mul(rm, rp)), (p * m, ref_mul(rp, rm))):
        _assert_matches(prod, ref)
        if p:
            assert prod._w >= max(p._w, m._w)


@pytest.mark.parametrize("w", [32, 64, 128, None])
@pytest.mark.parametrize(
    "mono", [(1, 0, 0, 0), (1, 2, 1, 6), (-3, 0, 2, -9), (2**40 + 1, 1, 0, 3), (-(2**70), 0, 0, -1)]
)
def test_times_monomial_builds_the_product_by_a_monomial(w, mono):
    # the same rows, width and bound as monomial(...) * p, not only an equal
    # value: a value in w-bit slots with rows from negative q0, or zero
    def value():
        if w is None:
            return ZERO
        top = 2 ** (w - 1) - 1
        return TriPoly({(0, 0, -4): top, (0, 0, 1): -1, (1, 2, -7): -top, (2, 0, 5): 7})

    got, want = _times_monomial(value(), *mono), monomial(*mono) * value()
    assert (got._rows, got._w, got._bound) == (want._rows, want._w, want._bound)
    assert value()._w == (w or 32)


def test_product_truncated_holds_in_32_bit_slots():
    # every coefficient to q^300 is below 2^31; the tracked bound doubles
    # with each factor, which took the slots to 256 bits before it was
    # re-derived
    prod = product_truncated(300)
    assert prod._w == 32
    # the count tables too, narrowed by the transfer engine: without it they
    # took 256-bit (side A) and 128-bit (side B) slots
    table_a, table_b = count_table("A", 300), count_table("B", 300)
    assert prod == table_a
    assert table_a._w == table_b._w == 32


def test_a_level_7_product_holds_in_32_bit_slots():
    # S(6, 9) tracks a 27-bit bound for 14-bit coefficients, so P2(7) * S(6, 9)
    # took 64-bit slots by the tracked bound alone
    p2, series = _at(P2_TERMS, 7), SeriesMemo().s(6, 9)
    prod = p2 * series
    assert series._w == 32 and prod._w == 32
    big = monomial(2**200, 0, 0, 0)
    wide = (series + big) - big
    assert p2 * wide == prod and (p2 * wide)._w > prod._w


def test_memo_entries_take_the_narrowest_slots():
    # tracked bounds grow about 4 bits a level against 3 for the
    # coefficients: without narrowing, S(8, .) to S(11, .) took 64-bit slots
    # for coefficients of at most 29 bits, and most of S(16, .) 128-bit
    # slots for 45
    memo = SeriesMemo()
    memo.s(16, 15)
    assert {memo.s(n, j)._w for n in range(12) for j in range(16)} == {32}
    assert {memo.s(16, j)._w for j in range(16)} == {64}


def test_a_sum_is_never_narrower_than_an_operand():
    # a product whose operand bound was re-derived keeps its widest operand's
    # W under a far smaller bound; a sum with it must not narrow that W
    big = monomial(2**200, 0, 0, 30)
    rp, rq = {(0, 0, 0): 3, (1, 0, 2): -5}, {(0, 0, 0): 1, (0, 1, 1): 2**60}
    x = (TriPoly(rp) + big) - big
    prod = TriPoly(rq) * x
    assert prod._w == x._w == 256 and prod._bound < 2**64
    ref, one = ref_mul(rq, rp), {(0, 0, 0): 1}
    for total, rt in ((prod + ONE, ref_add(ref, one)), (ONE - prod, ref_add(one, ref_neg(ref)))):
        _assert_matches(total, rt)
        assert total._w == 256
