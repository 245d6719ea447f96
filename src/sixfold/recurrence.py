"""The analytic side: windowed series via recurrence rules, the two
vanishing combinations J and K, the three auxiliary polynomials p1..p3,
fourth-order residuals and the truncated generating product.

The recurrence rules and the identities J, K, Link, Lemma2 and Lemma3 are
plain data tables in one term format: a monomial times factor tables
(p1..p3 among them) times a series S(n - dn, j) or, where the term names
an identity table in place of the class j, that identity's value at level
n - dn (Link reads J and K so).  Every q exponent is q_slope*n + q_offset
with q_slope a multiple of 6, so each term is a polynomial in a, b, q and
x = q^(6n) times a series or an identity.  One evaluator, `_combination`,
sums every such table, the memo's rules included; only Lemma4, a shifted
series, is written as code.  That makes the transcription reviewable term
by term and lets the verification harness inject single-term mutations
into the rules and the p-tables to confirm the suites actually notice a
wrong coefficient or exponent.
"""

from __future__ import annotations

import math
import random

from .poly import ONE, TriPoly, ZERO, _times_monomial, monomial

# One rule term (coeff, e_a, e_b, q_slope, q_offset, dn, jref) contributes
#   coeff * a^e_a * b^e_b * q^(q_slope*n + q_offset) * S(n - dn, jref).
# The rule at index j defines S(n, j) as S(n, j-1) plus its terms; rule 0
# has no predecessor and consists of its single term.
RuleTerm = tuple[int, int, int, int, int, int, int]

REC_RULES: tuple[tuple[RuleTerm, ...], ...] = (
    ((1, 0, 0, 0, 0, 1, 15),),
    (
        (1, 1, 0, 6, 1, 1, 11),
        (-1, 1, 0, 6, 1, 1, 9),
        (1, 1, 0, 6, 1, 1, 5),
        (-1, 3, 3, 24, -12, 3, 9),
    ),
    (
        (1, 1, 0, 6, 2, 1, 12),
        (-1, 1, 0, 6, 2, 1, 9),
        (1, 1, 0, 6, 2, 1, 8),
    ),
    ((1, 2, 0, 12, 3, 1, 3),),
    ((1, 0, 1, 6, 4, 1, 13),),
    ((1, 1, 1, 12, 5, 1, 5),),
    ((1, 0, 1, 6, 5, 1, 14),),
    ((1, 1, 1, 12, 6, 1, 5),),
    ((1, 1, 1, 12, 7, 1, 8),),
    ((1, 0, 2, 12, 9, 1, 9),),
    ((1, 1, 1, 6, 6, 1, 14),),
    ((1, 2, 1, 12, 7, 1, 5),),
    ((1, 2, 1, 12, 8, 1, 8),),
    ((1, 1, 2, 12, 10, 1, 9),),
    ((1, 1, 2, 12, 11, 1, 9),),
    ((1, 2, 2, 12, 12, 1, 9),),
)


# ------------------------------------------------------ auxiliary p1..p3

# Auxiliary polynomial term: (coeff, e_a, e_b, q_slope, q_offset).
PolyTerm = tuple[int, int, int, int, int]

P1_TERMS: tuple[PolyTerm, ...] = (
    (1, 0, 0, 0, 0),
    (1, 1, 0, 6, -5),
    (1, 1, 0, 6, -4),
    (1, 0, 1, 6, -2),
    (1, 0, 1, 6, -1),
    (1, 1, 1, 6, 0),
    (2, 1, 1, 12, -1),
    (3, 1, 1, 12, 0),
    (1, 1, 0, 6, 2),
    (2, 2, 0, 12, -3),
    (1, 2, 0, 12, -2),
    (2, 1, 1, 12, 1),
    (1, 2, 1, 12, 2),
    (1, 0, 1, 6, 4),
    (1, 0, 2, 12, 2),
    (2, 0, 2, 12, 3),
    (1, 1, 2, 12, 4),
    (1, 0, 1, 6, 5),
    (1, 0, 2, 12, 4),
    (1, 1, 2, 12, 5),
    (1, 2, 0, 12, 3),
    (2, 2, 1, 18, 1),
    (2, 2, 1, 18, 2),
    (1, 1, 1, 12, 5),
    (1, 2, 1, 18, 0),
    (1, 1, 2, 18, 3),
    (1, 2, 0, 12, -4),
    (2, 1, 2, 18, 4),
    (1, 1, 1, 12, 6),
    (2, 1, 2, 18, 5),
    (1, 1, 1, 12, 7),
    (1, 2, 1, 18, 3),
    (1, 1, 2, 18, 6),
    (1, 0, 2, 12, 9),
    (1, 3, 0, 18, -2),
    (1, 3, 0, 18, -1),
    (1, 0, 3, 18, 7),
    (1, 0, 3, 18, 8),
    (1, 2, 1, 12, 1),
    (1, 1, 0, 6, 1),
)

P2_TERMS: tuple[PolyTerm, ...] = (
    (1, 2, 1, 12, -5),
    (1, 2, 1, 12, -4),
    (1, 1, 2, 12, -2),
    (1, 1, 2, 12, -1),
    (1, 2, 2, 12, 0),
    (1, 3, 1, 18, -4),
    (1, 3, 1, 18, -3),
    (1, 3, 1, 18, -2),
    (3, 2, 2, 18, 0),
    (1, 2, 2, 18, -1),
    (1, 1, 3, 18, 2),
    (1, 1, 3, 18, 3),
    (1, 2, 2, 18, 1),
    (1, 1, 3, 18, 4),
    (1, 3, 1, 18, -10),
    (1, 2, 2, 18, -7),
    (3, 2, 2, 18, -6),
    (1, 3, 2, 18, -5),
    (1, 4, 1, 24, -9),
    (1, 4, 1, 24, -8),
    (1, 4, 1, 24, -7),
    (3, 3, 2, 24, -5),
    (1, 3, 2, 24, -6),
    (3, 2, 3, 24, -2),
    (3, 3, 2, 24, -4),
    (3, 2, 3, 24, -1),
    (1, 3, 1, 18, -9),
    (1, 3, 1, 18, -8),
    (1, 2, 2, 18, -5),
    (1, 3, 2, 18, -4),
    (1, 2, 3, 24, 0),
    (1, 1, 3, 18, -4),
    (1, 1, 4, 24, 0),
    (1, 3, 2, 24, -3),
    (1, 1, 4, 24, 2),
    (1, 1, 3, 18, -2),
    (1, 1, 4, 24, 1),
    (1, 1, 4, 24, 3),
    (1, 4, 1, 24, -6),
    (1, 1, 3, 18, -3),
    (1, 2, 3, 18, -2),
    (1, 2, 3, 18, -1),
    (1, 2, 3, 24, -3),
)

P3_TERMS: tuple[PolyTerm, ...] = (
    (-1, 3, 3, 24, -12),
    (-1, 3, 3, 18, -12),
    (-1, 4, 3, 24, -11),
    (-1, 4, 3, 24, -10),
    (-1, 3, 4, 24, -8),
    (-1, 3, 4, 24, -7),
    (2, 4, 3, 30, -17),
    (2, 4, 3, 30, -16),
    (2, 3, 4, 30, -14),
    (2, 3, 4, 30, -13),
    (1, 4, 2, 24, -21),
    (1, 5, 2, 30, -20),
    (1, 3, 3, 24, -19),
    (1, 5, 2, 30, -19),
    (1, 4, 3, 30, -18),
    (1, 3, 4, 30, -15),
    (1, 3, 3, 24, -18),
    (1, 3, 3, 24, -17),
    (1, 4, 3, 30, -15),
    (1, 3, 4, 30, -12),
    (1, 2, 5, 30, -11),
    (1, 2, 5, 30, -10),
    (1, 2, 4, 24, -15),
)

PTables = tuple[tuple[PolyTerm, ...], ...]
DEFAULT_P_TABLES: PTables = (P1_TERMS, P2_TERMS, P3_TERMS)


def _at(table: tuple[PolyTerm, ...], n: int, shift: int = 0) -> TriPoly:
    """The table's polynomial at level n (q exponents may be negative at small
    n), with a -> a*q^shift and b -> b*q^shift when shift is non-zero.

    Terms whose exponents coincide at n are summed into one term dict, and
    the value is built from it at once (`TriPoly(terms)`), so its bound is
    its largest |coefficient|, not the sum of them."""
    terms: dict[tuple[int, int, int], int] = {}
    for coeff, e_a, e_b, slope, offset in table:
        key = (e_a, e_b, slope * n + offset)
        terms[key] = terms.get(key, 0) + coeff
    value = TriPoly(terms)
    return value.shift(shift, shift) if shift else value


# ---------------------------------------------------------- series memo


class SeriesMemo:
    """Memoized table of windowed series values, filled in (n, j) order.

    Every rule term refers to a lower level (dn >= 1), and rule j adds to
    S(n, j - 1), so S(n, j) depends only on entries before it in the order
    (0, 0), (0, 1), ..., (0, 15), (1, 0), ...  `s` fills each missing
    earlier entry in that order before its own, which keeps the stack
    depth fixed at every level.  Entries are only ever written with the
    value derived from the rules.  Its sums widen only when their
    operands' re-derived bounds need it (see the poly module), so
    S(0..11, .) stay in 32-bit slots and S(16, .) in 64-bit ones, which the
    tracked bounds alone would take to 64 and 128.  Next to them the memo
    holds the value of each identity table it was asked to sum at a level
    (`combination`), so J(n) and K(n) are summed once however many checks
    read them.

    The memo carries both halves of the transcription: `rules` fill the
    entries and `p_tables` (p1..p3) enter the identities `_combination`
    sums, so a mutation of either enters through the memo.  A memo built
    from mutated rules or p-tables must not be shared with pristine ones.
    """

    def __init__(
        self,
        rules: tuple[tuple[RuleTerm, ...], ...] = REC_RULES,
        p_tables: PTables = DEFAULT_P_TABLES,
    ):
        if len(rules) != 16:
            raise ValueError(f"need one rule per window class (16), got {len(rules)}")
        if len(p_tables) != 3:
            raise ValueError(f"need the three p-tables p1..p3, got {len(p_tables)}")
        if any(dn < 1 for rule in rules for *_, dn, _ in rule):
            raise ValueError("every rule term must refer to a lower level (dn >= 1)")
        self.rules = rules
        self.p_tables = p_tables
        self._table: list[TriPoly] = []  # S(n, j) at index 16n + j
        self._held: dict[tuple[tuple[IdentityTerm, ...], int], TriPoly] = {}

    def s(self, n: int, j: int) -> TriPoly:
        """S(n, j) per the recurrence rules; 1 at n == -1, 0 below."""
        if not 0 <= j <= 15:
            raise ValueError(f"window class must be in 0..15, got {j}")
        if n < 0:
            return ONE if n == -1 else ZERO
        index = 16 * n + j
        if index < len(self._table):
            return self._table[index]
        for earlier in range(len(self._table), index):
            self.s(*divmod(earlier, 16))
        value = (self.s(n, j - 1) if j else ZERO) + _combination(self.rules[j], n, self)
        self._table.append(value)
        return value

    def combination(self, terms: tuple[IdentityTerm, ...], n: int) -> TriPoly:
        """`_combination(terms, n, self)`, summed on the first call for the
        table and the level and held from then on."""
        key = (terms, n)
        if key not in self._held:
            self._held[key] = _combination(terms, n, self)
        return self._held[key]


# ------------------------------------------------------ identity terms

WINDOW: tuple[PolyTerm, ...] = (  # 1 + a*q^(6n+1) + a*q^(6n+2) + b*q^(6n+4) + b*q^(6n+5)
    (1, 0, 0, 0, 0),
    (1, 1, 0, 6, 1),
    (1, 1, 0, 6, 2),
    (1, 0, 1, 6, 4),
    (1, 0, 1, 6, 5),
)

ONE_MINUS_X: tuple[PolyTerm, ...] = (  # 1 - q^(6n); zero at n = 0
    (1, 0, 0, 0, 0),
    (-1, 0, 0, 6, 0),
)

J_BRACKET: tuple[PolyTerm, ...] = (
    (1, 0, 0, 0, 0),
    (1, 1, 0, 6, 1),
    (1, 1, 0, 6, 2),
    (1, 2, 0, 6, 3),
    (1, 0, 1, 6, 4),
    (1, 0, 1, 6, 5),
    (1, 1, 1, 6, 5),
    (1, 1, 1, 6, 6),
    (1, 1, 1, 6, 7),
    (1, 0, 2, 6, 9),
)

J_INNER: tuple[PolyTerm, ...] = (
    (1, 2, 0, 0, 0),
    (1, 1, 1, 0, 2),
    (1, 1, 1, 0, 3),
    (1, 1, 1, 0, 4),
    (1, 2, 1, 0, 4),
    (1, 2, 1, 0, 5),
    (1, 0, 2, 0, 6),
    (1, 1, 2, 0, 7),
    (1, 1, 2, 0, 8),
)

K_INNER: tuple[PolyTerm, ...] = (
    (1, 0, 0, 0, 0),
    (1, 1, 0, 0, 1),
    (1, 1, 0, 0, 2),
    (1, 0, 1, 0, 4),
    (1, 0, 1, 0, 5),
    (1, 1, 1, 0, 6),
)

LINK_BRACKET: tuple[PolyTerm, ...] = (  # 1 + a*q^(6n+2) + b*q^(6n+4) + b*q^(6n+5)
    (1, 0, 0, 0, 0),
    (1, 1, 0, 6, 2),
    (1, 0, 1, 6, 4),
    (1, 0, 1, 6, 5),
)

P1, P2, P3 = 1, 2, 3  # factor tables that name p_i in the memo's `p_tables`

# An identity term is a RuleTerm whose jref names a window class or an
# identity table, times factors (table, d) or (table, d, s): the table at
# level n - d, with a -> a*q^s and b -> b*q^s when s is given.  A named
# identity stands for its value at level n - dn, held by the memo.
IdentityTerm = tuple[int | tuple, ...]


def _combination(terms: tuple[IdentityTerm, ...], n: int, memo: SeriesMemo) -> TriPoly:
    """Sum of the terms at level n >= 0, each times the series S(n - dn, jref)
    or, when jref is an identity table, that identity's value at level
    n - dn (`SeriesMemo.combination`).  A term whose series or identity value
    is zero is skipped before its factors are built, and small factors are
    multiplied first."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    acc = ZERO
    for coeff, e_a, e_b, slope, offset, dn, jref, *factors in terms:
        series = memo.s(n - dn, jref) if isinstance(jref, int) else memo.combination(jref, n - dn)
        if not series:
            continue
        small = monomial(coeff, e_a, e_b, slope * n + offset)
        for table, d, *shift in factors:
            if isinstance(table, int):
                table = memo.p_tables[table - 1]
            small = small * _at(table, n - d, *shift)
        acc = acc + small * series
    return acc


# ------------------------------------------------- vanishing combinations

J_TERMS: tuple[IdentityTerm, ...] = (
    (1, 0, 0, 0, 0, 0, 9),
    (-1, 0, 0, 0, 0, 1, 15, (ONE_MINUS_X, 0), (WINDOW, 0)),
    (-1, 0, 0, 6, 0, 1, 9, (J_BRACKET, 0)),
    (1, 1, 1, 18, -3, 2, 9, (ONE_MINUS_X, 0), (J_INNER, 0)),
    (1, 3, 3, 24, -12, 3, 9, (ONE_MINUS_X, 0), (ONE_MINUS_X, 1)),
)

K_TERMS: tuple[IdentityTerm, ...] = (
    (1, 0, 0, 0, 0, 0, 9),
    (-1, 0, 0, 0, 0, 0, 15),
    (1, 1, 1, 6, 6, 1, 15, (ONE_MINUS_X, 0)),
    (1, 1, 1, 12, 6, 1, 9, (K_INNER, 0)),
    (-1, 3, 3, 18, 6, 2, 9, (ONE_MINUS_X, 0)),
)

# J(n) and K(n) times their factors, minus K(n+1): a dn of -1 reads the level above.
LINK_TERMS: tuple[IdentityTerm, ...] = (
    (1, 2, 1, 12, 19, 0, J_TERMS),
    (-1, 0, 0, 0, 0, -1, K_TERMS),
    (1, 1, 0, 6, 13, 0, K_TERMS, (LINK_BRACKET, 0)),
)


def J_poly(n: int, memo: SeriesMemo) -> TriPoly:
    """First vanishing combination of series values; zero for every n >= 0.
    Summed once per memo and level."""
    return memo.combination(J_TERMS, n)


def K_poly(n: int, memo: SeriesMemo) -> TriPoly:
    """Second vanishing combination of series values; zero for every n >= 0.
    Summed once per memo and level."""
    return memo.combination(K_TERMS, n)


def link_residual(n: int, memo: SeriesMemo) -> TriPoly:
    """Combination of J(n), K(n) and K(n+1), read from the memo's held
    values, that vanishes because each of them does: its verdict at level n
    follows from those of J and K.  On a pristine memo it is zero whatever
    its constants, since J and K are; only a memo on which J or K fails
    shows its table."""
    return _combination(LINK_TERMS, n, memo)


# ------------------------------------------------- fourth-order residuals

# Left-hand side last: it cancels the summed right-hand side in one addition.
LEMMA2_TERMS: tuple[IdentityTerm, ...] = (
    (-1, 0, 0, 0, 0, 1, 9, (P1, 0)),
    (-1, 0, 0, 0, 0, 2, 9, (ONE_MINUS_X, 0), (P2, 0)),
    (-1, 0, 0, 0, 0, 3, 9, (P3, 0), (ONE_MINUS_X, 0), (ONE_MINUS_X, 1)),
    (-1, 4, 4, 30, -36, 4, 9, (ONE_MINUS_X, 0), (ONE_MINUS_X, 1), (ONE_MINUS_X, 2), (WINDOW, 0)),
    (1, 0, 0, 0, 0, 0, 9, (WINDOW, 1)),
)

LEMMA3_TERMS: tuple[IdentityTerm, ...] = (
    (-1, 0, 0, 0, 0, 1, 15, (P1, 1, 6)),
    (-1, 0, 0, 0, 0, 2, 15, (ONE_MINUS_X, 1), (P2, 1, 6)),
    (-1, 0, 0, 0, 0, 3, 15, (ONE_MINUS_X, 1), (ONE_MINUS_X, 2), (P3, 1, 6)),
    (-1, 4, 4, 30, -18, 4, 15, (WINDOW, 0), (ONE_MINUS_X, 1), (ONE_MINUS_X, 2), (ONE_MINUS_X, 3)),
    (1, 0, 0, 0, 0, 0, 15, (WINDOW, 1)),
)


def lemma2_residual(n: int, memo: SeriesMemo) -> TriPoly:
    """LHS minus RHS of the fourth-order recurrence for the class-9 series."""
    return _combination(LEMMA2_TERMS, n, memo)


def lemma3_residual(n: int, memo: SeriesMemo) -> TriPoly:
    """LHS minus RHS of the fourth-order recurrence for the class-15 series.

    Holds for n >= 1 (checked exactly on levels 1..4).  At n = 0 the printed
    instance is false and this returns the documented non-zero 19-term
    residual (README, known finding 2)."""
    return _combination(LEMMA3_TERMS, n, memo)


# (1 + a*q)(1 + a*q^2)(1 + b*q^4)(1 + b*q^5): 1 + t for each non-constant WINDOW term t
_LEMMA4_FACTORS = math.prod((ONE + _at((t,), 0) for t in WINDOW[1:]), start=ONE)


def lemma4_residual(n: int, memo: SeriesMemo) -> TriPoly:
    """Class-15 series minus its product form over the shifted class-9 series."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return memo.s(n, 15) - _LEMMA4_FACTORS * memo.s(n - 1, 9).shift(6, 6)


# ------------------------------------------------------- truncated product


def product_truncated(q_max: int) -> TriPoly:
    """Product of the four side-A generating factors per window, truncated
    at q exponent q_max.

    Only windows whose smallest factor exponent 6n+1 is <= q_max can
    contribute, so the product stops after them.  Each factor 1 + m, for a
    monomial m = a^i b^k q^e, adds m times the product so far cut at
    q_max - e, so every step is a sum and a product by a monomial, which
    re-keys the rows of the cut product (poly._times_monomial).  Each sum
    doubles the tracked bound, and one about to widen re-derives its
    operands' bounds first (see the poly module), so product_truncated(300)
    stays in 32-bit slots for coefficients of 26 bits, where the tracked
    bound alone would take it to 256.  The `Product` check
    compares it with product_truncated(q_max + 18) cut at q_max: three more
    windows, built to a later bound.  A loop that stopped a window early or
    a truncation below q_max shows there as residual terms, which it would
    not if both sides shared the bound.
    """
    if q_max < 0:
        raise ValueError(f"q_max must be >= 0, got {q_max}")
    out = ONE
    for n in range((q_max - 1) // 6 + 1):
        # a*q^(6n+1), a*q^(6n+2), b*q^(6n+4), b*q^(6n+5)
        for _, e_a, e_b, slope, offset in WINDOW[1:]:
            e = slope * n + offset
            if e <= q_max:
                out = out + _times_monomial(out.truncate(q_max - e), 1, e_a, e_b, e)
    return out


# ------------------------------------------------------ mutation injection


def _mutate(
    tables: tuple[tuple, ...], field: int, rng: random.Random
) -> tuple[tuple[tuple, ...], tuple[int, int, int, int]]:
    """Copy of `tables` with entry `field` of one term changed by +/-1, and
    (table index, term index, old value, new value)."""
    i = rng.randrange(len(tables))
    t = rng.randrange(len(tables[i]))
    term = tables[i][t]
    old, new = term[field], term[field] + rng.choice((-1, 1))
    table = tables[i][:t] + (term[:field] + (new,) + term[field + 1 :],) + tables[i][t + 1 :]
    return tables[:i] + (table,) + tables[i + 1 :], (i, t, old, new)


def mutate_p_tables(tables: PTables, rng: random.Random) -> tuple[PTables, str]:
    """Copy of `tables` with one term's coefficient changed by +/-1."""
    out, (i, t, old, new) = _mutate(tables, 0, rng)
    return out, f"p{i + 1} term {t}: coeff {old} -> {new}"


def mutate_rec_rules(
    rules: tuple[tuple[RuleTerm, ...], ...], rng: random.Random
) -> tuple[tuple[tuple[RuleTerm, ...], ...], str]:
    """Copy of `rules` with one term's constant q offset changed by +/-1."""
    out, (j, t, old, new) = _mutate(rules, 4, rng)
    return out, f"rule {j} term {t}: q offset {old} -> {new}"
