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
sums every such table, the memo's rules included, and Lemma4 too: its
shifted series (a -> a*q^6, b -> b*q^6) is a pseudo-factor (SHIFT, 6) of
its term, so no identity is written as code.  That makes the transcription
reviewable term by term and lets the verification harness inject
single-term mutations into the rules and the p-tables to confirm the
suites actually notice a wrong coefficient or exponent.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

from .poly import ONE, TriPoly, ZERO, _times_monomial, monomial

if TYPE_CHECKING:  # named in annotations only, which are never evaluated
    import random

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

# A read (jref, dn): the series S(n - dn, jref), or the value at level
# n - dn of the identity table jref.
Read = tuple[int | tuple, int]


def reads(refs: Iterable[Read]) -> Iterator[Read]:
    """Each read of `refs` and, for one that names an identity table, the
    reads of that table's terms, their dn added to its own: everything
    summing the table at that level reads.  A dn of -1 reads the level
    above (Link reads K(n+1) so)."""
    for jref, dn in refs:
        yield jref, dn
        if not isinstance(jref, int):
            yield from reads((ref, dn + d) for _, _, _, _, _, d, ref, *_ in jref)


def read_window(refs: Iterable[Read]) -> dict[int | tuple, int]:
    """The largest dn at which `refs` read each window class and each
    identity table, following every table they name (`reads`)."""
    window: dict[int | tuple, int] = {}
    for key, dn in reads(refs):
        window[key] = max(window.get(key, dn), dn)
    return window


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

    One rule says what the memo may drop, read off the tables: `window`
    maps each window class and each identity table to the largest dn at
    which anything declared reads it (`read_window`).  S(l, c) is read by
    S(l, c + 1) and by what reads class c, up to level l + window[c]; a
    held value of the table T at level l up to level l + window[T].
    `window` starts as the rules' own (for REC_RULES 3 for class 9 and 1
    for classes 3, 5, 8 and 11..15; a class no rule reads is absent).

    By default the memo holds every entry and every value it computed.
    `release(n)` drops those that nothing at level n or above reads: call
    it once every read of level n - 1 is done.  `hold_only` declares what
    the caller reads besides the rules, and turns on the drops inside a
    level: an entry of a class that nothing declared reads goes as soon
    as the next class of its level is filled, and, at the caller's last
    level, every entry below the one it asks for.  A dropped entry or
    value keeps its place, and reading it again raises LookupError naming
    it: it is never recomputed and never returned wrong.

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
        self._rule_reads = [(jref, dn) for rule in rules for *_, dn, jref in rule]
        self.window = read_window(self._rule_reads)
        self._unread: frozenset[int] = frozenset()  # classes dropped inside a level
        self._last = (-1, 0)  # the caller's last entry; level -1: none
        self._table: list[TriPoly | None] = []  # S(n, j) at index 16n + j; None once released
        self._held: dict[tuple[tuple[IdentityTerm, ...], int], TriPoly | None] = {}

    def hold_only(self, refs: Iterable[Read] = (), last: tuple[int, int] | None = None) -> None:
        """Hold only what the rules and the caller read from now on.  At
        each level n the caller reads each (ref, dn) of `refs`, the window
        class or identity table ref at level n - dn (and a table's terms at
        their own dn added to it), and no entry past `last` = (N, J) if it
        is given.  `window` becomes the rules' and the refs' window; an entry
        of a class outside it goes once the next class of its level is
        filled, and an entry of level N below S(N, J) once the next one is."""
        self.window = read_window(chain(self._rule_reads, refs))
        self._unread = frozenset(c for c in range(16) if c not in self.window)
        self._last = last or (-1, 0)

    def s(self, n: int, j: int) -> TriPoly:
        """S(n, j) per the recurrence rules; 1 at n == -1, 0 below.  Raises
        LookupError for an entry the memo dropped."""
        if not 0 <= j <= 15:
            raise ValueError(f"window class must be in 0..15, got {j}")
        if n < 0:
            return ONE if n == -1 else ZERO
        index = 16 * n + j
        if index < len(self._table):
            value = self._table[index]
            if value is None:
                raise LookupError(f"S({n}, {j}) was released from the memo")
            return value
        for earlier in range(len(self._table), index):
            self.s(*divmod(earlier, 16))
        value = (self.s(n, j - 1) if j else ZERO) + _combination(self.rules[j], n, self)
        self._table.append(value)
        if j and (j - 1 in self._unread or (n == self._last[0] and j <= self._last[1])):
            self._table[index - 1] = None
        return value

    def release(self, n: int) -> None:
        """Drop every entry S(l, c) with l + window[c] < n and every held
        value of a table T at level l with l + window[T] < n (window 0 for
        what nothing declared reads, which its own level reads): all that
        nothing at level n or above reads.  Call it once every read of
        level n - 1 is done."""
        for index in range(min(16 * n, len(self._table))):
            level, c = divmod(index, 16)
            if level + self.window.get(c, 0) < n:
                self._table[index] = None
        for terms, level in self._held:
            if level + self.window.get(terms, 0) < n:
                self._held[terms, level] = None

    def combination(self, terms: tuple[IdentityTerm, ...], n: int) -> TriPoly:
        """`_combination(terms, n, self)`, summed on the first call for the
        table and the level and held from then on.  Raises LookupError for
        a value `release` dropped."""
        key = (terms, n)
        if key not in self._held:
            self._held[key] = _combination(terms, n, self)
        value = self._held[key]
        if value is None:
            raise LookupError(f"the {len(terms)}-term identity at level {n} was released from the memo")
        return value


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

# (1 + a*q)(1 + a*q^2)(1 + b*q^4)(1 + b*q^5) as a table in q-slope 0: the
# product of 1 + t over the non-constant WINDOW terms t at level 0, multiplied
# out once at import
WINDOW_PRODUCT: tuple[PolyTerm, ...] = tuple(
    (c, a, b, 0, e) for c, a, b, e in math.prod(ONE + _at((t,), 0) for t in WINDOW[1:]).terms()
)

P1, P2, P3 = 1, 2, 3  # factor tables that name p_i in the memo's `p_tables`
SHIFT = "shift"  # the pseudo-factor (SHIFT, s): the series itself under a -> a*q^s, b -> b*q^s

# An identity term is a RuleTerm whose jref names a window class or an
# identity table, times factors (table, d) or (table, d, s): the table at
# level n - d, with a -> a*q^s and b -> b*q^s when s is given.  A named
# identity stands for its value at level n - dn, held by the memo.  The
# pseudo-factor (SHIFT, s) shifts that series or value instead: a -> a*q^s
# and b -> b*q^s in it (Lemma4's S(n - 1, 9) under a -> a*q^6, b -> b*q^6).
IdentityTerm = tuple[int | tuple, ...]


def _combination(terms: tuple[IdentityTerm, ...], n: int, memo: SeriesMemo) -> TriPoly:
    """Sum of the terms at level n >= 0, each times the series S(n - dn, jref)
    or, when jref is an identity table, that identity's value at level
    n - dn (`SeriesMemo.combination`), shifted by a (SHIFT, s) factor.  A
    term whose series or identity value is zero is skipped before its
    factors are built.

    A factor table in q alone (`ONE_MINUS_X`, 1 - q^(6n): every term has
    e_a = e_b = 0) is multiplied into the series, every other factor into
    the monomial, which then multiplies the series.  A general product
    costs an int product and a shift-add per pair of a piece of its
    smaller operand and a row of the other (poly module, Products), and
    the two slots of 1 - q^(6n) lie 6n apart, past GAP from n = 3.  In the
    smaller operand each such factor would double the pieces:
    m * P3 * (1 - x)(1 - x') would pass four times over the series' rows
    per piece of P3, where the series times each 1 - x passes twice, once.
    No term has more than one factor in a or b, so the monomial times it
    is a re-key (poly._times_monomial), and the general products left are
    that factor times the series and the passes of each 1 - x."""
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
            if table == SHIFT:
                series = series.shift(d, d)
            elif any(t[1] or t[2] for t in table):
                small = small * _at(table, n - d, *shift)
            else:
                series = series * _at(table, n - d, *shift)
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


# S(n, 15) = F * S(n - 1, 9) under a -> a*q^6, b -> b*q^6; left-hand side last.
LEMMA4_TERMS: tuple[IdentityTerm, ...] = (
    (-1, 0, 0, 0, 0, 1, 9, (SHIFT, 6), (WINDOW_PRODUCT, 0)),
    (1, 0, 0, 0, 0, 0, 15),
)


def lemma4_residual(n: int, memo: SeriesMemo) -> TriPoly:
    """Class-15 series minus its product form over the shifted class-9 series."""
    return _combination(LEMMA4_TERMS, n, memo)


# ------------------------------------------------------- truncated product


def product_truncated(q_max: int) -> TriPoly:
    """Product of the four side-A generating factors per window, truncated
    at q exponent q_max.

    Only windows whose smallest factor exponent 6n+1 is <= q_max can
    contribute, so the product stops after them.  Each factor 1 + m, for a
    monomial m = a^i b^k q^e, adds m times the product so far, cut at
    q_max, so every step is a sum and one product by a monomial, which
    re-keys the rows and cuts them as it goes (poly._times_monomial).  Each sum
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
                out = out + _times_monomial(out, 1, e_a, e_b, e, q_max=q_max)
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
