"""Exact sparse polynomials in a, b and q with unbounded integer coefficients.

The a and b exponents are non-negative; the q exponent is a signed integer,
which the auxiliary polynomials of the recurrence engine need at small
levels.  All arithmetic is exact: coefficients are Python ints, so overflow
and rounding are impossible.  Canonical term order is ascending
(e_q, e_a, e_b).

Layout (Kronecker substitution).  A polynomial is a dict of rows
{(e_a, e_b): (q0, x)}: the row holds the coefficients c_0, c_1, ... of
a^e_a * b^e_b * q^(q0 + i) as one Python int

    x = sum_i c_i * 2^(W*i),   |c_i| < 2^(W-1),

with the same slot width W for every row of a value.  Adding two rows is one
int addition, a monomial times a row one int multiplication, and a general
product one int product per pair of a row of one operand and an occupied
run of a row of the other (Products, below), all done by CPython's big-int
code instead of per term in Python.

Injectivity.  Such an x is a balanced base-2^W numeral, and every integer has
exactly one, so x determines its slots.  Substituting q = 2^W is a ring
homomorphism from Z[q] to Z, so the int of a sum or product of rows is the
sum or product of their ints.  The result therefore decodes to the right
coefficients whenever each of them stays below 2^(W-1) in absolute value,
whatever the intermediate ints were.  Every value carries an upper bound on
|coefficient|.  The W of a result is the smallest 32 * 2^k with
bound < 2^(W-1) that is at least the W of every operand it was computed
from, so no operation narrows a row; operands of a narrower width are
re-encoded to it first (`_reencode`).  The bound of a result follows from
its operands':

* sum: b1 + b2.  When that needs a wider W than both operands have, both
  operands' bounds are first re-derived from their rows by a mask test
  (_slot_bits), and the sum widens only if it still has to;
* product: the sum of the |coefficients| of one operand, the one with fewer
  rows, times the bound of the other (each coefficient of the product sums
  at most one product per term of the first operand).  When that needs a
  wider W than both operands have, the other operand's bound is first
  re-derived the same way, and the product widens only if it still has to.
  Cutting the first operand's rows into pieces (Products) changes neither
  that sum nor the width;
* product by a monomial, a value of one row of one slot c: |c| times the
  other operand's bound, by the same rule.  It re-keys the other operand's
  rows and scales each by c, and c times a canonical row is canonical, so
  it multiplies no row pairs and re-canonicalises nothing.  One helper
  does it (`_times_monomial`), for `*` and for the callers that hold the
  monomial as its exponents (partitions._transfer and
  recurrence.product_truncated), which would otherwise build a monomial
  only for `*` to take it apart again.  With a bound q_max it drops each
  row's slots above q_max as it re-keys, so those callers cut and re-key
  in one call (truncate is that cut with the monomial 1);
* monomial(c, ...): |c|; negation, shift and truncate: unchanged.

Tracked bounds outgrow the coefficients: a sum adds the bounds of its
operands, whatever their signs, so the bounds grow about 4 bits a memo
level against the coefficients' 2.6.  By the tracked bounds alone,
S(8, .) to S(11, .) took 64-bit slots for coefficients of at most 29
bits, most of S(16, .) 128-bit slots for 45, P2(7) * S(6, 9) 64-bit slots
where 32 hold, and product_truncated(300) 256-bit ones; re-derived before
widening, all of these stay at the width their coefficients need.  A re-derived bound is
kept on its value (`_tight`), the way the term count is: it bounds the same
coefficients, so the value, its rows and its width stay as they are, and
the next sum or product with the value starts from it.  Re-deriving
without keeping the bound made `series-deep` about 10 % slower.

Narrowing (`narrow`).  Sums and products never narrow, so a value whose
coefficients shrink, by cancellation or truncation, keeps its width.  The
transfer engine (partitions._transfer) narrows each layer, as one group,
after every step: that is where the count tables, the value DPs and the
side-B oracle keep their values, and a layer's values are summed together
at the next step.  The rows are re-encoded by the same strided copy that
widens them.  Count tables are long runs of doubling sums, and without
narrowing they would sit at q = 1000 in 512-bit (side B) and 1024-bit
(side A) slots for coefficients of 54 bits; narrowed, in 64-bit slots,
count_table("B", 1000) takes 5-8 s against 8-11 s.  The oracle's
levels 0..11 stay in 32-bit slots and levels 12..18 in 64.

Canonical form: no row is 0 and slot 0 of every row is non-zero, so two
equal polynomials of equal width have equal rows, and zero is the empty
dict.  Terms are decoded only to print, count, hash or look one up, and
for the norm and the cuts of a general product's smaller operand, all by
one decoder, `_slots`, which reads every slot of a row as a signed number
in linear time (Printing, below).  It reads the biased value
x + 2^(W-1) * sum_i 2^(W*i), whose digits are c_i + 2^(W-1) in [0, 2^W);
a cut reads the pieces of its row from those digits too (`_biased`,
Products below).

Products (`_cut`, GAP).  The factor tables of the identities carry
x = q^(6n) (`ONE_MINUS_X`, and p1..p3 inside), so their rows are mostly
zero slots: a row of 1 - q^(6n) holds 2 terms in 6n + 1 slots, P3 at
level 7 23 terms in 127, and P3 * (1 - x)(1 - x') 79 in 673.  Over the
`recurrence-deep` benchmark the smaller operands of the general products
hold 1,875 terms in 6,731 slots, and whole rows make 32.9 M slot products
with the other operands' slots.  So a general product cuts each row of
its operand with fewer rows at every run of GAP or more zero slots, and
multiplies each piece, at its own q offset, by the other operand's rows
into the same accumulator row: there, 799 pieces from 663 rows and 11.0 M
slot products.  A piece is read from the biased digits of its slots, so
it is exactly their balanced numeral, whatever the borrow of the slots
below the cut; a row with no such run is one piece, the row itself.
GAP = 16 because a piece costs one more int product and one more shift-add
into its accumulator row for each row of the other operand, which a short
zero run does not repay, and a GAP near the length of the zero runs cuts
too few of them: at level 7 the zero runs between the x terms are about
6n = 42 slots less the widths of the runs.  Over the whole
`recurrence-deep` run (2-core VM, fresh processes, least CPU time of
seven, six rounds), GAP = 1..24 took 0.09-0.15 s, with no value apart
from 16 beyond the drift between rounds, GAP = 32 0.11-0.15 s, and
GAP = 48 and uncut 0.15-0.18 s.

Printing (the canonical walk, `_walk`).  `terms`, `to_text`, `to_json_terms`,
`to_json` and `write` list the terms ascending in (e_q, e_a, e_b) without
sorting them, one q exponent at a time.  The few hundred rows are sorted
once by (q0, e_a, e_b).  A row joins the active list when the walk reaches
its q0, and is decoded then, and leaves after its top slot; the list is
kept in (e_a, e_b) order.  At each q exponent the walk reads the next slot
of every active row, and the non-zero ones are that exponent's terms,
already in (e_a, e_b) order, since a row holds at most one term per q
exponent.  Between one join or leave and the next the active rows stay the
same, so the walk reads those exponents' slots through one zip of the
rows' slot iterators, in C.  A join re-sorts the list (a merge of two
ascending runs) and a leave filters it, once per q exponent at which rows
join or leave, each in time linear in the active rows, every one of which
holds a slot at that exponent: the walk is O(slots).  `write` writes each
q exponent's terms to its stream as soon as they are formatted, so it
holds one exponent's strings, where collecting every term's string before
joining them held 69,452 of them for S(9, 15).  Decoding every term to a
tuple and sorting those made `sixfold series --n 9 --format json` spend
twice as long printing as filling the memo.

A row is decoded to its coefficients by `_slots`, in C with no Python
step per slot up to 64-bit slots.  XOR with the bias flips the top bit of each biased digit
c + 2^(W-1): for c >= 0 that leaves c, for c < 0 it leaves c + 2^W, which
is c in W-bit two's complement.  So the slots of (x + bias) ^ bias, read
as signed W-bit numbers (array "i" or "q", or int.from_bytes(signed=True)
past 64 bits), are exactly the c_i, and `itertools.compress` skips the
zero ones.  The text forms format each row's (e_a, e_b) part once and
each q exponent once, so a term costs one f-string (`_pieces`).  On
S(9, 15), in-process on a 2-core VM, `to_json` takes 21-24 ms and
`to_text` 19-26 ms (best of seven), so printing the series costs less
than filling it.
"""

from __future__ import annotations

import sys
from array import array
from itertools import compress, islice
from math import inf
from operator import itemgetter
from typing import Callable, Iterator, TextIO, TypeVar

Key = tuple[int, int, int]  # (e_a, e_b, e_q)
Row = tuple[int, int]  # (q0, x)
L = TypeVar("L")

GAP = 16  # zero slots at which a general product cuts a row (module docstring, Products)

_TOP, _SLOTS, _LABEL = itemgetter(2), itemgetter(3), itemgetter(4)  # of an active row (TriPoly._walk)

# (lead, mid, tail, separator, opening, closing, zero) of each printed form (TriPoly._pieces)
_FORMS = {
    "text": ("", "*a^{}*b^{}*q^", "{}", " + ", "", "", "0"),
    "json": ('["', '", {}, {}, ', "{}]", ", ", "[", "]", "[]"),
}


def _width(bound: int, floor: int = 32) -> int:
    """Smallest slot width 32 * 2^k, and at least floor, whose balanced slots
    hold |c| <= bound."""
    w = floor
    while bound >> (w - 1):
        w *= 2
    assert bound < 1 << (w - 1)
    return w


def _bias(w: int, k: int) -> int:
    """2^(w-1) in each of k slots of w bits."""
    return int.from_bytes((1 << (w - 1)).to_bytes(w // 8, "little") * k, "little")


def _biased(x: int, w: int) -> bytes:
    """The row x with 2^(w-1) added in each of its slots, as little-endian
    bytes: slot i holds the digit c_i + 2^(w-1) in [0, 2^w) (the last slot
    may be padding, which reads as c = 0)."""
    k = x.bit_length() // w + 1
    return (x + _bias(w, k)).to_bytes(k * w // 8, "little")


def _slots(x: int, w: int):
    """The coefficients c_i of the row x, lowest first (the last slot may be
    padding, which reads as 0), in one pass: the biased digits
    c_i + 2^(w-1) of _biased, their top bits flipped, read as signed w-bit
    numbers (module docstring, Printing)."""
    k = x.bit_length() // w + 1
    bias = _bias(w, k)
    raw = ((x + bias) ^ bias).to_bytes(k * w // 8, "little")
    if w > 64:
        size = w // 8
        return [
            int.from_bytes(raw[i : i + size], "little", signed=True)
            for i in range(0, len(raw), size)
        ]
    units = array("i" if w == 32 else "q", raw)
    if sys.byteorder == "big":
        units.byteswap()
    return units


def _reencode(x: int, w: int, w2: int) -> int:
    """The row x re-encoded from w-bit to w2-bit slots, each of its
    coefficients being |c| < 2^(v-1) for v = min(w, w2): a strided copy of
    32-bit units, for widening (w2 > w) and narrowing (w2 < w) alike.

    With the bias 2^(v-1) added in each w-bit slot, each slot holds the
    digit c + 2^(v-1) in [0, 2^v), which fills the low v bits of a w-bit and
    of a w2-bit slot alike; its low v/32 units are copied into the low end of
    a w2-bit slot, and the bias is taken off again at w2.  Any row can
    widen; a row narrows only if its slots fit w2.  (Decoding to signed
    slots and encoding again takes about 2.4 times as long: 354-395 ms
    against 150-154 ms over the 9,148 rows that `verify --suite lemma2
    --n-max 14` widens, in-process, best of seven.)"""
    k = x.bit_length() // w + 1
    v = min(w, w2)
    units = array("I", (x + (_bias(w, k) >> (w - v))).to_bytes(k * w // 8, "little"))
    m, m2 = w // 32, w2 // 32
    out = array("I", bytes(4 * m2 * k))
    for j in range(v // 32):
        out[j::m2] = units[j::m]
    return int.from_bytes(out.tobytes(), "little") - (_bias(w2, k) >> (w2 - v))


def _canon(q0: int, x: int, w: int) -> Row:
    """The non-zero row (q0, x) with its zero low slots dropped."""
    k = ((x & -x).bit_length() - 1) // w
    return (q0 + k, x >> (k * w)) if k else (q0, x)


def _cut(x: int, w: int) -> tuple[int, list[tuple[int, int]]]:
    """(norm, pieces) of the canonical row x: the sum of its |coefficients|
    and its slots cut at every run of GAP or more zero slots, as pieces
    (i, x_run), x_run holding slots i, i+1, ... of x up to the next cut.

    A piece is read from the biased digits (_biased), not shifted out of x:
    the digits of its slots, less 2^(w-1) in each, are exactly its balanced
    numeral, whatever the signs of the slots below the cut.  A row with no
    such run is one piece, x itself."""
    cs = _slots(x, w)
    norm, occupied = sum(map(abs, cs)), list(compress(range(len(cs)), cs))
    runs, start = [], 0  # slot 0 of a canonical row is occupied
    for prev, i in zip(occupied, occupied[1:]):
        if i - prev > GAP:
            runs.append((start, prev + 1))
            start = i
    if not runs:
        return norm, [(0, x)]
    runs.append((start, occupied[-1] + 1))
    raw, size = _biased(x, w), w // 8
    return norm, [
        (i, int.from_bytes(raw[i * size : end * size], "little") - _bias(w, end - i))
        for i, end in runs
    ]


def _check_ab(e_a: int, e_b: int) -> None:
    if e_a < 0 or e_b < 0:
        raise ValueError(f"a and b exponents must be non-negative, got ({e_a}, {e_b})")


def _make(rows: dict[tuple[int, int], Row], w: int, bound: int) -> "TriPoly":
    p = object.__new__(TriPoly)
    p._rows, p._w, p._bound, p._len = rows, w, bound, None
    return p


def _slot_bits(p: "TriPoly") -> int:
    """Smallest b with -2^(b-1) <= c < 2^(b-1) for every coefficient c of p
    (p non-zero), found by binary search over b with a mask test that
    decodes nothing.

    Let ones = sum_i 2^(W*i) over enough slots for every row.  The row x
    passes at b when y = x + 2^(b-1) * ones is >= 0 and has no set bit
    outside the low b bits of its slots.  If every slot is in range, the
    digits c_i + 2^(b-1) of y lie in [0, 2^b), so it passes.  If it passes,
    y's base-2^W digits d_i lie in [0, 2^b), so x = sum_i (d_i - 2^(b-1))
    * 2^(W*i) is a balanced numeral, and since that numeral is unique,
    c_i = d_i - 2^(b-1) is in range.  Each step costs one addition, one AND
    and one comparison per row.
    """
    w = p._w
    k = max(x.bit_length() for _, x in p._rows.values()) // w + 1
    ones = _bias(w, k) >> (w - 1)
    lo, hi = 1, p._bound.bit_length() + 1  # |c| <= bound passes at hi
    while lo < hi:
        b = (lo + hi) // 2
        bias, outside = ones << (b - 1), ~((ones << b) - ones)
        if all((y := x + bias) >= 0 and not y & outside for _, x in p._rows.values()):
            hi = b
        else:
            lo = b + 1
    return lo


def _tight(p: "TriPoly") -> int:
    """p's bound, re-derived from its rows by _slot_bits and kept on p, the
    way its term count is: a bound on the same coefficients, so the value,
    its rows and its width do not change (0 for a zero value)."""
    p._bound = min(p._bound, 1 << (_slot_bits(p) - 1)) if p._rows else 0
    return p._bound


def _operand(other: object) -> "TriPoly | None":
    """other as an operand of +, - and *: an int as the constant, a TriPoly
    as it is, and None for any other type (the operator returns
    NotImplemented)."""
    if isinstance(other, int):
        return monomial(other, 0, 0, 0)
    return other if isinstance(other, TriPoly) else None


def _product_bound(norm: int, p: "TriPoly", floor: int) -> tuple[int, int]:
    """(bound, W) of the product of p with a value whose |coefficients| sum
    to norm: norm times p's bound, in the smallest width that holds it and
    is at least floor, the operands' widest.  When that bound would need a
    wider W than floor, p's bound is first re-derived (_tight), and the
    product widens only if it still needs to."""
    bound = norm * p._bound
    if bound >> (floor - 1):
        bound = norm * _tight(p)
    return bound, _width(bound, floor)


def _times_monomial(
    p: "TriPoly",
    c: int,
    e_a: int,
    e_b: int,
    e_q: int,
    floor: int = 32,
    q_max: int | None = None,
) -> "TriPoly":
    """c * a^e_a * b^e_b * q^e_q times p (c != 0), in slots at least floor
    and p's width wide, with every term above q^q_max dropped: p's rows
    re-keyed, cut and scaled by c (module docstring, product by a
    monomial).  The width and bound are those of the uncut product."""
    if c == 1 and p._w >= floor:  # a re-key by 1 keeps p's width and bound
        bound, w, rows = p._bound, p._w, p._rows
    else:
        bound, w = _product_bound(abs(c), p, max(floor, p._w))
        rows = p._rows_at(w)
    out = {}
    for (ea, eb), (q0, x) in rows.items():
        if q_max is not None:
            bits = (q_max - e_q - q0 + 1) * w  # the slots kept
            if bits <= 0:
                continue
            if x.bit_length() >= bits:
                # low slots of a balanced numeral: the low bits, read signed
                x &= (1 << bits) - 1
                if x >> (bits - 1):
                    x -= 1 << bits
        out[ea + e_a, eb + e_b] = (q0 + e_q, x if c == 1 else x * c)  # slot 0 is kept, so x != 0
    return _make(out, w, bound)


def narrow(*values: "TriPoly") -> tuple["TriPoly", ...]:
    """The values re-encoded in the narrowest slot width that holds the sum
    of their bounds, for the layers of a transfer step (partitions._transfer).

    One value takes the narrowest width that holds it.  A group takes one
    width, wide enough for any sum of its members: the values of a transfer
    layer are summed together at the next step, and a sum that widens
    re-encodes its narrower operand once for every term the step adds.

    The bounds are re-derived (_tight) only when their sum sits within
    3 bits of an edge of the group's width W: at the top (sum >= 2^(W-3),
    or already past it), where the next few sums would widen, or, above
    32-bit slots, at the bottom (sum < 2^(W/2+2)), where the values have
    just widened and may not need to.  Elsewhere the tracked bounds are
    kept, which saves a pass over every row.  A value already in the
    chosen width is returned as it is; any other result is a new value,
    equal to the old one, with equal terms and hash, and the old value's
    bound."""
    w = max((p._w for p in values), default=32)
    total = sum(p._bound for p in values)
    if total >> (w - 3) or (w > 32 and not total >> (w // 2 + 2)):
        total = sum(map(_tight, values))
    w = _width(total)
    out = []
    for p in values:
        if p._w != w:
            rows = {key: (q0, _reencode(x, p._w, w)) for key, (q0, x) in p._rows.items()}
            p = _make(rows, w, p._bound)
        out.append(p)
    return tuple(out)


class TriPoly:
    """Immutable sparse polynomial in a, b, q, stored as packed rows (see the
    module docstring).

    `TriPoly({(e_a, e_b, e_q): coeff, ...})` builds a value from a term dict;
    zero coefficients are dropped.  Instances are value objects, safe to
    share across threads; every operation returns a new polynomial.  A
    value caches its term count and a re-derived bound on its coefficients
    (_tight); neither changes its terms, rows, width or hash.
    """

    __slots__ = ("_rows", "_w", "_bound", "_len")

    def __init__(self, terms: dict[Key, int] | None = None):
        terms = terms or {}
        grouped: dict[tuple[int, int], dict[int, int]] = {}
        for (e_a, e_b, e_q), c in terms.items():
            _check_ab(e_a, e_b)
            if c:
                grouped.setdefault((e_a, e_b), {})[e_q] = c
        bound = max(map(abs, terms.values()), default=0)
        w = _width(bound)
        self._rows = {}
        for key, slots in grouped.items():
            q0 = min(slots)  # so slot 0 is non-zero
            self._rows[key] = q0, sum(c << w * (e - q0) for e, c in slots.items())
        self._w, self._bound, self._len = w, bound, None

    def _rows_at(self, w: int) -> dict[tuple[int, int], Row]:
        if w == self._w:
            return self._rows
        assert w > self._w
        return {key: (q0, _reencode(x, self._w, w)) for key, (q0, x) in self._rows.items()}

    def _walk(
        self, label: Callable[[tuple[int, int]], L]
    ) -> Iterator[tuple[int, Iterator[tuple[int, L]]]]:
        """(e_q, pairs) for each q exponent of the canonical walk (module
        docstring, Printing), ascending, from the lowest q0 to the highest
        top slot, skipping the exponents no row spans: pairs yields
        (c, label(key)) for each non-zero slot at e_q, in (e_a, e_b) order.
        label is called once per row."""
        w = self._w
        joins = sorted((q0, key, x) for key, (q0, x) in self._rows.items())
        joins.append((inf, None, None))  # a sentinel past the last join
        active: list[tuple[int, int, int, Iterator[int], L]] = []  # (e_a, e_b, top, slots, label)
        i = 0
        while joins[i][0] < inf or active:
            if not active:
                q = joins[i][0]
            if joins[i][0] == q:
                while joins[i][0] == q:
                    _, key, x = joins[i]
                    cs = _slots(x, w)  # x.bit_length() // w + 1 slots
                    active.append((*key, q + len(cs) - 1, iter(cs), label(key)))
                    i += 1
                active.sort()  # the kept rows and the joining ones, two ascending runs
            labels = list(map(_LABEL, active))
            # the same rows are active up to the first top slot or the next join
            first_top = min(map(_TOP, active))
            end = min(first_top + 1, joins[i][0])
            for cs in islice(zip(*map(_SLOTS, active)), end - q):
                yield q, compress(zip(cs, labels), cs)
                q += 1
            if first_top < q:  # keep the rows whose top slot is q or above
                active = list(compress(active, map(q.__le__, map(_TOP, active))))

    def _pieces(self, form: str) -> Iterator[str]:
        """The text of `form` ("text" or "json", `_FORMS`) in pieces: the
        opening, one piece per q exponent that has terms, and the closing
        (one piece for zero).  Each term is one f-string, lead + c +
        mid.format(e_a, e_b) + tail.format(e_q), with mid formatted once per
        row and tail once per q exponent."""
        lead, mid, tail, sep, opening, closing, zero = _FORMS[form]
        if not self._rows:
            yield zero
            return
        yield opening
        before = ""  # the separator before a q exponent's first term
        for e_q, pairs in self._walk(lambda key: mid.format(*key)):
            q = tail.format(e_q)
            group = [f"{lead}{c}{row}{q}" for c, row in pairs]
            if group:
                yield before + sep.join(group)
                before = sep
        yield closing

    # ------------------------------------------------------------ queries

    def is_zero(self) -> bool:
        return not self._rows

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __len__(self) -> int:
        if self._len is None:
            slots = [_slots(x, self._w) for _, x in self._rows.values()]
            self._len = sum(len(cs) - cs.count(0) for cs in slots)
        return self._len

    def coeff(self, e_a: int, e_b: int, e_q: int) -> int:
        """Coefficient of a^e_a * b^e_b * q^e_q; 0 when the term is absent."""
        row = self._rows.get((e_a, e_b))
        if row is None or e_q < row[0]:
            return 0
        cs = _slots(row[1], self._w)
        i = e_q - row[0]
        return cs[i] if i < len(cs) else 0

    def terms(self) -> list[tuple[int, int, int, int]]:
        """Terms as (coeff, e_a, e_b, e_q), ascending in (e_q, e_a, e_b).
        One row is read slot by slot, without the walk."""
        if len(self._rows) == 1:
            ((e_a, e_b), (q0, x)), = self._rows.items()
            return [(c, e_a, e_b, e_q) for e_q, c in enumerate(_slots(x, self._w), q0) if c]
        pairs_by_q = self._walk(lambda key: key)
        return [(c, e_a, e_b, e_q) for e_q, pairs in pairs_by_q for c, (e_a, e_b) in pairs]

    # ---------------------------------------------------- ring operations

    def __add__(self, other: "TriPoly | int") -> "TriPoly":
        if (other := _operand(other)) is None:
            return NotImplemented
        if not self._rows:
            return other
        if not other._rows:
            return self
        bound = self._bound + other._bound
        w = self._w
        if w == other._w and not bound >> (w - 1):  # the sum fits the shared width
            out, rows = dict(self._rows), other._rows
        else:
            w = max(w, other._w)
            if bound >> (w - 1):  # about to widen: re-derive both bounds first
                bound = _tight(self) + _tight(other)
            w = _width(bound, w)
            out, rows = dict(self._rows_at(w)), other._rows_at(w)
        for key, (q2, x2) in rows.items():
            if key not in out:
                out[key] = q2, x2
                continue
            q1, x1 = out[key]
            if q1 < q2:
                out[key] = q1, x1 + (x2 << w * (q2 - q1))
            elif q2 < q1:
                out[key] = q2, (x1 << w * (q1 - q2)) + x2
            elif x1 + x2:
                out[key] = _canon(q1, x1 + x2, w)
            else:
                del out[key]
        return _make(out, w, bound)

    __radd__ = __add__

    def __neg__(self) -> "TriPoly":
        return _make(
            {key: (q0, -x) for key, (q0, x) in self._rows.items()}, self._w, self._bound
        )

    def __sub__(self, other: "TriPoly | int") -> "TriPoly":
        if (other := _operand(other)) is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "TriPoly | int") -> "TriPoly":
        return (-self) + other

    def __mul__(self, other: "TriPoly | int") -> "TriPoly":
        if (other := _operand(other)) is None:
            return NotImplemented
        if not self._rows or not other._rows:
            return ZERO
        floor = max(self._w, other._w)
        for mono, poly in ((self, other), (other, self)):
            if len(mono._rows) == 1:
                ((ma, mb), (mq, c)), = mono._rows.items()
                if c.bit_length() < mono._w:  # one row of one slot: c is the coefficient
                    return _times_monomial(poly, c, ma, mb, mq, floor)
        small, big = (self, other) if len(self._rows) <= len(other._rows) else (other, self)
        norm, pieces = 0, []
        for (ea, eb), (q0, x) in small._rows.items():
            row_norm, runs = _cut(x, small._w)
            norm += row_norm
            pieces += [(ea, eb, q0 + i, x_run) for i, x_run in runs]
        bound, w = _product_bound(norm, big, floor)
        if w != small._w:
            pieces = [(ea, eb, q, _reencode(x, small._w, w)) for ea, eb, q, x in pieces]
        acc: dict[tuple[int, int], list[int]] = {}
        big_rows = big._rows_at(w).items()
        for ea1, eb1, q1, x1 in pieces:
            for (ea2, eb2), (q2, x2) in big_rows:
                key = (ea1 + ea2, eb1 + eb2)
                q, x = q1 + q2, x1 * x2
                row = acc.get(key)
                if row is None:
                    acc[key] = [q, x]
                elif row[0] <= q:
                    row[1] += x << w * (q - row[0])
                else:
                    row[0], row[1] = q, (row[1] << w * (row[0] - q)) + x
        return _make({key: _canon(q, x, w) for key, (q, x) in acc.items() if x}, w, bound)

    __rmul__ = __mul__

    # ---------------------------------------------- structural operations

    def shift(self, s: int, t: int) -> "TriPoly":
        """Substitute a -> a*q^s and b -> b*q^t.

        Maps each term (c, e_a, e_b, e_q) to (c, e_a, e_b, e_q + s*e_a + t*e_b);
        a ring homomorphism, so it commutes with + and *.
        """
        return _make(
            {(ea, eb): (q0 + s * ea + t * eb, x) for (ea, eb), (q0, x) in self._rows.items()},
            self._w,
            self._bound,
        )

    def truncate(self, q_max: int) -> "TriPoly":
        """Drop every term whose q exponent exceeds q_max (q_max >= 0)."""
        if q_max < 0:
            raise ValueError(f"q_max must be >= 0, got {q_max}")
        return _times_monomial(self, 1, 0, 0, 0, q_max=q_max)

    # -------------------------------------------------------- serialization

    def to_text(self) -> str:
        """Canonical text form: "c*a^i*b^j*q^k" terms joined by " + "."""
        return "".join(self._pieces("text"))

    def to_json_terms(self) -> list[list]:
        """Canonical JSON form: [coeff-as-decimal-string, e_a, e_b, e_q] rows."""
        return [[str(c), e_a, e_b, e_q] for c, e_a, e_b, e_q in self.terms()]

    def to_json(self) -> str:
        """json.dumps(self.to_json_terms()), byte for byte, with each term
        one f-string ("[]" for zero)."""
        return "".join(self._pieces("json"))

    def write(self, out: TextIO, form: str) -> None:
        """Write `to_text()` (form "text") or `to_json()` (form "json") to
        the text stream out, one q exponent's terms at a time, so no more
        than one q exponent's strings are held at once."""
        for piece in self._pieces(form):
            out.write(piece)

    # ----------------------------------------------------------- identity

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TriPoly):
            return NotImplemented
        w = max(self._w, other._w)
        return len(self._rows) == len(other._rows) and self._rows_at(w) == other._rows_at(w)

    def __hash__(self) -> int:
        # from the canonical terms, so that it agrees with == across slot widths
        return hash(tuple(self.terms()))

    def __repr__(self) -> str:
        return f"TriPoly({self.to_text()!r})"


ZERO = TriPoly()
ONE = TriPoly({(0, 0, 0): 1})


def monomial(coeff: int, e_a: int, e_b: int, e_q: int) -> TriPoly:
    """Single-term polynomial coeff*a^e_a*b^e_b*q^e_q (zero poly when coeff is 0).

    e_q may be negative; e_a and e_b may not.
    """
    _check_ab(e_a, e_b)
    if coeff == 0:
        return ZERO
    return _make({(e_a, e_b): (e_q, coeff)}, _width(abs(coeff)), abs(coeff))
