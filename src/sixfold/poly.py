"""Exact sparse polynomials in a, b and q with unbounded integer coefficients.

Terms are keyed by the exponent triple (e_a, e_b, e_q).  The a and b
exponents are non-negative; the q exponent is a signed integer, which the
auxiliary polynomials of the recurrence engine need at small levels.  All
arithmetic is exact: coefficients are Python ints, so overflow and rounding
are impossible.  Canonical term order is ascending (e_q, e_a, e_b).
"""

from __future__ import annotations

Key = tuple[int, int, int]  # (e_a, e_b, e_q)


class TriPoly:
    """Immutable sparse polynomial in a, b, q.

    Stored terms never carry a zero coefficient or a duplicate exponent
    key.  Instances are value objects, safe to share across threads; every
    operation returns a new polynomial.  Use monomial()/ZERO/ONE to build
    values; the constructor is internal and trusts its argument to be
    normalized already.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Key, int] | None = None):
        self._terms = terms if terms is not None else {}

    # ------------------------------------------------------------ queries

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coeff(self, e_a: int, e_b: int, e_q: int) -> int:
        """Coefficient of a^e_a * b^e_b * q^e_q; 0 when the term is absent."""
        return self._terms.get((e_a, e_b, e_q), 0)

    def terms(self) -> list[tuple[int, int, int, int]]:
        """Terms as (coeff, e_a, e_b, e_q), ascending in (e_q, e_a, e_b)."""
        return [
            (c, ea, eb, eq)
            for (ea, eb, eq), c in sorted(
                self._terms.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1])
            )
        ]

    # ---------------------------------------------------- ring operations

    def __add__(self, other: "TriPoly | int") -> "TriPoly":
        if isinstance(other, int):
            other = monomial(other, 0, 0, 0)
        if not isinstance(other, TriPoly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return TriPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "TriPoly":
        return TriPoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "TriPoly | int") -> "TriPoly":
        if isinstance(other, int):
            other = monomial(other, 0, 0, 0)
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "TriPoly | int") -> "TriPoly":
        return (-self) + other

    def __mul__(self, other: "TriPoly | int") -> "TriPoly":
        if isinstance(other, int):
            other = monomial(other, 0, 0, 0)
        if not isinstance(other, TriPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        small, big = self._terms, other._terms
        if len(small) > len(big):
            small, big = big, small
        out: dict[Key, int] = {}
        for (ea1, eb1, eq1), c1 in small.items():
            for (ea2, eb2, eq2), c2 in big.items():
                key = (ea1 + ea2, eb1 + eb2, eq1 + eq2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return TriPoly(out)

    __rmul__ = __mul__

    # ---------------------------------------------- structural operations

    def shift(self, s: int, t: int) -> "TriPoly":
        """Substitute a -> a*q^s and b -> b*q^t.

        Maps each term (c, e_a, e_b, e_q) to (c, e_a, e_b, e_q + s*e_a + t*e_b);
        a ring homomorphism, so it commutes with + and *.
        """
        return TriPoly(
            {(ea, eb, eq + s * ea + t * eb): c for (ea, eb, eq), c in self._terms.items()}
        )

    def truncate(self, q_max: int) -> "TriPoly":
        """Drop every term whose q exponent exceeds q_max (q_max >= 0)."""
        if q_max < 0:
            raise ValueError(f"q_max must be >= 0, got {q_max}")
        return TriPoly({k: c for k, c in self._terms.items() if k[2] <= q_max})

    # -------------------------------------------------------- serialization

    def to_text(self) -> str:
        """Canonical text form: "c*a^i*b^j*q^k" terms joined by " + "."""
        if not self._terms:
            return "0"
        return " + ".join(f"{c}*a^{ea}*b^{eb}*q^{eq}" for c, ea, eb, eq in self.terms())

    def to_json_terms(self) -> list[list]:
        """Canonical JSON form: [coeff-as-decimal-string, e_a, e_b, e_q] rows."""
        return [[str(c), ea, eb, eq] for c, ea, eb, eq in self.terms()]

    # ----------------------------------------------------------- identity

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TriPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"TriPoly({self.to_text()!r})"


ZERO = TriPoly()
ONE = TriPoly({(0, 0, 0): 1})


def monomial(coeff: int, e_a: int, e_b: int, e_q: int) -> TriPoly:
    """Single-term polynomial coeff*a^e_a*b^e_b*q^e_q (zero poly when coeff is 0).

    e_q may be negative; e_a and e_b may not.
    """
    if e_a < 0 or e_b < 0:
        raise ValueError(f"a and b exponents must be non-negative, got ({e_a}, {e_b})")
    if coeff == 0:
        return ZERO
    return TriPoly({(e_a, e_b, e_q): coeff})

