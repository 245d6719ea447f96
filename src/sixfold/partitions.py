"""Brute-force ground truth for the two partition families.

Side A: partitions into distinct parts congruent to 1, 2, 4 or 5 mod 6;
parts in residues {1, 2} count toward the a-statistic (mu), parts in
{4, 5} toward the b-statistic (nu).

Side B: partitions in which only multiples of 6 repeat, parts two positions
apart differ by at least 6 (strictly when the upper part is a multiple of
6), and the window multiplicity caps encoded in is_valid_B hold; residues
{0, 1, 2} count toward mu and {0, 4, 5} toward nu, multiples of 6 counting
in both.

Everything here is computed by exhaustive enumeration and serves as the
oracle against which the recurrence engine is checked.  Correctness of both
oracle paths deliberately concentrates in is_valid_A / is_valid_B.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

from .poly import ONE, TriPoly, ZERO


class ClassificationError(ValueError):
    """Raised when a window's parts match no catalogued window class."""


class GeneralParams(NamedTuple):
    """Parameters (lam, k, a) of the general two-family identity."""

    lam: int
    k: int
    a: int


# The 16 admissible part subsets of a window [6i+1, 6i+6], as offsets 1..6
# in descending order.  The index in this tuple is the window class.
WINDOW_CLASSES: tuple[tuple[int, ...], ...] = (
    (),
    (1,),
    (2,),
    (2, 1),
    (4,),
    (4, 1),
    (5,),
    (5, 1),
    (5, 2),
    (5, 4),
    (6,),
    (6, 1),
    (6, 2),
    (6, 4),
    (6, 5),
    (6, 6),
)

_CLASS_OF_OFFSETS = {offsets: idx for idx, offsets in enumerate(WINDOW_CLASSES)}

# Extra multiplicity restriction sets for the two refined B-families.
B0_433 = "b0-433"
B0_533 = "b0-533"


# ------------------------------------------------------------- predicates


def is_valid_A(parts: Sequence[int]) -> bool:
    """Side-A predicate: distinct parts, each congruent to 1, 2, 4 or 5 mod 6."""
    seen = set()
    for p in parts:
        if p % 6 not in (1, 2, 4, 5) or p in seen:
            return False
        seen.add(p)
    return True


def profile_A(parts: Sequence[int]) -> tuple[int, int]:
    """(mu, nu) for side A: residues {1, 2} -> mu, {4, 5} -> nu."""
    mu = nu = 0
    for p in parts:
        r = p % 6
        if r in (1, 2):
            mu += 1
        elif r in (4, 5):
            nu += 1
    return mu, nu


def is_valid_B(parts: Sequence[int]) -> bool:
    """Side-B predicate; `parts` must be weakly decreasing.

    Holds iff: only multiples of 6 repeat; parts[i] - parts[i+2] >= 6,
    strictly when parts[i] is a multiple of 6; and for every window index j
    the multiplicity caps f(6j+3) = 0, f(6j+2) + f(6j+4) <= 1,
    f(6j+5) + f(6j+7) <= 1 and, for j >= 1,
    f(6j-1) + f(6j) + f(6j+6) + f(6j+7) <= 3 are satisfied.
    """
    if not parts:
        return True
    f: dict[int, int] = {}
    for p in parts:
        f[p] = f.get(p, 0) + 1
    for v, m in f.items():
        if m > 1 and v % 6:
            return False
    for i in range(len(parts) - 2):
        d = parts[i] - parts[i + 2]
        if d < 6 or (d == 6 and parts[i] % 6 == 0):
            return False
    g = f.get
    for j in range(parts[0] // 6 + 2):
        base = 6 * j
        if g(base + 3, 0):
            return False
        if g(base + 2, 0) + g(base + 4, 0) > 1:
            return False
        if g(base + 5, 0) + g(base + 7, 0) > 1:
            return False
        if j and g(base - 1, 0) + g(base, 0) + g(base + 6, 0) + g(base + 7, 0) > 3:
            return False
    return True


def profile_B(parts: Sequence[int]) -> tuple[int, int]:
    """(mu, nu) for side B: residues {0, 1, 2} -> mu, {0, 4, 5} -> nu."""
    mu = nu = 0
    for p in parts:
        r = p % 6
        if r <= 2:
            mu += 1
        if r == 0 or r >= 4:
            nu += 1
    return mu, nu


def window_class(window_parts: Iterable[int]) -> int:
    """Class index 0..15 of the parts lying in a single window [6i+1, 6i+6].

    Raises ClassificationError when the parts span more than one window or
    match no catalogued class (for example a part at offset 3, or three
    parts in one window).
    """
    parts = sorted(window_parts, reverse=True)
    if not parts:
        return 0
    if parts[-1] <= 0:
        raise ClassificationError(f"window parts must be positive, got {parts}")
    i = (parts[0] - 1) // 6
    if (parts[-1] - 1) // 6 != i:
        raise ClassificationError(f"parts {parts} do not lie in a single window")
    offsets = tuple(p - 6 * i for p in parts)
    cls = _CLASS_OF_OFFSETS.get(offsets)
    if cls is None:
        raise ClassificationError(f"window parts {parts} match no class")
    return cls


# ------------------------------------------------------------ count tables


class CountTable:
    """Exact partition counts keyed by (mu, nu, N)."""

    def __init__(self, entries: dict[tuple[int, int, int], int] | None = None):
        self.entries = dict(entries or {})

    def count(self, mu: int, nu: int, n: int) -> int:
        return self.entries.get((mu, nu, n), 0)

    def rows(self) -> list[tuple[int, int, int, int]]:
        """(mu, nu, N, count) rows sorted by (N, mu, nu)."""
        return [
            (mu, nu, n, self.entries[(mu, nu, n)])
            for (mu, nu, n) in sorted(self.entries, key=lambda k: (k[2], k[0], k[1]))
        ]

    def totals_by_n(self) -> dict[int, int]:
        """Counts summed over (mu, nu), keyed by N."""
        out: dict[int, int] = {}
        for (_, _, n), c in self.entries.items():
            out[n] = out.get(n, 0) + c
        return out

    def to_csv(self) -> str:
        lines = ["mu,nu,N,count"]
        lines += [f"{mu},{nu},{n},{c}" for mu, nu, n, c in self.rows()]
        return "\n".join(lines)

    def to_json_rows(self) -> list[list]:
        return [[mu, nu, n, str(c)] for mu, nu, n, c in self.rows()]

    def diff(self, other: "CountTable", limit: int = 20) -> list[str]:
        """Mismatching triples against `other`, at most `limit` lines."""
        keys = sorted(
            set(self.entries) | set(other.entries), key=lambda k: (k[2], k[0], k[1])
        )
        out = []
        for key in keys:
            lhs, rhs = self.entries.get(key, 0), other.entries.get(key, 0)
            if lhs != rhs:
                out.append(f"(mu={key[0]}, nu={key[1]}, N={key[2]}): {lhs} != {rhs}")
                if len(out) == limit:
                    break
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CountTable):
            return self.entries == other.entries
        return NotImplemented

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"CountTable({len(self.entries)} triples)"


def _search(
    max_part: int,
    n_max: int,
    valid: Callable[[list[int]], bool],
    visit: Callable[[list[int], int], None],
) -> None:
    """Depth-first search over weakly decreasing lists of positive parts.

    Calls `visit(parts, total)` on every list with parts <= max_part and sum
    total <= n_max whose every prefix passes `valid`, the empty list first.
    Larger parts are tried first.  A prefix failing `valid` cannot extend to
    a valid list, so it is pruned; `parts` is shared and mutated, so `visit`
    must not keep it.
    """
    parts: list[int] = []

    def extend(max_next: int, total: int) -> None:
        visit(parts, total)
        for p in range(min(max_next, n_max - total), 0, -1):
            parts.append(p)
            if valid(parts):
                extend(p, total + p)
            parts.pop()

    extend(max_part, 0)


def count_table(side: str, n_max: int) -> CountTable:
    """Exhaustive counts of all valid side-A or side-B partitions of N <= n_max."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    valid = is_valid_A if side == "A" else is_valid_B
    prof = profile_A if side == "A" else profile_B
    entries: dict[tuple[int, int, int], int] = {}

    def record(parts: list[int], total: int) -> None:
        key = (*prof(parts), total)
        entries[key] = entries.get(key, 0) + 1

    _search(n_max, n_max, valid, record)
    return CountTable(entries)


# --------------------------------------------------------- windowed series


@lru_cache(maxsize=32)
def _oracle_by_top_class(n: int) -> tuple[TriPoly, ...]:
    """Cumulative generating polynomials, indexed by top-window class.

    Enumerates the window-class tuples over windows 0..n (top window
    chosen first, then descending, pruning any prefix that already fails
    is_valid_B), buckets valid partitions by their top-window class and
    returns the 16 cumulative sums.
    """
    window_values = [
        tuple(tuple(off + 6 * i for off in cls) for cls in WINDOW_CLASSES)
        for i in range(n + 1)
    ]
    buckets: list[dict[tuple[int, int, int], int]] = [{} for _ in range(16)]
    parts: list[int] = []

    def descend(i: int, bucket: dict[tuple[int, int, int], int]) -> None:
        if i < 0:
            mu, nu = profile_B(parts)
            key = (mu, nu, sum(parts))
            bucket[key] = bucket.get(key, 0) + 1
            return
        values = window_values[i]
        keep = len(parts)
        for cls in range(16):
            parts.extend(values[cls])
            if is_valid_B(parts):
                descend(i - 1, bucket)
            del parts[keep:]

    for top in range(16):
        parts.extend(window_values[n][top])
        if is_valid_B(parts):
            descend(n - 1, buckets[top])
        parts.clear()

    series: list[TriPoly] = []
    acc: dict[tuple[int, int, int], int] = {}
    for cls in range(16):
        for key, c in buckets[cls].items():
            acc[key] = acc.get(key, 0) + c
        series.append(TriPoly(dict(acc)))
    return tuple(series)


def s_oracle(n: int, j: int) -> TriPoly:
    """Generating polynomial of valid side-B partitions with parts <= 6n+6
    and top-window class <= j, by exhaustive class-tuple enumeration.

    By convention the value is 1 at n == -1 and 0 below.
    """
    if not 0 <= j <= 15:
        raise ValueError(f"window class must be in 0..15, got {j}")
    if n == -1:
        return ONE
    if n < -1:
        return ZERO
    return _oracle_by_top_class(n)[j]


def s_oracle_dfs(n: int, j: int) -> TriPoly:
    """Second, independent oracle path: plain descending-part search.

    Must agree with s_oracle exactly; the two enumerations share only the
    is_valid_B predicate.
    """
    if not 0 <= j <= 15:
        raise ValueError(f"window class must be in 0..15, got {j}")
    if n == -1:
        return ONE
    if n < -1:
        return ZERO
    top_floor = 6 * n
    terms: dict[tuple[int, int, int], int] = {}

    def record(parts: list[int], total: int) -> None:
        top = tuple(p - top_floor for p in parts if p > top_floor)
        if _CLASS_OF_OFFSETS[top] <= j:
            key = (*profile_B(parts), total)
            terms[key] = terms.get(key, 0) + 1

    # Parts two apart differ by at least 6, so a valid partition with parts
    # <= 6n+6 sums to at most 6(n+1)(n+2); adding one more part keeps the
    # sum below the bound, which therefore never cuts the search.
    top_part = 6 * n + 6
    _search(top_part, top_part * (top_part + 1), is_valid_B, record)
    return TriPoly(terms)


# --------------------------------------------------------- general families


def _validate_params(gp: GeneralParams) -> None:
    if gp.lam < 1 or gp.k < 1 or gp.a < 1:
        raise ValueError(f"lam, k and a must be positive, got {gp}")


def validate_extra(gp: GeneralParams, extra: str | None) -> None:
    """Check that an extra restriction set is consistent with gp.lam."""
    if extra is None:
        return
    if extra not in (B0_433, B0_533):
        raise ValueError(f"unknown extra restriction set {extra!r}")
    required = 4 if extra == B0_433 else 5
    if gp.lam != required:
        raise ValueError(f"extra {extra!r} requires lam = {required}, got lam = {gp.lam}")


def _general_a_rules(gp: GeneralParams):
    lam, k, a = gp
    m = (2 * k - lam + 1) * (lam + 1)
    if lam % 2 == 0:
        distinct_mod = lam + 1
        r = (a - lam // 2) * (lam + 1)
        extra_ban = None
    else:
        distinct_mod = (lam + 1) // 2
        r = (2 * a - lam) * ((lam + 1) // 2)
        extra_ban = (lam + 1, 2 * lam + 2)  # (residue, modulus)
    return distinct_mod, m, {0, r % m, (-r) % m}, extra_ban


def _is_valid_general_A(parts: Sequence[int], rules) -> bool:
    distinct_mod, m, banned, extra_ban = rules
    prev = None
    for p in parts:
        if p % m in banned:
            return False
        if extra_ban is not None and p % extra_ban[1] == extra_ban[0]:
            return False
        if p == prev and p % distinct_mod:
            return False
        prev = p
    return True


_EXTRA_F_RULES = {
    # modulus, then (offsets, bound, smallest window index) triples
    B0_433: (5, (((2, 3), 1, 0), ((4, 6), 1, 0), ((-1, 0, 5, 6), 3, 1))),
    B0_533: (6, (((3,), 0, 0), ((2, 4), 1, 0), ((5, 7), 1, 0), ((-1, 0, 6, 7), 3, 1))),
}


def _is_valid_general_B(parts: Sequence[int], lam: int, k: int, a: int, extra: str | None) -> bool:
    step = lam + 1
    f: dict[int, int] = {}
    for p in parts:
        f[p] = f.get(p, 0) + 1
    for v, m in f.items():
        if m > 1 and v % step:
            return False
    gap = k - 1
    for i in range(len(parts) - gap):
        d = parts[i] - parts[i + gap]
        if d < step or (d == step and parts[i] % step == 0):
            return False
    g = f.get
    for j in range(1, (lam + 1) // 2 + 1):
        if sum(g(i, 0) for i in range(j, lam - j + 2)) > a - j:
            return False
    if sum(g(i, 0) for i in range(1, lam + 2)) > a - 1:
        return False
    if extra is not None and parts:
        modulus, rules = _EXTRA_F_RULES[extra]
        top = parts[0] // modulus + 2
        for offsets, bound, j_start in rules:
            for j in range(j_start, top):
                if sum(g(modulus * j + off, 0) for off in offsets) > bound:
                    return False
    return True


def _series_counts(n_max: int, valid: Callable[[list[int]], bool]) -> list[int]:
    counts = [0] * (n_max + 1)

    def record(parts: list[int], total: int) -> None:
        counts[total] += 1

    _search(n_max, n_max, valid, record)
    return counts


def general_A_series(gp: GeneralParams, n_max: int) -> list[int]:
    """Family-A counts for every n in 0..n_max from a single search."""
    _validate_params(gp)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    rules = _general_a_rules(gp)
    return _series_counts(n_max, lambda parts: _is_valid_general_A(parts, rules))


def general_B_series(gp: GeneralParams, n_max: int, extra: str | None = None) -> list[int]:
    """Family-B counts for every n in 0..n_max from a single search."""
    _validate_params(gp)
    validate_extra(gp, extra)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    lam, k, a = gp
    return _series_counts(n_max, lambda parts: _is_valid_general_B(parts, lam, k, a, extra))
