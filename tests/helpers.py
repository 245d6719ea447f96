"""Shared test data: reference displays, small builders, the reference
polynomial kernel, the dict-term window DP and the search references of
the enumeration paths."""

from typing import Callable

from sixfold import partitions
from sixfold.poly import ONE, ZERO, TriPoly, monomial


def poly_of(terms) -> TriPoly:
    """Build a polynomial from (coeff, e_a, e_b, e_q) tuples."""
    acc = ZERO
    for c, ea, eb, eq in terms:
        acc = acc + monomial(c, ea, eb, eq)
    return acc


# ------------------------------------------------------- reference kernel
#
# Plain dict arithmetic on {(e_a, e_b, e_q): coeff} with no zero
# coefficient stored: the kernel TriPoly used before its packed rows, kept
# here so the packed kernel is cross-checked term by term.

RefPoly = dict[tuple[int, int, int], int]


def ref_terms(p: RefPoly) -> list[tuple[int, int, int, int]]:
    """Terms as (coeff, e_a, e_b, e_q), ascending in (e_q, e_a, e_b)."""
    return [
        (c, ea, eb, eq)
        for (ea, eb, eq), c in sorted(p.items(), key=lambda kv: (kv[0][2], kv[0][0], kv[0][1]))
    ]


def ref_add(p: RefPoly, q: RefPoly) -> RefPoly:
    out = dict(p)
    for key, c in q.items():
        s = out.get(key, 0) + c
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def ref_neg(p: RefPoly) -> RefPoly:
    return {k: -c for k, c in p.items()}


def ref_mul(p: RefPoly, q: RefPoly) -> RefPoly:
    out: RefPoly = {}
    for (ea1, eb1, eq1), c1 in p.items():
        for (ea2, eb2, eq2), c2 in q.items():
            key = (ea1 + ea2, eb1 + eb2, eq1 + eq2)
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def ref_shift(p: RefPoly, s: int, t: int) -> RefPoly:
    return {(ea, eb, eq + s * ea + t * eb): c for (ea, eb, eq), c in p.items()}


def ref_truncate(p: RefPoly, q_max: int) -> RefPoly:
    return {k: c for k, c in p.items() if k[2] <= q_max}


# ------------------------------------------------- window-DP reference
#
# The side-B window transfer matrix as it was before its states held packed
# TriPoly values: every state's terms are a plain dict, summed one term at a
# time, move by move.  Its automaton is built move by move straight from
# is_valid_B, as the package built it before its window plan, so the
# cross-checks see the plan as well as the packed steps, the truncation and
# the held layer of s_oracle.

Weight = tuple[int, int, int, int]  # (mu, nu, total, size)


def window_automaton() -> tuple[tuple[int, ...], tuple[tuple[tuple[Weight, int], ...], ...]]:
    """(class of the last window, moves) per state; state 0 is the start.

    A state is the class of the last window placed together with the row
    of classes is_valid_B allows in the window above it, read with the
    parts of the previous class, the class and the next one placed at
    windows 0, 1 and 2.  moves[s] lists (weight, next state) for each next
    class in the row, its weight being the class's profile, the sum of its
    offsets and its number of parts.  Reads no part of the window plan."""
    classes = PAPER_WINDOW_CLASSES
    weights = [(*partitions.profile_B(cls), sum(cls), len(cls)) for cls in classes]
    placed = [[[off + 6 * k for off in cls] for cls in classes] for k in range(3)]
    index: dict[tuple[int, tuple[int, ...]], int] = {}
    states: list[tuple[int, tuple[int, ...]]] = []

    def state(prev: int, cls: int) -> int:
        below = placed[1][cls] + placed[0][prev]
        row = tuple(nxt for nxt, part in enumerate(placed[2]) if partitions.is_valid_B(part + below))
        if (cls, row) not in index:
            index[cls, row] = len(states)
            states.append((cls, row))
        return index[cls, row]

    state(0, 0)  # windows -2 and -1, both empty
    moves = []
    for cls, row in states:  # grows while it is walked
        moves.append(tuple((weights[nxt], state(cls, nxt)) for nxt in row))
    return tuple(cls for cls, _ in states), tuple(moves)


def ref_window_dp(windows: int, q_max: int | None = None) -> list[tuple[int, RefPoly]]:
    """(class of window windows-1, terms) per final state, over windows
    0..windows-1; terms with N > q_max are dropped as they are produced."""
    classes, moves = window_automaton()
    layer: dict[int, RefPoly] = {0: {(0, 0, 0): 1}}
    for i in range(windows):
        nxt: dict[int, RefPoly] = {}
        for s, terms in layer.items():
            for (mu, nu, total, size), t in moves[s]:
                dq = total + 6 * i * size
                out = nxt.setdefault(t, {})
                for (a, b, e), c in terms.items():
                    e += dq
                    if q_max is None or e <= q_max:
                        key = (a + mu, b + nu, e)
                        out[key] = out.get(key, 0) + c
        layer = {t: terms for t, terms in nxt.items() if terms}
    return [(classes[s], terms) for s, terms in layer.items()]


def ref_count_table_b(q_max: int) -> TriPoly:
    """count_table("B", q_max) by the dict-term window DP."""
    entries: RefPoly = {}
    for _, terms in ref_window_dp((q_max - 1) // 6 + 1, q_max):
        entries = ref_add(entries, terms)
    return TriPoly(entries)


def ref_s_oracle(n: int) -> list[TriPoly]:
    """s_oracle(n, j) for j = 0..15 (n >= 0), by the dict-term window DP."""
    buckets: list[RefPoly] = [{} for _ in range(16)]
    for cls, terms in ref_window_dp(n + 1):
        buckets[cls] = ref_add(buckets[cls], terms)
    out, acc = [], {}
    for terms in buckets:
        acc = ref_add(acc, terms)
        out.append(TriPoly(acc))
    return out


# ------------------------------------------------------ search references
#
# Exhaustive part search: every list the predicate accepts is visited, so
# the transfer matrices of the enumeration paths are cross-checked against
# plain listing.  s_oracle_dfs is the side-B window series by search; it
# shares only is_valid_B and profile_B with s_oracle, and classifies the
# top window by its own copy of the paper's class table.


def _search(
    max_part: int,
    n_max: int,
    valid: Callable[[list[int]], bool],
    visit: Callable[[list[int], int], None],
) -> None:
    """Depth-first search over weakly decreasing lists of positive parts.

    Calls `visit(parts, total)` on every list with parts <= max_part and sum
    total <= n_max whose every prefix passes `valid`, the empty list first
    (when `valid` accepts it).  Larger parts are tried first.  A prefix
    failing `valid` cannot extend to a valid list, so it is pruned; `parts`
    is shared and mutated, so `visit` must not keep it.
    """
    parts: list[int] = []
    if not valid(parts):
        return

    def extend(max_next: int, total: int) -> None:
        visit(parts, total)
        for p in range(min(max_next, n_max - total), 0, -1):
            parts.append(p)
            if valid(parts):
                extend(p, total + p)
            parts.pop()

    extend(max_part, 0)


# The paper's 16 window classes: the part subsets of one six-wide window,
# as offsets 1..6 in descending order, indexed by class.
PAPER_WINDOW_CLASSES = (
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
_CLASS_OF_OFFSETS = {offsets: idx for idx, offsets in enumerate(PAPER_WINDOW_CLASSES)}


def s_oracle_dfs(n: int, j: int) -> TriPoly:
    """s_oracle(n, j) by plain descending-part search.  Exponential in n, so
    keep n small."""
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
            key = (*partitions.profile_B(parts), total)
            terms[key] = terms.get(key, 0) + 1

    # Parts two apart differ by at least 6, so a valid partition with parts
    # <= 6n+6 sums to at most 6(n+1)(n+2); adding one more part keeps the
    # sum below the bound, which therefore never cuts the search.
    top_part = 6 * n + 6
    _search(top_part, top_part * (top_part + 1), partitions.is_valid_B, record)
    return TriPoly(terms)


def ref_is_valid_general_B(parts, lam: int, k: int, a: int, extra) -> bool:
    """partitions._is_valid_general_B with every cap checked everywhere: the
    first-window caps whatever the parts, and every extra cap at every
    window index from its smallest up to the top part."""
    step = lam + 1
    f: dict[int, int] = {}
    for p in parts:
        f[p] = f.get(p, 0) + 1
    if any(m > 1 and v % step for v, m in f.items()):
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
        _, modulus, caps = partitions._EXTRA_SETS[extra]
        for offsets, bound, j0 in caps:
            for j in range(j0, parts[0] // modulus + 2):
                if sum(g(modulus * j + off, 0) for off in offsets) > bound:
                    return False
    return True


def search_table(q_max: int, valid, profile) -> TriPoly:
    """Refined generating polynomial of the lists of parts summing to at
    most q_max that `valid` accepts, (mu, nu) read by `profile`."""
    entries: dict[tuple[int, int, int], int] = {}

    def record(parts, total):
        key = (*profile(parts), total)
        entries[key] = entries.get(key, 0) + 1

    _search(q_max, q_max, valid, record)
    return TriPoly(entries)


def search_series(n_max: int, valid) -> list[int]:
    """Number of lists `valid` accepts summing to n, for every n <= n_max."""
    counts = [0] * (n_max + 1)

    def record(parts, total):
        counts[total] += 1

    _search(n_max, n_max, valid, record)
    return counts


def search_general_series(gp, n_max: int, extra=None) -> tuple[list[int], list[int]]:
    """Family-A and family-B counts for every n <= n_max, by search."""
    rules = partitions._general_a_rules(gp)
    return (
        search_series(n_max, lambda parts: partitions._is_valid_general_A(parts, rules)),
        search_series(n_max, lambda parts: partitions._is_valid_general_B(parts, *gp, extra)),
    )


# Reference display of the level-0 class-15 series (15 terms), equal to
# (1+aq)(1+aq^2)(1+bq^4)(1+bq^5).
DISPLAY_S0_15 = poly_of(
    [
        (1, 0, 0, 0),
        (1, 1, 0, 1),
        (1, 1, 0, 2),
        (1, 2, 0, 3),
        (1, 0, 1, 4),
        (1, 1, 1, 5),
        (1, 0, 1, 5),
        (2, 1, 1, 6),
        (1, 2, 1, 7),
        (1, 1, 1, 7),
        (1, 2, 1, 8),
        (1, 0, 2, 9),
        (1, 1, 2, 10),
        (1, 1, 2, 11),
        (1, 2, 2, 12),
    ]
)

# Residual of the printed fourth-order class-15 recurrence at level 0
# (19 terms).  The printed identity claims every level n >= 0 but holds
# only from n = 1 on; at n = 0 it reduces to
#   bracket(-6) * S(0,15) == shift(p1 at level -1),
# which is false.  The residual was confirmed by exact expansion in a second
# computer-algebra system, and it is reproduced independently of the
# recurrence memo from the brute-force series s_oracle(0, 15).  See README
# known finding 2.
LEMMA3_LEVEL0_RESIDUAL = poly_of(
    [
        (1, 1, 1, 0),
        (2, 2, 1, 1),
        (2, 2, 1, 2),
        (1, 3, 1, 2),
        (2, 3, 1, 3),
        (2, 1, 2, 4),
        (1, 3, 1, 4),
        (2, 1, 2, 5),
        (2, 2, 2, 5),
        (4, 2, 2, 6),
        (2, 2, 2, 7),
        (1, 3, 2, 7),
        (1, 1, 3, 8),
        (1, 3, 2, 8),
        (2, 1, 3, 9),
        (1, 1, 3, 10),
        (1, 2, 3, 10),
        (1, 2, 3, 11),
        (1, 2, 2, 12),
    ]
)

# Commonly quoted 9-term display of the level-0 class-9 series.  It is
# short by one term: the b^2*q^9 partition {5, 4} is valid, and the J(0)=0
# identity independently forces it.  See the README identity catalogue.
DISPLAY_S0_9_SHORT = poly_of(
    [
        (1, 0, 0, 0),
        (1, 1, 0, 1),
        (1, 1, 0, 2),
        (1, 2, 0, 3),
        (1, 0, 1, 4),
        (1, 1, 1, 5),
        (1, 0, 1, 5),
        (1, 1, 1, 6),
        (1, 1, 1, 7),
    ]
)

B2_Q9 = monomial(1, 0, 2, 9)
