"""Enumerated ground truth for the two partition families.

Side A: partitions into distinct parts congruent to 1, 2, 4 or 5 mod 6;
parts in residues {1, 2} count toward the a-statistic (mu), parts in
{4, 5} toward the b-statistic (nu).

Side B: partitions in which only multiples of 6 repeat, parts two positions
apart differ by at least 6 (strictly when the upper part is a multiple of
6), and the window multiplicity caps encoded in is_valid_B hold; residues
{0, 1, 2} count toward mu and {0, 4, 5} toward nu, multiples of 6 counting
in both.

Everything here counts every valid partition, straight from the predicates,
and serves as the oracle against which the recurrence engine is checked.
The count tables and the windowed series are refined generating
polynomials (TriPoly): the coefficient of a^mu b^nu q^N is the number of
valid partitions of N with statistics (mu, nu), so each comparison with
the recurrence side is an exact residual.

Counting never lists the partitions.  One transfer-matrix engine
(_transfer; Stanley, Enumerative Combinatorics I, section 4.7) steps a
layer of states, and each kind of step reads its moves from the predicates
themselves.  A step runs target by target: the moves into a target state
place the same parts, so it takes one monomial product on the sum of the
target's sources, and each distinct source set is summed once.  The states
hold TriPoly values, whose rows are packed ints (see the poly module), so
a product or a sum costs one operation per (mu, nu) row, not work per
term, let alone per partition.  The engine is also where slot widths go
back down: it narrows each layer after every step, for every kind of step.
Side B's count table and s_oracle step over six-wide windows
(_window_targets, from is_valid_B); the window classes, the part subsets
one window admits, are enumerated from is_valid_B too (WINDOW_CLASSES), so
it is the one statement of side B.  s_oracle holds the layer of the last
level it computed and steps on from it.  Side A and the general families
step over part values (_value_dp), a state holding the multiplicities of
the last few values, each move checked by a call of is_valid_A or of a
family predicate on the parts of one short window.  Correctness of every
oracle path deliberately concentrates in the predicates; the tests
cross-check both kinds of step against a plain exhaustive search of the
same predicates.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from types import MappingProxyType
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

from .poly import ONE, TriPoly, ZERO, _times_monomial, narrow


class GeneralParams(NamedTuple):
    """Parameters (lam, k, a) of the general two-family identity."""

    lam: int
    k: int
    a: int


# Extra multiplicity restriction sets for the two refined B-families: each
# is the one parameter triple it belongs to and its caps, each cap (offsets,
# bound): for every window index j >= 0, the multiplicities of the values
# (lam+1)*j + offset sum to at most bound.  The widest cap is stated from
# j = 1, as for side B (is_valid_B); its j = 0 instance, f(lam+1) +
# f(lam+2) <= 3, always holds, since the k = 3 difference rule admits at
# most two parts among any lam+1 consecutive values.
B0_433 = "b0-433"
B0_533 = "b0-533"
_EXTRA_SETS = {
    B0_433: (GeneralParams(4, 3, 3), (((2, 3), 1), ((4, 6), 1), ((-1, 0, 5, 6), 3))),
    B0_533: (GeneralParams(5, 3, 3), (((3,), 0), ((2, 4), 1), ((5, 7), 1), ((-1, 0, 6, 7), 3))),
}
# each set's parameter triple, read-only
EXTRA_PARAMS: Mapping[str, GeneralParams] = MappingProxyType(
    {extra: gp for extra, (gp, _) in _EXTRA_SETS.items()}
)


# ------------------------------------------------------------- predicates


def is_valid_A(parts: Sequence[int]) -> bool:
    """Side-A predicate: distinct parts, each congruent to 1, 2, 4 or 5 mod 6.

    Both rules bound the multiplicity of one value, so the predicate is
    local to windows of one value."""
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


def _window_classes(window: int) -> tuple[tuple[int, ...], ...]:
    """The part subsets of the window [6w+1, 6w+6], w = window, that
    is_valid_B admits on their own, as offsets 1..6 in descending order,
    sorted.

    The lists grow from the empty one a part at a time, each new part no
    larger than the last, and each list is_valid_B accepts is kept and
    grown.  A list without its smallest part is a run of it, and a run of a
    valid list is valid (see _window_targets), so every admitted subset is
    reached through admitted ones.  Lists stop growing at six parts, so the
    growth ends whatever is_valid_B accepts; its two-apart rule stops them
    at two.
    """
    found, grow = [], [()]
    while grow:
        offsets = grow.pop()
        found.append(offsets)
        for off in range(offsets[-1] if offsets else 6, 0, -1):
            if len(offsets) < 6 and is_valid_B([o + 6 * window for o in (*offsets, off)]):
                grow.append((*offsets, off))
    return tuple(sorted(found))


# The window classes: a class is an index into this tuple.  Sorted, the
# subsets come in the paper's class order, (), (1,), (2,), (2, 1), ...,
# (6, 5), (6, 6).
WINDOW_CLASSES = _window_classes(0)


# ------------------------------------------------------------ count tables


# (target, mu, nu, dq, base, extras): see _transfer
_Target = tuple[Hashable, int, int, int, int | None, Sequence[Hashable]]


def _transfer(
    layer: dict[Hashable, TriPoly], targets: Sequence[_Target], q_max: int | None = None
) -> dict[Hashable, TriPoly]:
    """The layer after one step from `layer`, the step given by its `targets`.

    A layer maps each state to a TriPoly value.  A transfer matrix whose
    moves into a state t all place the same parts factors as D * A: A is
    the 0/1 adjacency of the states, and D is diagonal, with t's one weight
    a^mu b^nu q^dq.  So the next layer is next[t] = a^mu b^nu q^dq times the
    sum of the values of t's sources, one product per target, and targets
    that share their sources, or most of them, can share their sums.

    A step is therefore given by its targets, in order, each as
    (t, mu, nu, dq, base, extras): t's weight and its source sum, which is
    the source sum of the earlier target at position `base` of the list (or
    zero when base is None) plus the values of the states `extras`, those
    missing from the layer skipped.  Each source sum is built once, and
    read by the targets that name it as their base; it is dropped after the
    last of them, and a sum that no later target reads is never kept, so a
    step holds only the sums still to be read.  A target with dq = 0
    passes its sum on as it is; it places no part, so mu = nu = 0.  With a
    bound q_max, a target with dq > q_max is dropped, its source sum still
    built for the targets that build on it, and the sum is truncated to
    q^(q_max - dq) before the product, so no term above q_max is ever built
    from a layer that has none.  The product re-keys the packed rows of the
    sum (poly._times_monomial), so it costs time in proportion to the rows,
    not to the terms, and builds no monomial to multiply by.  A target may
    appear more than once, with a different weight each time (the value
    steps of span 1 do so); its terms are summed.  Zero terms are skipped:
    a state that only they reach is left out of the next layer.

    After the step the layer is narrowed as one group (poly.narrow): its
    values are summed together at the next step, so they share the
    narrowest width that holds the sum of their bounds, and no sum of the
    next step widens them one term at a time.  Sums and products never
    narrow, so without this a layer keeps the widest slots its values ever
    needed, many times wider than its coefficients (poly module docstring,
    Narrowing).
    """
    nxt: dict[Hashable, TriPoly] = {}
    last = {target[4]: i for i, target in enumerate(targets)}  # each base's last reader
    sums: dict[int, TriPoly] = {}
    for i, (t, mu, nu, dq, base, extras) in enumerate(targets):
        term = ZERO if base is None else sums[base] if last[base] > i else sums.pop(base)
        for s in extras:
            if s in layer:
                term = term + layer[s] if term else layer[s]
        if i in last:
            sums[i] = term
        if dq:
            if q_max is not None:
                if dq > q_max:
                    continue
                term = term.truncate(q_max - dq)
            term = _times_monomial(term, 1, mu, nu, dq)
        if term:
            nxt[t] = nxt[t] + term if t in nxt else term
    return dict(zip(nxt, narrow(*nxt.values())))


# The most states _value_dp may visit, summed over its value steps.  The
# runs that reach it are those whose layers grow to tens of thousands of
# states, and these cost 22-34 us a visited state over the run (measured
# on a 2-core machine, in-process: lam = k = a = 20 at n = 70 visits
# 737,850 states in 16.5-18.8 s, 99 at n = 50 979,491 in 24.6-25.8 s, and
# 99999 at n = 60 passes the budget at value 42 after 67 s), so a run
# that passes 2,000,000 states has run for 44-68 s, about the 60 s of a
# desk run.  The budget bounds the number of states, not the size of the
# series they carry: at n = 2,000 the seven default general cases visit
# 8,000-43,000 states, and the count tables at q = 1,000 1,000-1,900,
# where the time goes into the polynomials.
_STATE_BUDGET = 2_000_000


def _value_dp(
    n_max: int,
    span: int,
    valid: Callable[[list[int]], bool],
    weight: Callable[[int], tuple[int, int]],
    period: int | None = None,
) -> TriPoly:
    """Generating polynomial of the weakly decreasing lists of positive parts
    summing to at most n_max that `valid` accepts, by the transfer-matrix
    method over part values: each copy of a part v weighs a^mu b^nu q^v, with
    (mu, nu) = weight(v).

    `valid` must be local to `span` consecutive values: a list passes
    exactly when, for every v, its parts in [v - span + 1, v] pass.  A state
    is then the multiplicities of the last span - 1 values, which is all the
    future depends on.  Value v steps each state to m = 0, 1, ... copies of
    v for as long as m*v <= n_max and `valid` accepts the window's parts at
    their true values.  The window holding m copies of v is a run of the one
    holding m + 1, so the first rejection ends the step, and m = 0 needs no
    call: its window is a run of the one accepted at v - 1 (or empty).  A
    window reaching above n_max holds the parts of the one ending at n_max,
    so the windows ending at 1..n_max are all there is to check, and one
    wider than n_max values holds every part up to its top, so span is cut
    to n_max: a state has fewer than n_max entries, whatever `valid`.

    Each value is one step, run with the bound n_max (see _transfer).
    A move into the target (*state[1:], m) places m copies of v, so the
    target has one weight, and a state accepts m copies exactly when it
    accepts at least m.  So the sources of (rest, m + 1) are among those of
    (rest, m): the targets of one rest come from the largest m down, each
    building on the sum of the one before and adding the states whose most
    copies are m, so each state is added once.  At span 1 a state keeps no
    multiplicities, and every m moves into the one state (), which takes
    one term per m on the sum of the one value.  The empty list is counted
    only when `valid` accepts it; when it does not, no list is valid, since
    adding parts only makes a constraint worse, and the result is zero.

    With a `period`, `valid` must keep its verdict on a window whose parts
    all exceed `period` when they all move up by `period`.  At v > period,
    a state with no part at or below period has its most copies of v
    recorded under (state, v mod period) and read back, capped at
    n_max // v, at the higher values that meet the key, without a call: a
    count below its value's cap is exact, and the cap only shrinks as v
    grows.

    A run that visits more than _STATE_BUDGET states, summed over its
    value steps, raises ValueError.
    """
    if not valid([]):
        return ZERO
    span = max(1, min(span, n_max))
    layer = {(0,) * (span - 1): ONE}
    accepted: dict[int, dict[tuple[int, ...], int]] = {}  # v mod period -> state -> most
    visited = 0
    for v in range(1, n_max + 1):
        visited += len(layer)
        if visited > _STATE_BUDGET:
            raise ValueError(
                f"n_max={n_max} is out of reach: the value DP has visited {visited} states"
                f" by value {v}, past its budget of {_STATE_BUDGET}"
            )
        mu, nu = weight(v)
        # the states by their last span - 2 entries, then by the most copies
        # of v they accept
        chains: dict[tuple[int, ...], dict[int, list[tuple[int, ...]]]] = {}
        top = n_max // v
        # a state whose first `cut` entries, the values <= period, are empty
        # has the verdicts of its key one period down and up
        memo = accepted.setdefault(v % period, {}) if period and v > period else None
        cut = max(0, period + span - v) if period else 0
        for state in layer:
            shared = memo is not None and not any(state[:cut])
            if shared and state in memo:
                most = min(memo[state], top)
            else:
                # the window's parts below v, descending, at their true values
                parts = [v - span + 1 + i for i in range(span - 2, -1, -1) for _ in range(state[i])]
                most = 0
                while most < top:
                    parts.insert(0, v)
                    if not valid(parts):
                        break
                    most += 1
                if shared:
                    memo[state] = most
            chains.setdefault(state[1:], {}).setdefault(most, []).append(state)
        targets: list[_Target] = []
        for rest, by_most in chains.items():
            base = None
            for m in range(max(by_most), -1, -1):
                t = (*rest, m) if span > 1 else ()
                targets.append((t, m * mu, m * nu, m * v, base, by_most.get(m, ())))
                base = len(targets) - 1
        layer = _transfer(layer, targets, n_max)
    return sum(layer.values(), ZERO)


def count_table(side: str, n_max: int) -> TriPoly:
    """Refined generating polynomial of the valid side-A or side-B
    partitions of N <= n_max: the coefficient of a^mu b^nu q^N counts
    those of size N with statistics (mu, nu).

    Side A is counted by the transfer matrix over part values (see
    _value_dp), its steps read from is_valid_A on one value at a time;
    side B by the window steps (see _window_targets) over the windows that
    hold parts <= n_max.
    """
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if side == "A":
        # is_valid_A bounds each value's multiplicity on its own: span 1
        return _value_dp(n_max, 1, is_valid_A, lambda v: profile_A([v]))
    layer = {0: ONE}
    for i in range((n_max - 1) // 6 + 1):
        layer = _transfer(layer, _window_targets(i), n_max)
    return sum(layer.values(), ZERO)


# --------------------------------------------------------- windowed series


_Weight = tuple[int, int, int, int]  # (mu, nu, total, size)


@lru_cache(maxsize=None)
def _window_plan() -> tuple[
    tuple[int, ...], tuple[tuple[int, _Weight, int | None, tuple[int, ...]], ...]
]:
    """(class of the last window per state, the targets of a window step);
    state 0 is the start.

    A state is the class c of the last window placed together with the row
    of classes allowed in the window above it, which is all the future
    depends on; the (previous class, class) pairs sharing a row merge into
    one state.  The row of a pair is read from is_valid_B when the pair is
    entered: the classes nxt for which it accepts the parts of prev, cls
    and nxt placed at windows 0, 1 and 2 (_window_targets says why windows
    0..2 stand for every position).  Each state's sources, the states that
    move into it, are recorded as it is entered.

    The targets are (t, weight, base, extras) in the order _transfer builds
    them.  Every move into t places t's class, so t has one weight (mu, nu,
    total, size): the class's profile, the sum of its offsets and its
    number of parts; placed at window i, its parts sum to total + 6*i*size.
    The targets come in order of their source sets, smallest first, and the
    first target of each distinct set builds its sum from the largest set
    already built that it contains (its base), adding the states it lacks
    (extras); a target whose set is built already reads that sum and adds
    nothing.  The 17 targets have 10 distinct source sets, and they nest
    almost as prefixes of the state order, so a window step reads 21 values
    of the layer and makes 19 sums.

    The classes are the subsets is_valid_B admits at window 0, and the
    rows are read at windows 0..2; both stand for every position only if
    is_valid_B judges windows 0 and 1 alike.  So the build checks that
    window 1 admits the same classes as window 0, and that the class pairs
    it accepts at windows 0..1 are the pairs it accepts at windows 1..2.
    Those are the rows of the states entered from the start, whose windows
    below are empty.  Either difference raises ValueError.  Built on first
    use, from 16 calls of is_valid_B for the start and for each of the 165
    moves, 2656, and 307 for the check, 51 for the classes of window 1 and
    256 for the pairs: 2963 in all.
    """
    weights = [(*profile_B(cls), sum(cls), len(cls)) for cls in WINDOW_CLASSES]
    placed = [[[off + 6 * k for off in cls] for cls in WINDOW_CLASSES] for k in range(3)]
    index: dict[tuple[int, tuple[int, ...]], int] = {}
    states: list[tuple[int, tuple[int, ...]]] = []
    sources: list[set[int]] = []

    def admitted(k: int, below: list[int]) -> tuple[int, ...]:
        """The classes nxt for which is_valid_B accepts nxt at window k on `below`."""
        return tuple(nxt for nxt, part in enumerate(placed[k]) if is_valid_B(part + below))

    def enter(prev: int, cls: int) -> set[int]:
        """The sources of the state of the pair (prev, cls), added if new."""
        key = (cls, admitted(2, placed[1][cls] + placed[0][prev]))
        if key not in index:
            index[key] = len(states)
            states.append(key)
            sources.append(set())
        return sources[index[key]]

    enter(0, 0)  # windows -2 and -1, both empty
    for s, (cls, row) in enumerate(states):  # grows while it is walked
        for nxt in row:
            enter(cls, nxt).add(s)
    pairs_01 = {(cls, nxt) for cls, below in enumerate(placed[0]) for nxt in admitted(1, below)}
    pairs_12 = {(cls, nxt) for (cls, row), src in zip(states, sources) if 0 in src for nxt in row}
    if _window_classes(1) != WINDOW_CLASSES or pairs_01 != pairs_12:
        raise ValueError("is_valid_B judges windows 0 and 1 differently")
    built: dict[frozenset[int], int] = {}  # source set -> position of its sum
    plan = []
    for t in sorted(range(len(states)), key=lambda t: (len(sources[t]), sorted(sources[t]))):
        below = max((b for b in built if b <= sources[t]), key=len, default=frozenset())
        extras = tuple(sorted(sources[t] - below))
        plan.append((t, weights[states[t][0]], built.get(below), extras))
        built.setdefault(frozenset(sources[t]), len(plan) - 1)
    return tuple(cls for cls, _ in states), tuple(plan)


def _window_targets(i: int) -> list[_Target]:
    """The side-B transfer step at window i, as its targets (see _transfer),
    read off the window plan (_window_plan).

    A layer before window i maps each state to the generating polynomial
    of the valid side-B partitions with parts in windows 0..i-1 that end in
    it, and _transfer takes it to the same map after window i; the layer
    {0: ONE} before window 0 is the empty partition.  At window i, a target
    state t has its class's profile as (mu, nu) and the sum of the class's
    parts placed at window i as dq.

    Soundness: a partition is valid exactly when every three consecutive
    windows of it are, and is_valid_B judges three classes placed at windows
    i..i+2 as it judges them at windows 0..2, where the plan reads its
    rows, because every constraint of is_valid_B is local:

    * the parts in a window [6i+1, 6i+6] of a valid partition are a run of
      it, so is_valid_B admits them on their own, and they are one of the
      WINDOW_CLASSES by construction (at most 2 parts: three would differ
      by at most 5);
    * a repeated part is a single value;
    * the two-apart difference rule fails only on parts[i] - parts[i+2] <= 6,
      so the three parts involved span at most 2 adjacent windows;
    * f(6j+3), f(6j+2)+f(6j+4) and f(6j+5)+f(6j+7) span at most 2
      windows; the widest cap, f(6j-1)+f(6j)+f(6j+6)+f(6j+7), spans the 3
      windows j-1, j and j+1;
    * the caps repeat every 6, so shifting every part by 6 keeps the
      verdict of is_valid_B: it skips the j = 0 instance of the widest cap,
      f(6)+f(7) <= 3, and that one can never fail, since the two-apart rule
      allows at most two 6s and 7 cannot repeat.

    A slice of three consecutive windows is a contiguous run of the sorted
    parts, so every violated constraint shows in the slice holding its
    windows, and a slice that fails fails in the whole partition too.  The
    start state stands for two empty windows below window 0, so the first
    two steps check windows 0 and 0..1 on their own.  The plan is
    read only from is_valid_B and profile_B, WINDOW_CLASSES included.
    """
    _, plan = _window_plan()
    return [
        (t, mu, nu, total + 6 * i * size, base, extras)
        for t, (mu, nu, total, size), base, extras in plan
    ]


# (level n, window-step layer after window n, the cumulative series by
# top-window class, one per class).  _START is level -1, before window 0,
# with the empty partition as its layer and no series: s_oracle answers
# level -1 without the record; _held is the record s_oracle computed last.
_START: tuple[int, dict[int, TriPoly], tuple[TriPoly, ...]] = (-1, {0: ONE}, ())
_held = _START


def s_oracle(n: int, j: int) -> TriPoly:
    """Generating polynomial of valid side-B partitions with parts <= 6n+6
    and top-window class <= j, by the window steps (_window_targets).

    For n >= 0 the window transfer matrix steps on from the held layer
    when it is at level n or below, and from window 0 otherwise; the final
    states are bucketed by the class of window n, and the new layer is held
    with its cumulative sums, one per class, in place of the old record.
    So the same level again costs nothing, a higher one only the windows
    between, and a lower one a restart from window 0.  Levels 0..10 in
    turn take about 0.05-0.08 s in all and 0..14 about 0.35-0.56 s.

    The engine narrows the layer after each window, so the held layer sits
    at the narrowest width that holds the sum of its bounds, and the
    series, its cumulative sums, widen past it only if their re-derived
    bounds need to (see the poly module).  Tracked bounds grow about
    3.4 bits a level against the coefficients' 3: by them alone, level 10
    was held mostly in 64-bit slots for coefficients of at most 26 bits,
    and level 18 partly in 128-bit slots for 51 bits.

    By convention the value is 1 at n == -1 and 0 below; neither touches
    the held record.
    """
    global _held
    if not 0 <= j < len(WINDOW_CLASSES):
        raise ValueError(f"window class must be in 0..{len(WINDOW_CLASSES) - 1}, got {j}")
    if n == -1:
        return ONE
    if n < -1:
        return ZERO
    level, layer, series = _held
    if level != n:
        if level > n:
            level, layer, _ = _START
        for i in range(level + 1, n + 1):
            layer = _transfer(layer, _window_targets(i))
        classes, _ = _window_plan()
        buckets = [ZERO] * len(WINDOW_CLASSES)
        for s, value in layer.items():
            buckets[classes[s]] = buckets[classes[s]] + value
        series = tuple(accumulate(buckets))
        _held = (n, layer, series)
    return series[j]


# --------------------------------------------------------- general families


def validate_case(gp: GeneralParams, extra: str | None) -> None:
    """Check that an extra restriction set (if any) belongs to the
    parameters gp, then that lam, k and a are positive."""
    if extra is not None:
        if extra not in EXTRA_PARAMS:
            raise ValueError(f"unknown extra restriction set {extra!r}")
        if gp != EXTRA_PARAMS[extra]:
            lam, k, a = EXTRA_PARAMS[extra]
            raise ValueError(f"extra {extra!r} requires lam={lam} k={k} a={a}, got {gp}")
    if gp.lam < 1 or gp.k < 1 or gp.a < 1:
        raise ValueError(f"lam, k and a must be positive, got {gp}")


def _general_a_rules(gp: GeneralParams):
    """(distinct_mod, m, banned) of family A at gp: no part repeats off the
    multiples of distinct_mod, and no part's residue mod m is banned.
    banned is the set {0, r, -r} mod m and a range of residues, empty for
    even lam.  For odd lam the range bans the parts = lam+1 mod 2(lam+1):
    m is then a multiple of 2(lam+1), since 2k - lam + 1 is even, so those
    are the residues lam+1, 3(lam+1), ... mod m.  A range, unlike a set,
    does not grow with k."""
    lam, k, a = gp
    m = (2 * k - lam + 1) * (lam + 1)
    if m <= 0:
        raise ValueError(f"family A needs (2k - lam + 1)(lam + 1) > 0, got {m} for {gp}")
    if lam % 2 == 0:
        distinct_mod = lam + 1
        r = (a - lam // 2) * (lam + 1)
        odd_ban = range(0)
    else:
        distinct_mod = (lam + 1) // 2
        r = (2 * a - lam) * distinct_mod
        odd_ban = range(lam + 1, m, 2 * lam + 2)
    return distinct_mod, m, ({0, r % m, -r % m}, odd_ban)


def _is_valid_general_A(parts: Sequence[int], rules) -> bool:
    """Family-A predicate for the rules of _general_a_rules; `parts` must be
    weakly decreasing.  Every rule (a banned residue, or no repeat off the
    multiples of distinct_mod) bounds the multiplicity of one value, so a
    list is valid exactly when each of its values is: the predicate is
    local to windows of one value."""
    distinct_mod, m, (residues, odd_ban) = rules
    prev = None
    for p in parts:
        if p % m in residues or p % m in odd_ban:
            return False
        if p == prev and p % distinct_mod:
            return False
        prev = p
    return True


def _is_valid_general_B(parts: Sequence[int], lam: int, k: int, a: int, extra: str | None) -> bool:
    """Family-B predicate; `parts` must be weakly decreasing.

    Holds iff: only multiples of lam+1 repeat; parts[i] - parts[i+k-1] >=
    lam+1, strictly when parts[i] is a multiple of lam+1; the first-window
    caps f(j) + ... + f(lam+1-j) <= a - j for 1 <= j <= (lam+1)/2 and
    f(1) + ... + f(lam+1) <= a - 1 hold; and, with `extra`, every cap of
    the extra set holds (_EXTRA_SETS).

    Locality: every constraint is an upper bound on the multiplicities over
    a fixed set of values, or the (k-1)-apart difference rule.  The parts in
    a run of consecutive values are a run of the list, and the difference
    rule holds on a list only if it holds on each of its runs, so either
    kind only gets worse as parts are added.  A violated difference rule
    involves parts at most lam+1 apart, so it spans at most lam+2 values; a
    first-window cap spans at most lam+1, and an extra cap
    max(offsets) - min(offsets) + 1 (9 for b0-533).  So a list is valid
    exactly when its parts in every window of span consecutive values are
    (_general_b_window).

    Reach: a cap whose values all lie outside [parts[-1], parts[0]] sums
    to 0, so it fails only if its bound is negative:

    * the first-window caps reach only values 1..lam+1.  a - j < 0 for some
      j exactly when a < (lam+1)//2 (the largest j; a - 1 is no smaller),
      and such a triple rejects every list, the empty one included.  Else
      they are checked only when parts[-1] <= lam+1, the nested intervals
      [j, lam+1-j] at once: the i-th deepest part, of depth d =
      min(p, lam+1-p), breaks the cap at j = d exactly when i + d > a;
    * an extra cap at window index j holds the values (lam+1)*j + off, so
      none above floor((parts[0] - min(offsets)) / (lam+1)) reaches the
      parts, and every extra bound is >= 0: each extra cap is checked from
      j = 0 up to that one.

    So a call costs time in proportion to its parts plus, with extra caps,
    its top part over lam+1.  The value DP asks only windows whose top
    part is below span + 2(lam+1) (see Period), so its calls cost the same
    at every n.

    Period: above lam+1 no first-window cap reaches a part, and the repeat
    rule, the difference rule and the extra caps repeat every lam+1
    values, so moving every part of such a list up by lam+1 keeps its
    verdict.  The moved list meets the extra caps at j >= 0 as the list
    meets them at j >= -1, and at j = -1 a cap holds values at most
    max(offsets) - (lam+1) <= lam+1, which no part reaches: every extra
    cap has max(offsets) <= 2(lam+1).  The value DP reuses verdicts on
    such lists (_value_dp, period lam+1): from value span + lam+1 on,
    every window lies above lam+1, so after one period of such values
    every verdict is read back.  A change that breaks the period
    therefore shows only in the first period; the tests of the period and
    of the DP with and without it catch that.
    """
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
    if a < (lam + 1) // 2:  # a - j < 0 at the last j
        return False
    if parts and parts[-1] <= step:
        first_window = [p for p in parts if p <= step]
        if len(first_window) > a - 1:
            return False
        depths = sorted((min(p, step - p) for p in first_window), reverse=True)
        if any(i + d > a for i, d in enumerate(depths, 1)):
            return False
    top = parts[0] if parts else 0
    for offsets, bound in _EXTRA_SETS[extra][1] if extra is not None else ():
        for j in range((top - min(offsets)) // step + 1):
            if sum(f.get(step * j + off, 0) for off in offsets) > bound:
                return False
    return True


def _general_b_window(lam: int, extra: str | None) -> int:
    """The span of the family-B predicate (see _is_valid_general_B): the
    values a constraint can span, lam + 2 for the difference rule and the
    first-window caps, widened to the widest extra cap."""
    caps = _EXTRA_SETS[extra][1] if extra is not None else ()
    return max((lam + 2, *(max(offsets) - min(offsets) + 1 for offsets, _ in caps)))


def _series(
    n_max: int, span: int, valid: Callable[[list[int]], bool], period: int | None = None
) -> list[int]:
    """Counts of the lists `valid` accepts, for every n in 0..n_max."""
    counts = [0] * (n_max + 1)
    for c, _, _, n in _value_dp(n_max, span, valid, lambda v: (0, 0), period).terms():
        counts[n] = c
    return counts


def general_A_series(gp: GeneralParams, n_max: int) -> list[int]:
    """Family-A counts for every n in 0..n_max, by the transfer matrix over
    part values; every family-A rule bounds one value (span 1).  Raises
    ValueError unless the modulus of the banned residues,
    (2k - lam + 1)(lam + 1), is positive."""
    validate_case(gp, None)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    rules = _general_a_rules(gp)
    return _series(n_max, 1, lambda parts: _is_valid_general_A(parts, rules))


def general_B_series(gp: GeneralParams, n_max: int, extra: str | None = None) -> list[int]:
    """Family-B counts for every n in 0..n_max, by the transfer matrix over
    part values with windows of span values (see _is_valid_general_B for
    why they suffice, span from _general_b_window), each window's verdict
    reused one period, lam + 1 values, up."""
    validate_case(gp, extra)
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    lam, k, a = gp
    span = _general_b_window(lam, extra)
    return _series(n_max, span, lambda parts: _is_valid_general_B(parts, lam, k, a, extra), lam + 1)
