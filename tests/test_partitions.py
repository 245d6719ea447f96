import hashlib
from itertools import accumulate, combinations_with_replacement, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    B2_Q9,
    DISPLAY_S0_9_SHORT,
    DISPLAY_S0_15,
    PAPER_WINDOW_CLASSES,
    ref_add,
    ref_count_table_b,
    ref_is_valid_general_B,
    ref_mul,
    ref_s_oracle,
    ref_truncate,
    s_oracle_dfs,
    search_general_series,
    search_table,
    window_automaton,
)
from sixfold import partitions
from sixfold.partitions import (
    B0_433,
    B0_533,
    EXTRA_PARAMS,
    GeneralParams,
    WINDOW_CLASSES,
    count_table,
    general_A_series,
    general_B_series,
    is_valid_A,
    is_valid_B,
    profile_A,
    profile_B,
    s_oracle,
)
from sixfold.poly import ONE, TriPoly
from sixfold.verify import DEFAULT_GENERAL_CASES


# ----------------------------------------------------------- side A


def test_is_valid_A_accepts_distinct_allowed_residues():
    assert is_valid_A([5, 4, 1])
    assert is_valid_A([4, 2])
    assert is_valid_A([])


def test_is_valid_A_rejects_residue_3_and_repeats():
    assert not is_valid_A([3])
    assert not is_valid_A([2, 2])
    assert not is_valid_A([6])
    assert not is_valid_A([9, 1])


def test_profile_A():
    assert profile_A([5, 4, 1]) == (1, 2)
    assert profile_A([4, 2]) == (1, 1)
    assert profile_A([]) == (0, 0)


# ----------------------------------------------------------- side B


def test_is_valid_B_examples():
    assert is_valid_B([6, 6])
    assert not is_valid_B([4, 2])  # f2 + f4 = 2
    assert not is_valid_B([12, 6, 6])  # 12 - 6 = 6 not strict though 6 | 12
    assert is_valid_B([13, 6, 6])
    assert not is_valid_B([5, 5])
    assert not is_valid_B([9])
    assert is_valid_B([5, 4])


def test_is_valid_B_two_apart_difference():
    assert not is_valid_B([7, 5, 2])  # 7 - 2 = 5 < 6
    assert is_valid_B([8, 5, 2])  # 8 - 2 = 6, 8 not a multiple of 6


def test_is_valid_B_cross_window_caps():
    assert not is_valid_B([7, 5])  # f5 + f7 = 2
    assert not is_valid_B([13, 11])  # f11 + f13 = 2
    assert not is_valid_B([10, 8])  # f8 + f10 = 2
    # f5 + f6 + f12 + f13 <= 3: all four present is the minimal violation
    assert not is_valid_B([13, 12, 6, 5])
    assert is_valid_B([13, 6, 6])  # f5+f6+f12+f13 = 3 exactly


# Part lists <= 60: arbitrary ones, and ones built from a class per window
# 0..9, which pass is_valid_B far more often.
_PART_LISTS = st.one_of(
    st.lists(st.integers(min_value=1, max_value=60), max_size=8),
    st.lists(st.integers(min_value=0, max_value=15), max_size=10).map(
        lambda classes: [
            off + 6 * i for i, c in enumerate(classes) for off in WINDOW_CLASSES[c]
        ]
    ),
).map(lambda values: sorted(values, reverse=True))


@given(_PART_LISTS)
def test_is_valid_B_is_local_to_three_windows(parts):
    top = (parts[0] - 1) // 6 if parts else 0
    slices = [
        [p for p in parts if i <= (p - 1) // 6 <= i + 2] for i in range(max(top - 1, 1))
    ]
    assert is_valid_B(parts) == all(is_valid_B(s) for s in slices)


def test_is_valid_B_is_the_same_at_every_window_position():
    # _window_plan reads its rows at windows 0..2: every triple of
    # classes placed there is judged the same after a shift by 6i.
    for triple in product(range(16), repeat=3):
        parts = [off + 6 * k for k in (2, 1, 0) for off in WINDOW_CLASSES[triple[k]]]
        verdict = is_valid_B(parts)
        for i in range(1, 11):
            assert is_valid_B([p + 6 * i for p in parts]) == verdict, (parts, i)


@pytest.mark.parametrize("window", [0, 1, 2])
def test_window_classes_are_what_one_window_admits(window):
    # up to 3 offsets, so that "a window holds at most 2 parts" is checked too
    admitted = {
        offsets
        for size in range(4)
        for offsets in combinations_with_replacement(range(6, 0, -1), size)
        if is_valid_B([off + 6 * window for off in offsets])
    }
    assert admitted == set(WINDOW_CLASSES)


def test_window_classes_are_the_papers_table_in_its_order():
    assert WINDOW_CLASSES == (
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
    assert WINDOW_CLASSES == PAPER_WINDOW_CLASSES


def test_window_classes_stop_growing_whatever_the_predicate_accepts(monkeypatch):
    # every descending list of at most six offsets: C(6 + 6, 6) = 924
    monkeypatch.setattr(partitions, "is_valid_B", lambda parts: True)
    classes = partitions._window_classes(0)
    assert len(classes) == 924 == len(set(classes))
    assert max(map(len, classes)) == 6


@pytest.mark.parametrize(
    "extra",
    [
        [7, 5],  # f(5) + f(7) <= 1 not checked at j = 0: pairs differ
        [10, 8],  # f(8) + f(10) <= 1 not checked at j = 1: window 1 admits (4, 2)
    ],
)
def test_window_automaton_rejects_a_predicate_that_moves_with_the_window(monkeypatch, extra):
    valid = partitions.is_valid_B
    monkeypatch.setattr(partitions, "is_valid_B", lambda parts: valid(parts) or parts == extra)
    with pytest.raises(ValueError, match="is_valid_B judges windows 0 and 1 differently"):
        partitions._window_plan.__wrapped__()


def test_window_plan_asks_is_valid_B_2963_times(monkeypatch):
    # 16 for the start and 16 for each of the 165 moves, then 51 for the
    # classes of window 1 and 256 for the pairs of windows 0..1
    valid, calls = partitions.is_valid_B, []
    monkeypatch.setattr(partitions, "is_valid_B", lambda parts: calls.append(1) or valid(parts))
    partitions._window_plan.__wrapped__()
    assert len(calls) == 2963


def test_window_automaton_is_pinned():
    # the reference automaton, built from is_valid_B apart from the plan:
    # its states, their order and their moves
    automaton = window_automaton()
    classes, moves = automaton
    assert len(classes) == 17
    assert sum(map(len, moves)) == 165
    assert (
        hashlib.sha256(repr(automaton).encode()).hexdigest()
        == "1bf3574f941263c339d71b06c4df3359148155c9c6c1ec90e6cce18528d46ed1"
    )


def test_profile_B():
    assert profile_B([6]) == (1, 1)
    assert profile_B([5, 2]) == (1, 1)
    assert profile_B([]) == (0, 0)
    assert profile_B([12, 6, 5, 1]) == (3, 3)


# ---------------------------------------------------- transfer engine


@st.composite
def _transfer_cases(draw):
    """(layer, steps, q_max) over states 0..3: the layer as dict terms
    within q_max, and each step as its targets (t, mu, nu, dq, base, extras),
    dq running past q_max, mu = nu = 0 wherever dq = 0, base an earlier
    position or None, and extras distinct states, some of them missing from
    the layer.  A state may be the target of several entries, with different
    weights, as at the value steps of span 1."""
    q_max = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=6)))
    top = 6 if q_max is None else q_max
    states = st.integers(min_value=0, max_value=3)
    exponents = st.integers(min_value=0, max_value=2)
    value = st.dictionaries(
        st.tuples(exponents, exponents, st.integers(min_value=0, max_value=top)),
        st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=4,
    )
    layer = draw(st.dictionaries(states, value, min_size=1, max_size=4))
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        step = []
        for i in range(draw(st.integers(min_value=0, max_value=5))):
            mu, nu, dq = draw(st.tuples(exponents, exponents, st.integers(0, top + 2)))
            if not dq:
                mu = nu = 0
            base = draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None
            extras = draw(st.lists(states, max_size=4, unique=True))
            step.append((draw(states), mu, nu, dq, base, extras))
        steps.append(step)
    return layer, steps, q_max


def _ref_transfer(layer, steps, q_max):
    """The steps by dict terms: each target's sources are its base's and its
    extras, and every source's full product is truncated and summed."""
    for step in steps:
        nxt, sources = {}, []
        for t, mu, nu, dq, base, extras in step:
            sources.append((sources[base] if base is not None else []) + list(extras))
            for s in sources[-1]:
                term = ref_mul(layer.get(s, {}), {(mu, nu, dq): 1})
                if q_max is not None:
                    term = ref_truncate(term, q_max)
                nxt[t] = ref_add(nxt.get(t, {}), term)
        layer = {t: terms for t, terms in nxt.items() if terms}
    return layer


# q_max = 3: a target with dq > q_max whose sum is the base of later ones,
# dq == q_max, a value truncated to zero (state 1's q^3 moved by dq = 3,
# so state 0 is left out), a dq = 0 pass-through into state 2 again with
# an extra missing from the layer, and sums read one and three positions on.
@example(
    (
        {0: {(0, 0, 0): 1, (1, 0, 2): 2}, 1: {(0, 1, 3): 1}},
        [
            [
                (2, 0, 1, 4, None, [0, 1]),
                (2, 1, 0, 3, 0, []),
                (0, 2, 0, 3, None, [1]),
                (2, 0, 0, 0, 0, [3]),
                (3, 1, 1, 1, 1, []),
            ],
            [(3, 0, 0, 0, None, [0, 2]), (1, 1, 0, 1, 0, [3])],
        ],
        3,
    )
)
# No bound: position 0's sum is read by the two targets after it, the second
# its last reader, and the first builds on it and is the base of a later one.
@example(
    (
        {0: {(0, 0, 0): 1}, 1: {(0, 0, 1): 1}, 2: {(1, 0, 0): 3}},
        [
            [
                (0, 0, 0, 1, None, [0, 1]),
                (1, 0, 1, 2, 0, [2]),
                (2, 0, 0, 0, 0, []),
                (0, 1, 1, 1, 1, []),
            ]
        ],
        None,
    )
)
@given(_transfer_cases())
def test_transfer_equals_a_dict_term_step(case):
    layer, steps, q_max = case
    got = {s: TriPoly(terms) for s, terms in layer.items()}
    for step in steps:
        got = partitions._transfer(got, step, q_max)
    expected = {t: TriPoly(terms) for t, terms in _ref_transfer(layer, steps, q_max).items()}
    assert got == expected


def test_window_plan_builds_each_source_set_once():
    _, moves = window_automaton()
    sources: dict[int, set[int]] = {}
    for s, row in enumerate(moves):
        for _, t in row:
            sources.setdefault(t, set()).add(s)
    _, plan = partitions._window_plan()
    assert sorted(t for t, *_ in plan) == sorted(sources) == list(range(17))
    built: list[set[int]] = []  # each target's source set as the plan builds it
    for i, (t, weight, base, extras) in enumerate(plan):
        # one weight per target: every move into t carries it
        assert {w for row in moves for w, u in row if u == t} == {weight}
        assert base is None or base < i
        below = set() if base is None else built[base]
        assert below.isdisjoint(extras)
        built.append(below | set(extras))
        # the transpose of the reference automaton's moves
        assert built[i] == sources[t], t
    # 10 distinct source sets; each built once, from the largest one built
    # before it: 21 layer reads a window, where the moves were 165
    assert len({frozenset(src) for src in sources.values()}) == 10
    assert sum(len(extras) for *_, extras in plan) == 21


def test_value_dp_asks_each_window_once():
    # no call for 0 copies, and the first rejection ends a state's step: the
    # move-by-move engine made the same 1,437 calls
    asked = []

    def valid(parts):
        asked.append(tuple(parts))
        return is_valid_B(parts)

    partitions._value_dp(60, 9, valid, lambda v: profile_B([v]))
    assert len(asked) == len(set(asked)) == 1437


# -------------------------------------------------------- count tables


def test_count_table_a_small_values():
    table = count_table("A", 6)
    assert table.coeff(0, 1, 5) == 1  # {5}
    assert table.coeff(1, 1, 5) == 1  # {4,1}
    assert table.coeff(1, 1, 6) == 2  # {5,1}, {4,2}
    assert table.coeff(0, 0, 0) == 1


def test_count_table_b_small_values():
    table = count_table("B", 6)
    assert table.coeff(1, 1, 6) == 2  # {6}, {5,1}
    assert table.coeff(1, 1, 5) == 1  # {4,1}
    assert table.coeff(0, 0, 0) == 1


@pytest.mark.parametrize("q_max", [0, 1, 6, 7, 13, 40])
def test_count_table_b_equals_the_part_search(q_max):
    assert count_table("B", q_max) == search_table(q_max, is_valid_B, profile_B)


@pytest.mark.parametrize("q_max", [0, 1, 5, 6, 7, 12, 13, 80])
def test_count_table_b_equals_the_dict_window_dp(q_max):
    assert count_table("B", q_max) == ref_count_table_b(q_max)


def test_count_table_b_equals_the_value_dp_over_is_valid_B():
    """A reference that needs no window automaton: the transfer matrix over
    part values, reading is_valid_B on slices of 9 consecutive values.

    Span 9 suffices.  The widest cap, f(6j-1) + f(6j) + f(6j+6) + f(6j+7),
    spans 9 values and the two-apart rule at most 7; caps are upper bounds,
    so a slice never fails where the whole list passes.  This checks
    _window_plan well past the part search's reach.
    """
    for q_max in [*range(61), 120]:
        reference = partitions._value_dp(q_max, 9, is_valid_B, lambda v: profile_B([v]))
        assert count_table("B", q_max) == reference, q_max


@pytest.mark.parametrize("q_max", [0, 1, 6, 7, 13, 40, 60])
def test_count_table_a_equals_the_part_search(q_max):
    assert count_table("A", q_max) == search_table(q_max, is_valid_A, profile_A)


def test_count_table_zero_bound():
    for side in ("A", "B"):
        assert count_table(side, 0) == TriPoly({(0, 0, 0): 1})


def test_count_table_rejects_bad_args():
    with pytest.raises(ValueError):
        count_table("C", 5)
    with pytest.raises(ValueError):
        count_table("A", -1)


# ------------------------------------------------------ windowed series


def test_s_oracle_level0_matches_reference_display():
    assert s_oracle(0, 15) == DISPLAY_S0_15


def test_s_oracle_level0_class9_has_the_extra_term():
    assert s_oracle(0, 9) == DISPLAY_S0_9_SHORT + B2_Q9


def test_s_oracle_base_cases():
    for j in range(16):
        assert s_oracle(-1, j) == ONE
        assert s_oracle(-2, j).is_zero()


def test_s_oracle_rejects_bad_class():
    with pytest.raises(ValueError):
        s_oracle(0, 16)
    with pytest.raises(ValueError):
        s_oracle(0, -1)


def test_s_oracle_monotone_in_class_bound():
    for n in range(2):
        for j in range(15):
            low, high = s_oracle(n, j), s_oracle(n, j + 1)
            for c, ea, eb, eq in low.terms():
                assert c <= high.coeff(ea, eb, eq)


def test_two_oracle_paths_agree():
    for n in range(-1, 3):
        for j in range(16):
            assert s_oracle(n, j) == s_oracle_dfs(n, j), (n, j)
    for j in (0, 9, 15):
        assert s_oracle(3, j) == s_oracle_dfs(3, j), (3, j)


def test_s_oracle_equals_the_dict_window_dp():
    for n in range(6):
        assert [s_oracle(n, j) for j in range(16)] == ref_s_oracle(n), n


def test_s_oracle_visit_order_does_not_change_values(monkeypatch):
    cold = {}
    for n in (2, 3, 5, 6):
        monkeypatch.setattr(partitions, "_held", partitions._START)
        cold[n] = [s_oracle(n, j) for j in range(16)]
    monkeypatch.setattr(partitions, "_held", partitions._START)
    # from the start, restart below the held level, one step, repeat, steps
    for n in (5, 2, 3, 3, 6):
        assert [s_oracle(n, j) for j in range(16)] == cold[n], n
        assert partitions._held[0] == n


def test_s_oracle_holds_level_10_in_32_bit_slots(monkeypatch):
    # its largest coefficient takes 26 bits; without narrowing the held
    # record sat mostly in 64-bit slots, by tracked bounds up to 2^38
    monkeypatch.setattr(partitions, "_held", partitions._START)
    s_oracle(10, 15)
    level, layer, series = partitions._held
    assert level == 10 and {p._w for p in (*layer.values(), *series)} == {32}
    # at level 12 the layer takes 64-bit slots, and its 16 cumulative sums
    # take the layer's width
    s_oracle(12, 15)
    level, layer, series = partitions._held
    assert level == 12 and {p._w for p in (*layer.values(), *series)} == {64}


def test_s_oracle_class15_coefficients_match_count_table():
    n = 2
    table = count_table("B", 6 * n + 6)
    series = s_oracle(n, 15)
    for c, mu, nu, total in table.terms():
        assert series.coeff(mu, nu, total) == c


def test_every_refined_partition_classifies_per_window():
    # regenerate the side-B partitions up to 20 and classify each window
    seen = []
    parts: list[int] = []

    def extend(max_next: int, total: int) -> None:
        seen.append(tuple(parts))
        for p in range(min(max_next, 20 - total), 0, -1):
            parts.append(p)
            if is_valid_B(parts):
                extend(p, total + p)
            parts.pop()

    extend(20, 0)
    assert len(seen) > 50
    for partition in seen:
        windows: dict[int, list[int]] = {}
        for p in partition:
            windows.setdefault((p - 1) // 6, []).append(p)
        for i, group in windows.items():  # each group descends with the partition
            assert tuple(p - 6 * i for p in group) in WINDOW_CLASSES


# ---------------------------------------------------- general families


def test_general_a_count_examples():
    assert general_A_series(GeneralParams(5, 3, 3), 7)[7] == 3  # {7}, {5,2}, {4,2,1}
    assert general_A_series(GeneralParams(5, 3, 3), 0)[0] == 1
    assert general_A_series(GeneralParams(3, 2, 2), 4)[4] == 1  # {3,1}


def test_general_b_count_examples():
    assert general_B_series(GeneralParams(5, 3, 3), 7, extra=B0_533)[7] == 3  # {7},{6,1},{5,2}
    assert general_B_series(GeneralParams(5, 3, 3), 0, extra=B0_533)[0] == 1
    assert general_B_series(GeneralParams(2, 2, 2), 3)[3] == 1  # {3}
    assert general_B_series(GeneralParams(2, 2, 2), 6)[6] == 2  # {6}, {5,1}


def test_general_b_series_is_zero_when_the_empty_list_is_invalid():
    # a = 1 < (lam + 1)/2: the first-window cap f(2) <= a - 2 = -1 fails on []
    assert not partitions._is_valid_general_B([], 3, 2, 1, None)
    assert general_B_series(GeneralParams(3, 2, 1), 12) == [0] * 13
    assert search_general_series(GeneralParams(3, 2, 1), 12)[1] == [0] * 13


@pytest.mark.parametrize(
    "gp", [GeneralParams(3, 1, 1), GeneralParams(6, 1, 1)], ids=["3-1-1", "6-1-1"]
)
def test_general_a_series_rejects_a_non_positive_modulus(gp):
    # (2k - lam + 1)(lam + 1) is 0 for (3, 1, 1) and -21 for (6, 1, 1)
    with pytest.raises(ValueError, match=r"\(2k - lam \+ 1\)\(lam \+ 1\) > 0"):
        general_A_series(gp, 5)


def test_general_series_check_the_extra_set_before_positivity():
    with pytest.raises(ValueError, match="must be positive"):
        general_A_series(GeneralParams(0, 3, 3), 5)
    with pytest.raises(ValueError, match="must be positive"):
        general_B_series(GeneralParams(3, 0, 3), 5)
    with pytest.raises(ValueError, match="requires lam=4 k=3 a=3"):
        general_B_series(GeneralParams(0, 3, 3), 5, extra=B0_433)


def test_general_extra_must_match_lambda():
    with pytest.raises(ValueError):
        general_B_series(GeneralParams(5, 3, 3), 7, extra=B0_433)
    with pytest.raises(ValueError):
        general_B_series(GeneralParams(4, 3, 3), 7, extra=B0_533)
    with pytest.raises(ValueError):
        general_B_series(GeneralParams(4, 4, 3), 7, extra=B0_433)  # right lam, wrong k
    with pytest.raises(ValueError):
        general_B_series(GeneralParams(4, 3, 3), 7, extra="b0-999")


def test_refined_table_sums_match_extra_family():
    totals = [0] * 16
    for c, _, _, n in count_table("B", 15).terms():
        totals[n] += c
    series = general_B_series(GeneralParams(5, 3, 3), 15, extra=B0_533)
    assert totals == series


# The default cases, and each extra set's triple without its extras too.
_FAMILY_CASES = [(gp, extra) for gp, extra, _ in DEFAULT_GENERAL_CASES] + [
    (gp, None) for gp in EXTRA_PARAMS.values()
]


@pytest.mark.parametrize(("gp", "extra"), _FAMILY_CASES)
def test_general_series_equal_the_part_search(gp, extra):
    assert (general_A_series(gp, 40), general_B_series(gp, 40, extra)) == search_general_series(
        gp, 40, extra
    )


# Every (lam, k, a) in 1..6 with lam/2 < a <= k and k >= lam.
_THEOREM1_TRIPLES = [
    GeneralParams(lam, k, a)
    for lam in range(1, 7)
    for k in range(lam, 7)
    for a in range(1, k + 1)
    if 2 * a > lam
]


@given(st.sampled_from(_THEOREM1_TRIPLES), st.integers(min_value=0, max_value=25))
def test_general_series_equal_the_part_search_under_theorem1(gp, n_max):
    assert (general_A_series(gp, n_max), general_B_series(gp, n_max)) == search_general_series(
        gp, n_max
    )


def test_general_b_span_reads_the_widest_rule():
    assert partitions._general_b_window(5, None)[0] == 7
    assert partitions._general_b_window(5, B0_533)[0] == 9
    assert partitions._general_b_window(4, B0_433)[0] == 8


def _local(parts, span, valid) -> bool:
    """Whether `valid` holds on the parts in every window of span values
    ending at 1..max(parts) + 1 (at least one, so the empty list is judged)."""
    top = parts[0] if parts else 0
    return all(valid([p for p in parts if v - span < p <= v]) for v in range(1, top + 2))


# Descending lists <= 60: arbitrary ones, and ones with small gaps, which
# sit near the difference rules and the caps.
_DESCENDING = st.one_of(
    st.lists(st.integers(min_value=1, max_value=60), max_size=8),
    st.lists(st.integers(min_value=0, max_value=8), max_size=10).map(
        lambda gaps: [1 + g for g in accumulate(gaps)]
    ),
).map(lambda values: sorted(values, reverse=True))

# k >= lam, as in Theorem1 and both extra sets; a is free, so the triples
# whose caps reject even the empty list are drawn too.
_PARAMS = st.tuples(*(st.integers(min_value=1, max_value=6) for _ in range(3))).map(
    lambda t: GeneralParams(min(t[0], t[1]), max(t[0], t[1]), t[2])
)


@given(_DESCENDING, _PARAMS, st.sampled_from([None, *EXTRA_PARAMS]))
# breaks the widest cap, f(6j-1) + f(6j) + f(6j+6) + f(6j+7) <= 3, at j = 1,
# which spans 9 values: span 8 calls it valid
@example([13, 12, 6, 5], GeneralParams(5, 3, 3), B0_533)
def test_value_predicates_are_local_to_their_span(parts, gp, extra):
    if extra is not None:
        gp = EXTRA_PARAMS[extra]
    lam, k, a = gp
    rules = partitions._general_a_rules(gp)

    def valid_b(p):
        return partitions._is_valid_general_B(p, lam, k, a, extra)

    def valid_a(p):
        return partitions._is_valid_general_A(p, rules)

    span_b, _, _ = partitions._general_b_window(lam, extra)
    assert valid_b(parts) == _local(parts, span_b, valid_b)
    assert valid_a(parts) == _local(parts, 1, valid_a)
    assert is_valid_A(parts) == _local(parts, 1, is_valid_A)
    assert is_valid_B(parts) == _local(parts, 9, is_valid_B)


# Each extra set with its triple, and no extra over _PARAMS and again over
# the triples with a < (lam + 1) // 2, whose first-window caps reject every list.
_CAP_CASES = st.one_of(
    st.sampled_from([(gp, extra) for extra, gp in EXTRA_PARAMS.items()]),
    st.tuples(_PARAMS, st.none()),
    st.tuples(_PARAMS.filter(lambda gp: gp.a < (gp.lam + 1) // 2), st.none()),
)


@given(_DESCENDING, _CAP_CASES)
# each breaks one extra cap, at j = 10 and j = 7, above its smallest index
@example([53, 52], (GeneralParams(4, 3, 3), B0_433))
@example([49, 47], (GeneralParams(5, 3, 3), B0_533))
# smallest part lam + 1: each breaks the last first-window cap, f(1) + ... + f(lam+1) <= a - 1
@example([4, 4], (GeneralParams(3, 3, 2), None))
@example([2], (GeneralParams(1, 2, 1), None))
# smallest part lam + 2: no first-window cap reaches it, so only a - j < 0 (a = 1) rejects
@example([6, 5], (GeneralParams(3, 3, 1), None))
@example([5], (GeneralParams(3, 3, 2), None))
# the nested first-window caps: [3] breaks f(3) <= a - 3 by its one part of
# depth 3, [4] breaks f(3) + f(4) <= 0 and [4, 3, 2] f(3) + f(4) <= 1
@example([3], (GeneralParams(5, 3, 3), None))
@example([4], (GeneralParams(6, 6, 3), None))
@example([4, 3, 2], (GeneralParams(6, 6, 4), None))
def test_skipping_the_caps_that_miss_the_parts_changes_no_verdict(parts, case):
    (lam, k, a), extra = case
    args = (lam, k, a, extra)
    assert partitions._is_valid_general_B(parts, *args) == ref_is_valid_general_B(parts, *args)


def test_general_b_period_reads_lambda_and_the_extra_set():
    assert partitions._general_b_window(2, None)[1:] == (3, 3)
    assert partitions._general_b_window(4, B0_433)[1:] == (5, 6)
    assert partitions._general_b_window(5, B0_533)[1:] == (6, 7)
    # at low itself a first-window cap can still reach a part: [3, 3]
    # breaks f(1) + f(2) + f(3) <= a - 1, one period up it is valid
    assert not partitions._is_valid_general_B([3, 3], 2, 3, 2, None)
    assert partitions._is_valid_general_B([6, 6], 2, 3, 2, None)


# Every default case, each extra set's triple without it, and _PARAMS;
# the lists reach up to 84, so many lie wholly above low.
@given(
    st.tuples(_DESCENDING, st.integers(min_value=0, max_value=24)).map(
        lambda t: [p + t[1] for p in t[0]]
    ),
    st.one_of(st.sampled_from(_FAMILY_CASES), st.tuples(_PARAMS, st.none())),
)
# smallest part low, where the period is not promised, and low + 1
@example([13, 7], (GeneralParams(5, 3, 3), B0_533))
@example([3, 3], (GeneralParams(2, 3, 2), None))
@example([14, 8], (GeneralParams(5, 3, 3), B0_533))
@example([4, 4], (GeneralParams(2, 3, 2), None))
def test_general_b_predicate_repeats_every_period_above_low(parts, case):
    (lam, k, a), extra = case
    _, period, low = partitions._general_b_window(lam, extra)
    if parts and parts[-1] > low:
        up = [p + period for p in parts]
        valid = partitions._is_valid_general_B
        assert valid(parts, lam, k, a, extra) == valid(up, lam, k, a, extra)


def _b_series(gp, extra, n_max, periodic):
    """general_B_series through the value DP, with or without the period."""
    lam, k, a = gp
    span, *period = partitions._general_b_window(lam, extra)
    return partitions._series(
        n_max,
        span,
        lambda parts: partitions._is_valid_general_B(parts, lam, k, a, extra),
        *(period if periodic else ()),
    )


@pytest.mark.parametrize(("gp", "extra"), _FAMILY_CASES)
def test_reused_verdicts_give_the_plain_value_dp(gp, extra):
    periodic = _b_series(gp, extra, 150, True)
    assert periodic == _b_series(gp, extra, 150, False)
    assert periodic == general_B_series(gp, 150, extra)


def _general_b_calls(gp, extra, n_max) -> tuple[int, int]:
    """The calls of _is_valid_general_B that general_B_series makes, and the
    highest top part among them."""
    calls = top = 0
    valid = partitions._is_valid_general_B

    def counted(parts, *args):
        nonlocal calls, top
        calls += 1
        if parts:
            top = max(top, parts[0])
        return valid(parts, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(partitions, "_is_valid_general_B", counted)
        general_B_series(gp, n_max, extra)
    return calls, top


def test_general_b_calls_stop_growing_with_n():
    # 1,242 calls when every window was asked at every value
    assert _general_b_calls(EXTRA_PARAMS[B0_433], B0_433, 45)[0] == 673
    # past low + span + period every verdict is read back (see _value_dp)
    for gp, extra, _ in DEFAULT_GENERAL_CASES:
        span, period, low = partitions._general_b_window(gp.lam, extra)
        calls, top = _general_b_calls(gp, extra, 300)
        assert (calls, top) == _general_b_calls(gp, extra, 600), (gp, extra)
        assert top < low + span + period, (gp, extra)


def test_general_b_period_follows_the_extra_modulus(monkeypatch):
    # modulus 2(lam + 1) = 10, and a cap from index 2 that reaches up to 21
    gp = EXTRA_PARAMS[B0_433]
    caps = (((2, 3), 1, 0), ((4, 6, 9), 1, 0), ((-1, 0, 10, 11), 2, 2))
    monkeypatch.setitem(partitions._EXTRA_SETS, B0_433, (gp, 10, caps))
    assert partitions._general_b_window(gp.lam, B0_433)[1:] == (10, 21)
    # a period of lam + 1 alone would reuse wrong verdicts by n = 60
    series = general_B_series(gp, 60, B0_433)
    assert series == _b_series(gp, B0_433, 60, False) == search_general_series(gp, 60, B0_433)[1]


@given(st.lists(st.integers(min_value=1, max_value=40), max_size=8))
def test_validity_is_stable_under_removing_smallest_parts(values):
    parts = sorted(values, reverse=True)
    if is_valid_B(parts):
        for cut in range(len(parts)):
            assert is_valid_B(parts[:cut])
    if is_valid_A(parts):
        for cut in range(len(parts)):
            assert is_valid_A(parts[:cut])
