import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from propm import (
    Bundle,
    InputError,
    Instance,
    ResourceBudgetError,
    cp_bundle,
    cp_ladder,
    validate_ladder,
    value_of,
)
from propm import _kernels
from propm.cpsets import (
    BITS_LIMIT,
    CP_MEMO_SIZE,
    DP_SUM_LIMIT,
    MITM_ITEM_LIMIT,
    CpLadder,
    _best_subset,
)
from propm.fairness import Notion, check
from propm.oracle import allocation_from_index, random_instance
from reference import brute_force_best, brute_force_cp


def mask_positions(mask, m):
    """Sorted positions of a reversed-bit witness mask (bit m-1-p is position p)."""
    return tuple(p for p in range(m) if (mask >> (m - 1 - p)) & 1)


def reference_dp(vals, cap):
    """Forward DP carrying unbounded witness masks per reachable sum.

    Slow but independent of the kernel's backward table and take-bit walk.
    """
    m = len(vals)
    best = {0: (0, 0)}  # sum -> (cardinality, mask); larger mask = lexicographically smaller
    for p, v in enumerate(vals):
        bit = 1 << (m - 1 - p)
        if v > cap:
            continue
        nxt = dict(best)
        for s, (c, mk) in best.items():
            t = s + v
            if t <= cap:
                cand = (c + 1, mk | bit)
                if t not in nxt or cand > nxt[t]:
                    nxt[t] = cand
        best = nxt
    top = max(best)
    return (top,) + best[top]


def test_cp_bundle_tie_break(i_cp):
    # {0,3} and {1,2} both reach 50; lexicographic order prefers {0,3}
    assert cp_bundle(i_cp, 0, 2, Bundle.of(range(i_cp.m))).items == (0, 3)


def test_cp_bundle_single_big_item():
    inst = Instance.of([[9]])
    assert cp_bundle(inst, 0, 2, Bundle.of(range(inst.m))).items == ()


def test_cp_bundle_k1_returns_all(i_cp):
    assert cp_bundle(inst=i_cp, agent=0, k=1, base=Bundle.of(range(i_cp.m))).items == (0, 1, 2, 3)


def test_cp_bundle_zero_values_gravitate():
    inst = Instance.of([[5, 0, 0, 5]])
    bundle = cp_bundle(inst, 0, 2, Bundle.of(range(inst.m)))
    # one of the 5s plus both zero items
    assert value_of(inst, 0, bundle) == 5
    assert {1, 2} <= set(bundle.items)


def test_cp_bundle_matches_brute_force_randoms():
    for s in range(60):
        m = 1 + s % 10
        inst = random_instance(1, m, 40, seed=200 + s)
        values = inst.values[0]
        for k in (1, 2, 3, 4, 5):
            got = cp_bundle(inst, 0, k, Bundle.of(range(inst.m)))
            v, c, combo = brute_force_cp(values, k)
            assert value_of(inst, 0, got) == v, (s, k)
            assert len(got) == c, (s, k)
            assert got.items == combo, (s, k)


def test_cp_bundle_matches_brute_force_m16():
    inst = random_instance(1, 16, 100, seed=777)
    got = cp_bundle(inst, 0, 3, Bundle.of(range(inst.m)))
    v, c, combo = brute_force_cp(inst.values[0], 3)
    assert (value_of(inst, 0, got), len(got), got.items) == (v, c, combo)


def test_cp_strategies_agree():
    for s in range(25):
        m = 2 + s % 9
        inst = random_instance(1, m, 60, seed=500 + s)
        vals = tuple(inst.values[0])
        cap = sum(vals) // (2 + s % 3)
        assert _kernels.cp_table(vals, cap) == _kernels.cp_mitm(vals, cap), (s, vals, cap)


@settings(max_examples=150, deadline=None)
@given(
    vals=st.lists(st.sampled_from([0, 0, 1, 2, 3, 5, 8, 13, 40]), max_size=11),
    cap_frac=st.floats(min_value=0, max_value=1.2),
)
@example(vals=[0, 0, 0, 0], cap_frac=0.5)
@example(vals=[0, 0, 0], cap_frac=0.0)
@example(vals=[5, 5, 5, 5], cap_frac=0.0)
@example(vals=[40, 1, 1, 40], cap_frac=0.3)
def test_cp_dp_matches_brute_force_and_mitm(vals, cap_frac):
    vals = tuple(vals)
    cap = int(sum(vals) * cap_frac)
    got = _kernels.cp_table(vals, cap)
    value, card, combo = brute_force_best(vals, cap)
    assert (got[0], got[1], mask_positions(got[2], len(vals))) == (value, card, combo)
    assert got == _kernels.cp_mitm(vals, cap)


def test_cp_dp_handles_many_items():
    # Item counts past 62 go through the same kernel: the witness is an unbounded int.
    inst = Instance.of([[1] * 70])
    bundle = cp_bundle(inst, 0, 2, Bundle.of(range(inst.m)))
    assert len(bundle) == 35
    assert bundle.items == tuple(range(35))
    for s in range(12):
        m = 63 + (s * 5) % 28
        vals = tuple(random_instance(1, m, 30, seed=1300 + s).values[0])
        # Values up to 30 over 63+ items repeat often; two zeros are spliced in.
        vals = vals[:5] + (0, 0) + vals[5 : m - 2]
        cap = sum(vals) // (2 + s % 3)
        assert _kernels.cp_table(vals, cap) == reference_dp(vals, cap), s


def _walk_reads(vals, positions):
    """(p, s - v) for every take-row read of the forward walk to ``positions``."""
    s = sum(vals[p] for p in positions)
    reads = []
    for p, v in enumerate(vals):
        if 0 < v <= s:
            reads.append((p, s - v))
        if p in positions:
            s -= v
    return reads


@pytest.mark.parametrize(
    "vals",
    [
        (40, 30, 20, 10, 5, 3, 1),  # descending
        (0, 0, 7, 3, 5, 0, 0),  # zeros at the head and the tail
        (1, 50, 2, 60, 3, 4),  # items above most caps between small ones
        (9, 4, 4, 2, 1, 0, 70),
        (3, 1, 1, 2),
    ],
)
def test_cp_dp_suffix_bound_edge_cases(vals):
    # Caps run past the whole sum, so the later ones are at least every suffix sum.
    for cap in range(sum(vals) + 3):
        got = _kernels.cp_table(vals, cap)
        value, card, combo = brute_force_best(vals, cap)
        assert (got[0], got[1], mask_positions(got[2], len(vals))) == (value, card, combo), cap


# Greedy bound and (start, width) take windows of the instances below.
_WALK_WINDOWS = {
    (3, 1, 1, 2): (7, [(4, 1), (3, 1), (2, 1), (0, 1)]),
    (2, 6, 1, 1): (8, [(6, 1), (0, 3), (0, 2), (0, 1)]),
}


@pytest.mark.parametrize("vals, cap", [((3, 1, 1, 2), 10), ((2, 6, 1, 1), 8)])
def test_cp_dp_walk_reads_the_last_cell_of_truncated_rows(vals, cap):
    # The walk reads row p at s - v, at most the suffix sum after p, so the
    # last cell of a window cut to that sum is the farthest it can read.
    value, card, combo = brute_force_best(vals, cap)
    low, windows = _kernels._take_windows(list(vals), cap)
    assert (low, windows) == _WALK_WINDOWS[vals]
    assert any(
        i == sum(windows[p]) - 1 and sum(windows[p]) < cap + 1 - vals[p]
        for p, i in _walk_reads(vals, combo)
    )
    got = _kernels.cp_table(vals, cap)
    assert (got[0], got[1], mask_positions(got[2], len(vals))) == (value, card, combo)


def test_cp_dp_walk_reads_the_first_cell_of_windows_cut_from_below():
    # The greedy bound is 9 + 1 = 10, so the walk reaches item 1 (v = 2) with
    # s >= 10 - 1 and its window starts at take index 9 - 2 = 7. The witness
    # {0, 3} reaches it with s = 9 and reads exactly that first cell.
    vals, cap = (1, 2, 8, 9), 10
    value, card, combo = brute_force_best(vals, cap)
    assert _kernels._take_windows(list(vals), cap) == (10, [(9, 1), (7, 2), (0, 3), (0, 1)])
    assert combo == (0, 3)
    assert (1, 7) in _walk_reads(vals, combo)
    got = _kernels.cp_table(vals, cap)
    assert (got[0], got[1], mask_positions(got[2], len(vals))) == (value, card, combo)


def _suffix_widths(vals, cap):
    """min(cap + 1 - v, suffix + 1) per item with 0 < v <= cap, suffix capped at cap."""
    widths = [0] * len(vals)
    reach = 0
    for p in range(len(vals) - 1, -1, -1):
        v = vals[p]
        if 0 < v <= cap:
            widths[p] = min(cap + 1 - v, reach + 1)
            reach = min(cap, reach + v)
    return widths


@settings(max_examples=200, deadline=None)
@given(
    case=st.lists(st.sampled_from([0, 1, 2, 3, 5, 8, 13, 40]), max_size=11).flatmap(
        lambda vals: st.tuples(st.just(vals), st.integers(0, sum(vals) + 2))
    )
)
@example(case=([1, 2, 8, 9], 10))
@example(case=([40, 1, 1, 40], 41))
def test_cp_take_windows_hold_every_walk_read(case):
    vals, cap = case
    combo = brute_force_best(vals, cap)[2]
    low, windows = _kernels._take_windows(vals, cap)
    assert low <= sum(vals[p] for p in combo)
    for p, i in _walk_reads(vals, combo):
        start, width = windows[p]
        assert start <= i < start + width, (p, i, windows)
    for (_, width), bound in zip(windows, _suffix_widths(vals, cap)):
        assert width <= bound


def test_cp_take_budget_counts_truncated_rows(monkeypatch):
    vals = np.array([9, 4, 4, 2, 1, 0, 70])
    cap = 12
    # Nominal rows would be 4, 9, 9, 11 and 12 cells; the windows are 1, 8, 4,
    # 2 and 1 cells: 5 bytes packed.
    windows = [(3, 1), (0, 8), (0, 4), (0, 2), (0, 1), (0, 0), (0, 0)]
    assert _kernels._take_windows(vals.tolist(), cap) == (12, windows)
    monkeypatch.setattr(_kernels, "CP_TAKE_BYTES", 5)
    assert _kernels.cp_table(vals, cap)[0] == 12
    monkeypatch.setattr(_kernels, "CP_TAKE_BYTES", 4)
    with pytest.raises(ResourceBudgetError, match="take rows"):
        _kernels.cp_table(vals, cap)


@pytest.mark.parametrize("m", [127, 128])
def test_cp_dp_at_the_cardinality_dtype_boundary(m):
    # 127 items run on an int8 cardinality row, 128 on int16.
    equal = [7] * (m - 3)
    rows = [[1] * m, equal[:10] + [0, 0] + equal[10:] + [0]]
    for vals in rows:
        total = sum(vals)
        for cap in (0, 1, total // 2, total):
            assert _kernels.cp_table(vals, cap) == reference_dp(vals, cap), (vals[:12], cap)
    zeros = _kernels.cp_table([0] * 127, 0)
    assert zeros == (0, 127, (1 << 127) - 1)


def test_cp_dp_matches_mitm_at_benchmark_sizes():
    # Widths and greedy gaps of solve-dp's queries, which the brute-force
    # sizes above never reach; meet-in-the-middle is an independent algorithm.
    for s in range(40):
        m = 24 + s % 11
        vals = random_instance(1, m, 10**4, seed=4100 + s).values[0]
        cap = sum(vals) // (2 + s % 4)
        assert _kernels.cp_table(vals, cap) == _kernels.cp_mitm(vals, cap), s


def _cp_table_peak(vals, cap):
    tracemalloc.start()
    try:
        got = _kernels.cp_table(vals, cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == _kernels.cp_mitm(vals, cap)
    return peak


def test_cp_dp_memory_at_the_dp_limit():
    cap = DP_SUM_LIMIT - 1
    # Wide windows: an int16 cardinality row alone would add 2 MB to about 7 MiB.
    assert _cp_table_peak([2 * cap // 15] * 15, cap) < 10 << 20
    # Items summing to just past the cap give windows of at most 133,334
    # cells; scratch rows of cap + 1 cells would add about 3.6 MiB.
    vals = [cap // 15 + p for p in range(15)]
    vals[-1] += cap + 1000 - sum(vals)
    assert _cp_table_peak(vals, cap) < 4 << 20


def test_cp_take_budget_refuses_before_allocating():
    # 3000 equal items with the cap just inside the DP limit would need about
    # 560 MB of take rows.
    m = 3000
    inst = Instance.of([[2 * (DP_SUM_LIMIT - 1) // m] * m])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="take rows"):
            cp_bundle(inst, 0, 2, Bundle.of(range(inst.m)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


# Zeros, equal values and, in the first 12, a sum past 2^63 (so Python-int
# sums): its prefixes of MITM_WHOLE_ITEMS and one more items sit on both sides
# of cp_mitm's switch from enumerating the whole set to splitting it.
_MITM_EDGE = [0, 5, 1 << 63, 5, 0, (1 << 63) + 1, 13, 5, 1 << 62, 0, 13, 5, 1 << 63, 40]
_MITM_TIES = [7, 0, 7, 7, 3, 0, 7, 4, 7, 3, 7, 0, 7, 4]


@settings(max_examples=150, deadline=None)
@given(
    case=st.lists(
        st.one_of(
            st.sampled_from([0, 0, 1, 2, 3, 5, 8, 13, 40]),
            st.sampled_from([1 << 62, 1 << 63, (1 << 63) + 1, 3 << 63]),
        ),
        max_size=_kernels.MITM_WHOLE_ITEMS + 2,
    ).flatmap(lambda vals: st.tuples(st.just(vals), st.integers(0, sum(vals) + 2)))
)
@example(case=([0, 0, 0], 0))
@example(case=([1 << 63, 1 << 63, 1, 0], 1 << 63))
@example(case=([40, 1, 1, 40], 41))
@example(case=(_MITM_EDGE[: _kernels.MITM_WHOLE_ITEMS], (1 << 63) + 18))
@example(case=(_MITM_EDGE[: _kernels.MITM_WHOLE_ITEMS + 1], (1 << 64) + 23))
@example(case=(_MITM_TIES[: _kernels.MITM_WHOLE_ITEMS], 21))
@example(case=(_MITM_TIES[: _kernels.MITM_WHOLE_ITEMS + 1], 25))
def test_cp_mitm_matches_brute_force(case):
    # Sums reaching 2^63 run on Python-int (object) arrays; the rest on int64.
    # Up to MITM_WHOLE_ITEMS items cp_mitm enumerates all subsets, past it it
    # splits them in halves.
    vals, cap = case
    got = _kernels.cp_mitm(tuple(vals), cap)
    value, card, combo = brute_force_best(vals, cap)
    assert (got[0], got[1], mask_positions(got[2], len(vals))) == (value, card, combo)


def test_cp_mitm_at_the_item_limit():
    v = 10**9 + 7
    vals = (v,) * MITM_ITEM_LIMIT
    mask = ((1 << 11) - 1) << (MITM_ITEM_LIMIT - 11)
    assert _kernels.cp_mitm(vals, 11 * v) == (11 * v, 11, mask)
    # cp_bundle takes meet-in-the-middle: the cap is past the DP limit.
    inst = Instance.of([vals])
    assert cp_bundle(inst, 0, 3, Bundle.of(range(inst.m))).items == tuple(range(11))


def test_cp_mitm_key_tables_stay_within_their_bound():
    # Equal values: the first cap // v items are the answer at every item count.
    v = 10**9 + 7
    for m in range(1, MITM_ITEM_LIMIT + 1):
        k = m // 3
        assert _kernels.cp_mitm((v,) * m, k * v) == (k * v, k, ((1 << k) - 1) << (m - k))
    tables = _kernels._KEY_TABLES
    assert max(tables) == (MITM_ITEM_LIMIT + 1) // 2
    assert sum(keys.nbytes for keys in tables.values()) <= _kernels.MITM_KEY_BYTES


def test_cp_bundle_skips_an_item_past_int64_under_a_dp_cap():
    inst = Instance(((10**20, 3, 4),))
    assert cp_bundle(inst, 0, 10**15, Bundle.of(range(inst.m))).items == (1, 2)


def test_cp_past_both_limits_is_refused_up_front():
    # The cap is past the DP limit and the item count one past the
    # meet-in-the-middle limit: refused before anything is allocated.
    vals = (10**6,) * (MITM_ITEM_LIMIT + 1)
    assert sum(vals) // 2 + 1 > DP_SUM_LIMIT
    inst = Instance.of([vals])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceBudgetError, match="limit"):
            cp_bundle(inst, 0, 2, Bundle.of(range(inst.m)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize(
    "vals, cap, refused",
    [((5, 3, 2), 10**9, "dp"), ((1,) * 60, 30, "mitm")],
)
def test_a_kernel_past_its_size_limit_is_never_called(vals, cap, refused, monkeypatch):
    # A 10^9 DP row or 2^30 meet-in-the-middle states are never built: the
    # kernel past its limit is not called, and the other one answers.
    def refuse(*args):
        raise AssertionError(f"{refused} kernel called past its limit")

    expected = {"dp": _kernels.cp_mitm, "mitm": _kernels.cp_table}[refused](vals, cap)
    monkeypatch.setattr(_kernels, {"dp": "cp_table", "mitm": "cp_mitm"}[refused], refuse)
    _best_subset.cache_clear()
    tracemalloc.start()
    try:
        got = _best_subset(vals, cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _best_subset.cache_clear()
    assert got == expected
    assert peak < 4 << 20


_PAST_INT64 = (1 << 64) + 3


@settings(max_examples=200, deadline=None)
@given(
    case=st.lists(st.sampled_from([0, 0, 1, 2, 3, 5, 8, 13, 40, _PAST_INT64]), max_size=12).flatmap(
        lambda vals: st.tuples(
            st.just(vals), st.integers(0, sum(v for v in vals if v != _PAST_INT64) + 2)
        )
    )
)
@example(case=([0, 0, 0, 0], 0))
@example(case=([0, 0, 0], 3))
@example(case=([5, 5, 5, 5], 0))
@example(case=([5, 5, 5, 5], 10))
@example(case=([40, 1, 1, 40], 41))
@example(case=([_PAST_INT64, 3, 0, 4], 7))
def test_cp_bits_matches_brute_force(case):
    vals, cap = case
    got = _kernels.cp_bits(tuple(vals), cap)
    value, card, combo = brute_force_best(vals, cap)
    assert (got[0], got[1], mask_positions(got[2], len(vals))) == (value, card, combo)


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.sampled_from([0, 0, 1, 1, 2, 3, 7, 40, _PAST_INT64]), max_size=200),
    cap=st.integers(0, 30),
)
@example(vals=[0] * 200, cap=0)
@example(vals=[3] * 200, cap=29)
@example(vals=[_PAST_INT64] + [1, 0] * 90, cap=30)
def test_cp_bits_matches_cp_table_on_many_items(vals, cap):
    assert _kernels.cp_bits(vals, cap) == _kernels.cp_table(vals, cap)


def _bits_boundary_cases():
    """(vals, cap) pairs whose m*(m+1)*(cap+1) sits just inside and just past BITS_LIMIT."""
    vals = tuple(random_instance(1, 16, 300, seed=31).values[0])
    assert sum(vals) > 2000
    inside = BITS_LIMIT // (16 * 17) - 1
    zeros = next(m for m in range(1, BITS_LIMIT) if m * (m + 1) > BITS_LIMIT)
    return [
        ((vals, inside), True),
        ((vals, inside + 1), False),
        (((0,) * (zeros - 1), 0), True),
        (((0,) * zeros, 0), False),
    ]


@pytest.mark.parametrize(
    "query, bitset",
    _bits_boundary_cases(),
    ids=["cap-inside", "cap-past", "zeros-inside", "zeros-past"],
)
def test_cp_bitset_answers_only_tables_within_its_bound(query, bitset, monkeypatch):
    vals, cap = query
    m = len(vals)
    assert (m * (m + 1) * (cap + 1) <= BITS_LIMIT) is bitset
    expected = _kernels.cp_mitm(vals, cap) if m <= MITM_ITEM_LIMIT else (0, m, (1 << m) - 1)
    ran = []
    for name in ("cp_bits", "cp_table", "cp_mitm"):

        def spy(vals, cap, name=name, kernel=getattr(_kernels, name)):
            ran.append(name)
            return kernel(vals, cap)

        monkeypatch.setattr(_kernels, name, spy)
    _best_subset.cache_clear()
    try:
        assert _best_subset(vals, cap) == expected
    finally:
        _best_subset.cache_clear()
    assert ran == ["cp_bits" if bitset else "cp_table"]


@pytest.mark.parametrize(
    "vals, cap",
    [
        ((241,) * 16, BITS_LIMIT // (16 * 17) - 1),  # 16 wide sets
        ((1,) * 127, BITS_LIMIT // (127 * 128) - 1),  # 127 sets of 32 sums
        ((0,) * 723, 0),  # 723 sets of one sum
    ],
    ids=["wide", "many", "zeros"],
)
def test_cp_bitset_memory_at_its_bound(vals, cap):
    # The suffix sets total at most 2^19 bits (64 KiB).
    m = len(vals)
    assert BITS_LIMIT - m * (m + 1) < m * (m + 1) * (cap + 1) <= BITS_LIMIT
    assert sum(vals) > cap or not any(vals)
    _best_subset.cache_clear()
    tracemalloc.start()
    try:
        got = _best_subset(vals, cap)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _best_subset.cache_clear()
    assert got == reference_dp(vals, cap)
    assert peak < 1 << 20


def test_cp_memo_stays_bounded():
    vals = (5, 3, 2, 7)
    for cap in range(CP_MEMO_SIZE + 10):
        _best_subset(vals, cap)
    _best_subset(vals, CP_MEMO_SIZE + 9)
    info = _best_subset.cache_info()
    assert info.maxsize == CP_MEMO_SIZE
    assert info.currsize <= CP_MEMO_SIZE
    assert (info.hits, info.misses) == (1, CP_MEMO_SIZE + 10)


def test_cp_ladder_two_rungs(i_cp):
    ladder = cp_ladder(i_cp, 0, 2, Bundle.of(range(i_cp.m)))
    assert ladder.rungs == ((0, 3), (1, 2))
    assert value_of(i_cp, 0, Bundle(ladder.rungs[1])) == 50


def test_cp_ladder_eps_three_rungs(i_eps):
    ladder = cp_ladder(i_eps, 0, 3, Bundle.of(range(i_eps.m)))
    # cap 33 over [94,1,...,1]: only the six ones fit
    assert ladder.rungs[0] == (1, 2, 3, 4, 5, 6)
    assert value_of(i_eps, 0, Bundle(ladder.rungs[0])) == 6
    assert validate_ladder(i_eps, ladder)


def test_cp_ladder_single_rung(i_cp):
    ladder = cp_ladder(i_cp, 0, 1, Bundle.of(range(i_cp.m)))
    assert ladder.rungs == (Bundle.of(range(i_cp.m)).items,)


@pytest.mark.parametrize("n_rungs", [1, 3])
@pytest.mark.parametrize("divider", [-1, 7])
def test_cp_ladder_refuses_a_divider_out_of_range(i_cp, divider, n_rungs):
    # A single rung needs no CP bundle, but the divider is still checked.
    with pytest.raises(InputError, match=f"agent index {divider} out of range for n=1"):
        cp_ladder(i_cp, divider, n_rungs, Bundle.of(range(i_cp.m)))


@pytest.mark.parametrize(
    "query, message",
    [
        (lambda inst: cp_bundle(inst, 0, 0, Bundle.of(range(inst.m))), "k must be at least 1, got 0"),
        (lambda inst: cp_ladder(inst, 0, 0, Bundle.of(range(inst.m))), "n_rungs must be at least 1, got 0"),
    ],
    ids=["cp_bundle-k0", "cp_ladder-n_rungs0"],
)
def test_cp_queries_refuse_a_count_below_one(i_cp, query, message):
    with pytest.raises(InputError, match=message):
        query(i_cp)


def _cp_bundle_chain(inst, n_rungs, base):
    """[S_r, ..., S_1] by public cp_bundle calls: S_k = CP(k, remaining), S_1 the rest."""
    rungs = []
    remaining = base
    for k in range(n_rungs, 1, -1):
        rung = cp_bundle(inst, 0, k, remaining)
        rungs.append(rung.items)
        remaining = Bundle(tuple(j for j in remaining.items if j not in rung.items))
    rungs.append(remaining.items)
    return tuple(rungs)


@st.composite
def _ladder_cases(draw):
    """(row, base items, n_rungs): values up to 3 (many zeros), 100 or 10^9, any sub-base."""
    top = draw(st.sampled_from([3, 100, 10**9]))
    row = draw(st.lists(st.integers(0, top), min_size=1, max_size=12))
    base = draw(st.sets(st.integers(0, len(row) - 1)))
    return row, base, draw(st.integers(min_value=1, max_value=5))


@settings(max_examples=150, deadline=None)
@given(case=_ladder_cases())
@example(case=([0, 3, 0, 3, 3, 0], set(range(6)), 5))
@example(case=([40, 30, 20, 10], set(), 3))
# Values up to 10^9 send every CP query past the bitset to cp_mitm.
@example(case=([10**9, 7, 3 * 10**8, 1, 0, 999_999_999, 5], set(range(7)), 4))
def test_cp_ladder_rungs_are_the_cp_bundle_chain(case):
    row, picked, n_rungs = case
    inst = Instance.of([row])
    base = Bundle.of(picked)
    ladder = cp_ladder(inst, 0, n_rungs, base)
    assert ladder == CpLadder(divider=0, rungs=_cp_bundle_chain(inst, n_rungs, base))
    assert len(ladder.rungs) == n_rungs


def test_validate_ladder_accepts_constructions():
    for s in range(40):
        n_rungs = 2 + s % 4
        m = 1 + s % 9
        inst = random_instance(1, m, 30, seed=900 + s)
        ladder = cp_ladder(inst, 0, n_rungs, Bundle.of(range(inst.m)))
        assert validate_ladder(inst, ladder), (s, ladder)


def test_validate_ladder_rejects_swapped_rungs(i_cp):
    ladder = cp_ladder(i_cp, 0, 2, Bundle.of(range(i_cp.m)))
    swapped = CpLadder(divider=0, rungs=(ladder.rungs[1], ladder.rungs[0]))
    assert not validate_ladder(i_cp, swapped)


def test_validate_ladder_empty_base(i_cp):
    ladder = CpLadder(divider=0, rungs=((), (), ()))
    assert validate_ladder(i_cp, ladder)


def test_validate_ladder_on_sub_base():
    # base excludes the big item the divider loves; bounds are base-relative
    inst = Instance.of([[100, 1, 1]])
    ladder = cp_ladder(inst, 0, 2, Bundle.of({1, 2}))
    assert validate_ladder(inst, ladder)


@pytest.mark.parametrize(
    "divider, rungs",
    [
        (1, ((0, 3), (1, 2))),  # divider out of range
        (0, ()),  # no rungs
        (0, ((0, 3), (1, 2, 4))),  # an item past m
        (0, ((0, 3), (1, 2, 3))),  # overlapping rungs
        (0, ((3, 0), (1, 2))),  # a rung out of order
        (0, ((False, 3), (1, 2))),  # a bool for an item
    ],
    ids=[
        "divider-out-of-range",
        "no-rungs",
        "item-past-m",
        "overlapping-rungs",
        "unsorted-rung",
        "bool-item",
    ],
)
def test_validate_ladder_rejects_malformed_ladders(i_cp, divider, rungs):
    assert i_cp.n == 1 and i_cp.m == 4
    assert validate_ladder(i_cp, cp_ladder(i_cp, 0, 2, Bundle.of(range(i_cp.m))))
    ladder = CpLadder(divider=divider, rungs=rungs)
    assert not validate_ladder(i_cp, ladder)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ladder_bound_property(data):
    n_rungs = data.draw(st.integers(min_value=1, max_value=5))
    m = data.draw(st.integers(min_value=0, max_value=8))
    row = data.draw(st.lists(st.integers(0, 30), min_size=m, max_size=m))
    inst = Instance.of([row]) if row else Instance.of([[0]])
    base = Bundle.of(range(inst.m)) if row else Bundle()
    ladder = cp_ladder(inst, 0, n_rungs, base)
    r = len(ladder.rungs)
    base_value = value_of(inst, 0, base)
    below = base_value
    for pos, k in enumerate(range(r, 0, -1)):
        below -= value_of(inst, 0, Bundle(ladder.rungs[pos]))
        assert r * below >= (k - 1) * base_value


def test_top_rung_guarantees_satisfaction_under_any_completion():
    # handing an agent her k=n CP bundle makes her PROPm-satisfied no matter
    # how the rest is distributed
    for s in range(10):
        inst = random_instance(3, 5, 12, seed=40 + s)
        for agent in range(3):
            top = cp_bundle(inst, agent, 3, Bundle.of(range(inst.m)))
            rest = [j for j in range(5) if j not in top.items]
            others = [k for k in range(3) if k != agent]
            for k in range(2 ** len(rest)):
                completion = allocation_from_index(2, len(rest), k)
                bundles = [[] for _ in range(3)]
                bundles[agent] = list(top.items)
                for sub_idx, owner in enumerate(completion.owners(len(rest))):
                    bundles[others[owner]].append(rest[sub_idx])
                from propm import Allocation

                report = check(inst, Allocation.of(bundles), Notion.PROPM)
                assert report.per_agent[agent].satisfied
