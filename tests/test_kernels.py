"""The split-half scan kernels must agree exactly with the Fraction-based
checker and with plain Python scans over every allocation."""

import gc
import random
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import propm._kernels as kernels
import propm.oracle as oracle
from propm import Instance, Notion, ResourceBudgetError, adjusted_profile, check, mms_value
from propm.fairness import MMS_MEMO_SIZE, _mms_cached
from propm.leximin import leximin_max
from propm.oracle import FIRST_WINDOW, allocation_from_index, random_instance


def _arrays(inst):
    return kernels.instance_arrays(inst.values, inst.totals)


def _expected_masks(inst, index):
    """{notion: per-agent verdicts of the exact checker} at allocation ``index``."""
    allocation = allocation_from_index(inst.n, inst.m, index)
    return {
        notion: [v.satisfied for v in check(inst, allocation, notion).per_agent]
        for notion in Notion
    }


def _assert_masks(masks, inst, start, want=kernels.ALL_NOTIONS):
    for t in range(masks.shape[0]):
        expected = _expected_masks(inst, start + t)
        for notion in Notion:
            bit = 1 << notion.code
            got = [(int(masks[t, i]) & bit) != 0 for i in range(inst.n)]
            assert got == (expected[notion] if want & bit else [False] * inst.n), (
                start + t,
                notion,
            )


def test_notion_codes_are_the_kernel_bits():
    assert sorted(notion.code for notion in Notion) == list(range(kernels.NOTION_COUNT))


def _brute_mms_window(row, n, start, count):
    """Best worst-bundle value of ``row`` over allocations start..start+count-1."""
    best = -1
    for index in range(start, start + count):
        sums = [0] * n
        for j, v in enumerate(row):
            index, owner = divmod(index, n)
            sums[owner] += v
        best = max(best, min(sums))
    return best


@pytest.mark.parametrize("seed", range(10))
def test_masks_match_exact_checker(seed):
    """The active backend must agree with the Fraction-based reference for
    every notion, agent, and allocation."""
    n = 2 + seed % 3
    m = 1 + seed % 5
    inst = random_instance(n, m, 20, seed=4900 + seed)
    values, totals = _arrays(inst)
    mms = np.array([mms_value(inst, i) for i in range(n)], np.int64)
    total = n**m
    masks = kernels.notion_masks(values, totals, mms, 0, total)
    for index in range(total):
        allocation = allocation_from_index(n, m, index)
        for notion in Notion:
            bit = 1 << notion.code
            expected = [v.satisfied for v in check(inst, allocation, notion).per_agent]
            got = [(int(masks[index, i]) & bit) != 0 for i in range(n)]
            assert got == expected, (seed, index, notion)


# (n, m) pairs covering one agent, no items, an empty low half (m <= 1) and
# windows that start and end inside a high-half row.
WINDOW_SIZES = [(1, 0), (1, 3), (3, 0), (3, 1), (5, 1), (2, 4), (3, 3), (4, 3), (2, 7), (3, 5)]


@pytest.mark.parametrize("n, m", WINDOW_SIZES)
def test_masks_match_checker_on_windows_and_subsets(n, m):
    rng = random.Random(n * 100 + m)
    inst = random_instance(n, m, rng.choice((0, 3, 50)), seed=5100 + 10 * n + m)
    values, totals = _arrays(inst)
    mms = np.array([mms_value(inst, i) for i in range(n)], np.int64)
    total = n**m
    expected = {}
    for index in range(total):
        allocation = allocation_from_index(n, m, index)
        for notion in Notion:
            per_agent = check(inst, allocation, notion).per_agent
            expected[index, notion] = [v.satisfied for v in per_agent]
    for _ in range(8):
        start = rng.randrange(total)
        count = rng.randint(1, total - start)
        want = rng.randrange(1 << kernels.NOTION_COUNT)
        masks = kernels.notion_masks(values, totals, mms, start, count, want=want)
        assert masks.shape == (count, n)
        for t in range(count):
            for notion in Notion:
                bit = 1 << notion.code
                got = [(int(masks[t, i]) & bit) != 0 for i in range(n)]
                wanted = expected[start + t, notion] if want & bit else [False] * n
                assert got == wanted, (start, count, want, t, notion)


@pytest.mark.parametrize("n", [10, 16])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_masks_match_checker_for_wide_agent_counts(n, m):
    """The agent counts of the exists workload's wide slice, with zeros, ties
    and identical rows, on the early-exit window schedule: every allocation
    next to the first window's start and to the window boundaries at 256
    and 768, and the last few."""
    rng = random.Random(n * 10 + m)
    rows = [[rng.choice((0, 0, 1, 2, 2, 7)) for _ in range(m)] for _ in range(n - 3)]
    rows += [list(rows[0]), list(rows[0]), [0] * m]
    inst = Instance.of(rows)
    values, totals = _arrays(inst)
    mms = np.array([mms_value(inst, i) for i in range(n)], np.int64)
    total = n**m
    edges = (0, FIRST_WINDOW, 3 * FIRST_WINDOW, total)
    near = sorted({t for edge in edges for t in range(edge - 5, edge + 5) if 0 <= t < total})
    plan = kernels.ScanPlan(values, n, kernels.scan_chunk(n))
    for start, count in plan.windows(0, total, FIRST_WINDOW):
        inside = [t for t in near if start <= t < start + count]
        if inside:
            masks = kernels.notion_masks(values, totals, mms, start, count, plan=plan)
            for t in inside:
                _assert_masks(masks[t - start : t - start + 1], inst, t)


# Alt-median and alt-mode edge cases: no items, one agent owning every item,
# a row of equal values (one run), zeros, and two equally frequent values
# among an even count of the others' items (lower median, smaller mode).
ALT_EDGES = [
    [[]],
    [[], [], []],
    [[3, 1, 2]],
    [[2, 2, 2, 2], [2, 2, 2, 2]],
    [[0, 0, 0], [1, 0, 1], [0, 0, 0]],
    [[1, 1, 5, 5, 4], [0, 3, 3, 0, 1]],
    [[1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1], [2, 2, 9, 9, 1, 1]],
]
_ALT_BITS = (1 << kernels.ALT_MEDIAN, 1 << kernels.ALT_MODE)


@pytest.mark.parametrize("rows", ALT_EDGES)
@pytest.mark.parametrize("want", [_ALT_BITS[0] | _ALT_BITS[1], *_ALT_BITS])
def test_alt_median_and_mode_edge_cases(rows, want):
    inst = Instance.of(rows)
    values, totals = _arrays(inst)
    mms = np.full(inst.n, -1, np.int64)
    total = inst.n**inst.m
    _assert_masks(kernels.notion_masks(values, totals, mms, 0, total, want=want), inst, 0, want)


# PROP1 and PROPx read the greatest and least item the others own: fewer
# items than agents (so others often own nothing), one agent, zeros, ties,
# and a row of zeros next to identical rows.
BONUS_EDGES = [
    [[], []],
    [[4, 0, 2]],
    [[5], [5], [0]],
    [[3, 0], [3, 0], [1, 2], [0, 0]],
    [[0, 6, 6], [2, 2, 2], [0, 0, 0], [9, 0, 1], [1, 1, 7]],
    [[1, 1, 5, 5, 4], [0, 3, 3, 0, 1]],
]
_BONUS_BITS = (1 << kernels.PROP1, 1 << kernels.PROPX)


@pytest.mark.parametrize("rows", BONUS_EDGES)
@pytest.mark.parametrize("want", [_BONUS_BITS[0] | _BONUS_BITS[1], *_BONUS_BITS])
def test_prop1_and_propx_edge_cases(rows, want):
    inst = Instance.of(rows)
    values, totals = _arrays(inst)
    total = inst.n**inst.m
    # Every allocation, so also each one that gives one agent every item.
    for plan in (None, kernels.ScanPlan(values, inst.n, 2, workspace=True)):
        masks = kernels.notion_masks(
            values, totals, np.full(inst.n, -1, np.int64), 0, total, want=want, plan=plan
        )
        _assert_masks(masks, inst, 0, want)


def test_alt_median_and_mode_take_the_smaller_of_two_candidates():
    # Agent 0 holds item 4 (worth 4 of 16) at index 15; the others hold
    # 1, 1, 5, 5. The lower median and the smaller mode are 1, so
    # 2 * (4 + 1) < 16 fails where the upper median or larger mode, 5, passes.
    inst = Instance.of([[1, 1, 5, 5, 4], [0, 3, 3, 0, 1]])
    values, totals = _arrays(inst)
    masks = kernels.notion_masks(values, totals, np.full(2, -1, np.int64), 15, 1)
    assert int(masks[0, 0]) & (_ALT_BITS[0] | _ALT_BITS[1]) == 0
    for notion in (Notion.ALT_MEDIAN, Notion.ALT_MODE):
        assert not check(inst, allocation_from_index(2, 5, 15), notion).per_agent[0].satisfied


def test_agent_blocks_and_small_windows_give_the_same_masks(monkeypatch):
    """Splitting agents into blocks, planning for windows too small for a
    low or mid half (so every high row is computed from its top items) and
    keeping no table change no bit."""
    inst = random_instance(5, 5, 30, seed=5300)
    values, totals = _arrays(inst)
    mms = np.array([mms_value(inst, i) for i in range(5)], np.int64)
    whole = kernels.notion_masks(values, totals, mms, 0, 5**5)
    lexi = kernels.leximin_scan(values, 0, 5**5)
    monkeypatch.setattr(kernels, "SCAN_BYTES", 1)
    assert kernels.scan_chunk(5) == 1
    assert len(kernels._agent_blocks(5, 7)) == 5
    for start, count in ((0, 5**5), (7, 3), (1234, 1), (3000, 125)):
        got = kernels.notion_masks(values, totals, mms, start, count)
        assert np.array_equal(got, whole[start : start + count])
    assert kernels.leximin_scan(values, 0, 5**5)[0] == lexi[0]


def _python_leximin(inst, start, count):
    best, best_index = None, -1
    for index in range(start, start + count):
        profile = adjusted_profile(inst, allocation_from_index(inst.n, inst.m, index))
        if best is None or profile.ascending > best:
            best, best_index = profile.ascending, index
    return best_index, best


@pytest.mark.parametrize(
    "values",
    [
        [[3, 1, 4, 1, 5], [9, 2, 6, 5, 3], [5, 8, 9, 7, 9]],
        [[2, 2, 2, 2], [2, 2, 2, 2]],  # many tied profiles: first index wins
        [[7, 0, 0, 7, 1, 1]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[10, 1], [1, 10], [5, 5], [4, 6]],
    ],
)
def test_leximin_scan_matches_python_scan(values):
    inst = Instance.of(values)
    arr, _ = _arrays(inst)
    total = inst.n**inst.m
    rng = random.Random(len(values) * 31 + inst.m)
    windows = [(0, total)] + [
        (s, rng.randint(1, total - s)) for s in (rng.randrange(total) for _ in range(4))
    ]
    for start, count in windows:
        index, profile = kernels.leximin_scan(arr, start, count)
        ref_index, ref = _python_leximin(inst, start, count)
        assert index == ref_index, (start, count)
        # integer profile is n * adjusted value
        assert [int(p) for p in profile] == [int(inst.n * v) for v in ref]


# Tie-heavy instances: many allocations share the leximin-best profile.
LEXIMIN_TIES = [
    [[0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
    [[3, 1, 2], [3, 1, 2], [3, 1, 2]],
    [[2, 2, 2, 2], [2, 2, 2, 2]],
]


@pytest.mark.parametrize("values", LEXIMIN_TIES)
def test_leximin_scan_keeps_the_first_index_on_every_window_of_a_tie(values):
    inst = Instance.of(values)
    arr, _ = _arrays(inst)
    total = inst.n**inst.m
    profiles = [
        adjusted_profile(inst, allocation_from_index(inst.n, inst.m, t)).ascending
        for t in range(total)
    ]
    plan = kernels.ScanPlan(arr, inst.n, total)
    for start in range(total):
        for stop in range(start + 1, total + 1):
            best = max(profiles[start:stop])
            index, profile = kernels.leximin_scan(arr, start, stop - start, plan=plan)
            assert index == profiles.index(best, start), (start, stop)
            assert [int(p) for p in profile] == [int(inst.n * v) for v in best]


@pytest.mark.parametrize("values", LEXIMIN_TIES)
def test_leximin_max_keeps_the_first_index_across_small_windows(monkeypatch, values):
    monkeypatch.setattr(kernels, "CHUNK", 3)
    inst = Instance.of(values)
    ref_index, ref = _python_leximin(inst, 0, inst.n**inst.m)
    allocation, profile = leximin_max(inst)
    assert allocation == allocation_from_index(inst.n, inst.m, ref_index)
    assert profile.ascending == ref


@pytest.mark.parametrize("n, m", [(1, 4), (2, 0), (2, 5), (3, 4), (4, 3), (5, 2)])
def test_mms_scan_matches_brute_force(n, m):
    rows = random_instance(n, m, 40, seed=5500 + n * 10 + m).values
    arr = np.array(rows, np.int64)
    total = n**m
    worst = [[] for _ in rows]
    for owners in product(range(n), repeat=m):
        for row, out in zip(rows, worst):
            sums = [0] * n
            for j, k in enumerate(reversed(owners)):
                sums[k] += row[j]
            out.append(min(sums))
    assert kernels.mms_scan(arr, n, 0, total).tolist() == [max(w) for w in worst]
    rng = random.Random(n + m)
    for _ in range(5):
        start = rng.randrange(total)
        count = rng.randint(1, total - start)
        got = kernels.mms_scan(arr, n, start, count).tolist()
        assert got == [max(w[start : start + count]) for w in worst], (start, count)


def _brute_mms(rows, n):
    """Every row's maximin share over all n^m allocations, by numpy brute force."""
    m = len(rows[0]) if rows else 0
    owners = np.array(list(product(range(n), repeat=m)), np.int64).reshape(n**m, m)
    values = np.array(rows, np.int64).reshape(len(rows), m)
    in_bundle = owners[None, :, :] == np.arange(n)[:, None, None]  # [bundle, alloc, item]
    sums = (in_bundle[None] * values[:, None, None, :]).sum(axis=-1)  # [row, bundle, alloc]
    return sums.min(axis=1).max(axis=1).tolist()


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("m", range(8))
def test_mms_value_matches_brute_force_for_every_agent(n, m):
    """Zeros, ties, two identical rows and an all-zero row; every agent's
    value comes from one scan of the instance."""
    rng = random.Random(n * 100 + m)
    rows = [[rng.choice((0, 0, 1, 2, 2, 7, 30)) for _ in range(m)] for _ in range(n)]
    if n > 2:
        rows[1] = list(rows[0])
        rows[2] = [0] * m
    inst = Instance.of(rows)
    _mms_cached.cache_clear()
    assert [mms_value(inst, i) for i in range(n)] == _brute_mms(rows, n)


def test_mms_values_of_every_agent_come_from_one_scan(monkeypatch):
    calls = []
    scan = kernels.mms_scan

    def counted(values, n, start, count, plan=None):
        calls.append((values.shape[0], start, count))
        return scan(values, n, start, count, plan=plan)

    monkeypatch.setattr(kernels, "mms_scan", counted)
    small, wide = random_instance(4, 5, 30, 5510), random_instance(3, 11, 30, 5511)
    for inst in (small, wide):
        _mms_cached.cache_clear()
        calls.clear()
        first = [mms_value(inst, i) for i in range(inst.n)]
        assert first == _brute_mms(inst.values, inst.n)
        # One window schedule over [0, n^(m-1)), each window for all n rows.
        plan = kernels.ScanPlan(_arrays(inst)[0], inst.n, kernels.scan_chunk(inst.n))
        windows = list(plan.windows(0, inst.n ** (inst.m - 1)))
        assert calls == [(inst.n, start, count) for start, count in windows]
        assert [mms_value(inst, i) for i in reversed(range(inst.n))] == first[::-1]
        oracle.exists(inst, Notion.MMS)
        assert len(calls) == len(windows)
    assert len(windows) > 1
    assert _mms_cached.cache_info().maxsize == MMS_MEMO_SIZE


def test_backend_flag_reported():
    assert kernels.BACKEND == "numpy"


def test_instance_arrays_guard():
    # The alt-mean test multiplies up to n * (m+1) * total; it must stay below 2^63.
    limit = (1 << 63) // (2 * 4)  # n = 2, m = 3
    row = (limit // 2, limit // 4, limit // 4 - 1)  # total = limit - 1
    kernels.instance_arrays((row, row), (limit - 1, limit - 1))
    over = (limit // 2, limit // 4, limit // 4)
    with pytest.raises(ResourceBudgetError, match="int64"):
        kernels.instance_arrays((over, row), (limit, limit - 1))
    # n = 10^4, m = 1 at totals near 2^50 would overflow silently.
    big = ((1 << 50),) * 10**4
    with pytest.raises(ResourceBudgetError, match="int64"):
        kernels.instance_arrays(tuple((v,) for v in big), big)


def test_masks_exact_at_the_int64_boundary():
    limit = (1 << 63) // (2 * 4)
    inst = Instance.of(
        [[limit // 2, limit // 4, limit // 4 - 1], [limit // 4 - 1, limit // 4, limit // 2]]
    )
    values, totals = _arrays(inst)
    mms = np.array([mms_value(inst, i) for i in range(2)], np.int64)
    masks = kernels.notion_masks(values, totals, mms, 0, 8)
    for index in range(8):
        allocation = allocation_from_index(2, 3, index)
        for notion in Notion:
            bit = 1 << notion.code
            expected = [v.satisfied for v in check(inst, allocation, notion).per_agent]
            assert [(int(masks[index, i]) & bit) != 0 for i in range(2)] == expected


def _boundary_rows(limit, at):
    """n = 2, m = 3 rows with n * (m+1) * max total = 8 * (limit - 1), or 8 * limit if ``at``."""
    return [
        [limit // 2, limit // 4, limit // 4 - (not at)],
        [limit // 4 - 1, limit // 4, limit // 2],
    ]


def _spike_rows(limit, m):
    """n = 2 rows worth one item each, the largest total with n * (m+1) * total < limit.

    An agent holding its item while the other holds the m - 1 zeros makes
    the alt-mean intermediate 2 * (total * (m-1)), (m-1)/(m+1) of the bound.
    """
    total = (limit - 1) // (2 * (m + 1))
    return [[total] + [0] * (m - 1), [0] * (m - 1) + [total]]


def _assert_scans_exact(rows, dtype):
    """Every notion against ``check``, ``leximin_scan`` against the Python
    scan and ``mms_scan`` against brute force, over every allocation."""
    inst = Instance.of(rows)
    n, count = inst.n, inst.n**inst.m
    values, totals = _arrays(inst)
    assert values.dtype == dtype and totals.dtype == dtype
    mms = np.array([mms_value(inst, i) for i in range(n)], np.int64)
    _assert_masks(kernels.notion_masks(values, totals, mms, 0, count), inst, 0)
    index, profile = kernels.leximin_scan(values, 0, count)
    ref_index, ref = _python_leximin(inst, 0, count)
    assert index == ref_index
    assert [int(p) for p in profile] == [int(n * v) for v in ref]
    expected = [_brute_mms_window(row, n, 0, count) for row in rows]
    assert kernels.mms_scan(values, n, 0, count).tolist() == expected
    assert mms.tolist() == [_brute_mms_window(row, n, 0, count // n) for row in rows]


# n = 2, m = 3: n * (m+1) * max total = 8 * total. 2^31 - 1 is prime, so no
# instance with items reaches it; 8 * (2^28 - 1) = 2^31 - 8 is the largest
# value below the switch and 8 * 2^28 = 2^31 the smallest above it.
INT32_LIMIT = (1 << 31) // (2 * 4)


@pytest.mark.parametrize(
    "rows, dtype",
    [(_boundary_rows(INT32_LIMIT, False), np.int32), (_boundary_rows(INT32_LIMIT, True), np.int64)],
)
def test_scans_exact_at_the_int32_boundary(rows, dtype):
    _assert_scans_exact(rows, dtype)


# The same at the int16 switch: 8 * (2^12 - 1) = 2^15 - 8 and 8 * 2^12 = 2^15.
INT16_LIMIT = (1 << 15) // (2 * 4)


@pytest.mark.parametrize(
    "rows, dtype",
    [
        (_boundary_rows(INT16_LIMIT, False), np.int16),
        (_boundary_rows(INT16_LIMIT, True), np.int32),
        (_spike_rows(1 << 15, 9), np.int16),
    ],
)
def test_scans_exact_at_the_int16_boundary(rows, dtype):
    _assert_scans_exact(rows, dtype)


def test_all_zero_values_size_the_dtype_by_the_item_count():
    # Bundle sizes reach m even when every value is 0.
    values, totals = kernels.instance_arrays(((0,) * (1 << 15),), (0,))
    assert values.dtype == totals.dtype == np.int32
    assert kernels.instance_arrays(((0,) * 100,), (0,))[0].dtype == np.int16


# -- differential fuzz ----------------------------------------------------------

_GUARDS = (1 << 15, 1 << 31, 1 << 63)


@st.composite
def _fuzz_instances(draw):
    """Instances with zeros, ties and all-equal rows, at small values or with
    n * (m+1) * max total within a few units of the int16 or the int32
    switch or below the int64 guard."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 6))
    scale = draw(st.sampled_from(("small", "medium", "int16", "int32", "int64")))
    if scale == "small" or not m:
        rows = [draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)) for _ in range(n)]
    elif scale == "medium":
        rows = [draw(st.lists(st.integers(0, 100), min_size=m, max_size=m)) for _ in range(n)]
    else:
        base = n * (m + 1)
        if scale == "int64":
            top = (_GUARDS[2] - 1) // base - draw(st.integers(0, 3))
        else:
            top = _GUARDS[0 if scale == "int16" else 1] // base + draw(st.integers(-3, 3))
        rows = []
        for i in range(n):
            weights = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
            if not any(weights):
                weights = [1] * m
            total = top if i == 0 else draw(st.integers(0, top))
            row = [total * w // sum(weights) for w in weights]
            row[-1] += total - sum(row)
            rows.append(row)
    if draw(st.booleans()):
        rows = [list(rows[0]) for _ in range(n)]
    return Instance.of(rows)


@settings(max_examples=60, deadline=None)
@given(inst=_fuzz_instances(), data=st.data())
def test_scans_match_the_reference_on_fuzzed_windows(inst, data):
    n, m = inst.n, inst.m
    values, totals = _arrays(inst)
    worst = n * (m + 1) * max(inst.totals)
    assert values.dtype == (
        np.int16 if worst < _GUARDS[0] else np.int32 if worst < _GUARDS[1] else np.int64
    )
    mms = np.array([mms_value(inst, i) for i in range(n)], np.int64)
    total = n**m
    # A kept workspace holds whatever earlier examples left in it.
    workspace = data.draw(st.booleans())
    plan = kernels.ScanPlan(values, n, data.draw(st.integers(1, 40)), workspace=workspace)
    for use_plan in (True, True, False):
        start = data.draw(st.integers(0, total - 1))
        count = data.draw(st.integers(1, min(total - start, 10)))
        want = data.draw(st.integers(0, kernels.ALL_NOTIONS))
        window_plan = plan if use_plan else None
        masks = kernels.notion_masks(
            values, totals, mms, start, count, want=want, plan=window_plan
        )
        assert masks.shape == (count, n)
        _assert_masks(masks, inst, start, want)
        index, profile = kernels.leximin_scan(values, start, count, plan=window_plan)
        ref_index, ref = _python_leximin(inst, start, count)
        assert index == ref_index
        assert [int(p) for p in profile] == [int(n * v) for v in ref]
    mms_plan = kernels.ScanPlan(values, n, data.draw(st.integers(1, 40)), workspace=workspace)
    start = data.draw(st.integers(0, total - 1))
    count = data.draw(st.integers(1, min(total - start, 30)))
    expected = [_brute_mms_window(row, n, start, count) for row in inst.values]
    assert kernels.mms_scan(values, n, start, count, plan=mms_plan).tolist() == expected


# -- the scan plan ---------------------------------------------------------------


def _direct_stat(values, n, name, agents, owners):
    """Statistic ``name`` of one assignment, computed per item: [lead, mid].

    ``owners`` maps item index -> bundle for the items the statistic covers.
    """
    rows = range(len(values))[agents]
    big = np.iinfo(values.dtype).max
    if name == "own":
        return [[sum(int(values[a][j]) for j, b in owners.items() if b == a) for a in rows]]
    if name in ("others_max", "others_min"):
        others = [[int(values[a][j]) for j, b in owners.items() if b != a] for a in rows]
        if name == "others_max":
            return [[max(got, default=0) for got in others]]
        return [[min(got, default=big) for got in others]]
    if name == "size":
        return [[sum(1 for b in owners.values() if b == d) for d in range(n)]]
    out = []
    for d in range(n):
        out.append([])
        for a in rows:
            got = [int(values[a][j]) for j, b in owners.items() if b == d]
            if name == "val":
                out[-1].append(sum(got))
            elif name == "min":
                out[-1].append(min(got, default=big))
            else:
                out[-1].append(max(got, default=0))
    return out


def _digits(index, n, items):
    owners = {}
    for j in items:
        index, owners[j] = divmod(index, n)
    return owners


STATS = ("val", "min", "max", "own", "others_max", "others_min", "size")

# (n, m, planned window): top items above the mid items (windows straddle
# several top assignments), a full high table, one agent, no items, one item,
# and n above the window.
PLAN_SIZES = [(3, 7, 9), (2, 5, 4), (4, 3, 20), (1, 4, 1), (3, 0, 8), (3, 1, 8), (5, 2, 3)]


@pytest.mark.parametrize("scan_bytes", [None, 1])
@pytest.mark.parametrize("n, m, window", PLAN_SIZES)
def test_plan_tables_and_windows_match_a_direct_computation(monkeypatch, n, m, window, scan_bytes):
    if scan_bytes is not None:
        monkeypatch.setattr(kernels, "SCAN_BYTES", scan_bytes)
    rng = random.Random(n * 1000 + m * 10 + window)
    values = np.array(
        [[rng.choice((0, 1, 2, 2, 7, 30)) for _ in range(m)] for _ in range(n)], np.int32
    )
    plan = kernels.ScanPlan(values, n, window)
    h, k = plan.h, plan.k
    assert h <= m // 2 and k <= m - h
    assert (h == 0 or n**h <= window) and (k == 0 or n**k <= window)
    blocks = [slice(None), slice(0, 1)] + ([slice(1, n)] if n > 1 else [])
    total = n**m
    windows = [(0, min(total, 300))] + [
        (s, rng.randint(1, min(total - s, 300))) for s in (rng.randrange(total) for _ in range(6))
    ]
    for name in STATS:
        for agents in blocks if name in ("val", "min", "max") else [slice(None)]:
            low, mid = plan._halves(name, agents)
            for lo, hi, table in ((0, h, low), (h, h + k, mid)):
                ref = np.array(
                    [_direct_stat(values, n, name, agents, _digits(c, n, range(lo, hi)))
                     for c in range(n ** (hi - lo))]
                ).transpose(1, 2, 0)
                assert np.array_equal(np.broadcast_to(table, ref.shape), ref), (name, lo, hi)
            for start, count in windows:
                got = plan.window(name, agents, start, count)
                ref = np.array(
                    [_direct_stat(values, n, name, agents, _digits(t, n, range(m)))
                     for t in range(start, start + count)]
                ).transpose(1, 2, 0)
                assert got.dtype == values.dtype
                assert np.array_equal(got, ref), (name, agents, start, count)
    # Tables are kept for the scan unless they and a window overflow SCAN_BYTES.
    assert bool(plan._tables) == (scan_bytes is None)


def test_plans_split_agents_into_blocks_under_a_small_budget(monkeypatch):
    # Two agents' 4 x 4 int64 window statistics of one allocation.
    monkeypatch.setattr(kernels, "SCAN_BYTES", 3 * 8 * 4 * 2)
    values = np.array(random_instance(4, 3, 9, seed=5600).values, np.int32)
    plan = kernels.ScanPlan(values, 4, 1)
    assert len(plan.blocks) == 2
    whole = kernels.ScanPlan(values, 4, 64)
    for agents in plan.blocks:
        for start, count in ((0, 64), (5, 1), (17, 9)):
            assert np.array_equal(
                plan.window("min", agents, start, count),
                whole.window("min", slice(None), start, count)[:, agents],
            )


def test_plans_narrow_the_mid_table_to_fit_the_budget(monkeypatch):
    values = np.array(random_instance(3, 6, 9, seed=5610).values, np.int32)
    wide = kernels.ScanPlan(values, 3, 27)
    assert (wide.h, wide.k, wide._keep) == (3, 3, True)
    monkeypatch.setattr(kernels, "SCAN_BYTES", wide._bytes(3, 2, 27))
    narrow = kernels.ScanPlan(values, 3, 27)
    assert (narrow.h, narrow.k, narrow._keep) == (3, 2, True)
    # Below the bytes of a low table alone nothing is kept, and k stays widest.
    monkeypatch.setattr(kernels, "SCAN_BYTES", wide._bytes(3, 0, 27) - 1)
    rebuilt = kernels.ScanPlan(values, 3, 27)
    assert (rebuilt.h, rebuilt.k, rebuilt._keep) == (3, 3, False)
    for name in STATS:
        for start, count in ((0, 27), (20, 27), (100, 300), (728, 1)):
            expected = wide.window(name, slice(None), start, count)
            assert np.array_equal(narrow.window(name, slice(None), start, count), expected)
            assert np.array_equal(rebuilt.window(name, slice(None), start, count), expected)
    assert narrow._tables and not rebuilt._tables


def test_contribution_arrays_count_against_the_budget_and_are_not_kept(monkeypatch):
    values = np.array(random_instance(3, 6, 9, seed=5610).values, np.int32)
    built = []
    contributions = kernels.ScanPlan._contributions

    def recorded(plan, *args):
        got = contributions(plan, *args)
        built.append((got.size, weakref.ref(got)))
        return got

    monkeypatch.setattr(kernels.ScanPlan, "_contributions", recorded)
    plan = kernels.ScanPlan(values, 3, 27)
    h, k = plan.h, plan.k
    assert (h, k, plan._keep) == (3, 3, True)
    tables = sum(t.size for name in STATS for t in plan._halves(name, slice(None)))
    assert len(built) == len(STATS)
    # Every table, each statistic's contribution array and a window's statistics.
    cells = tables + sum(size for size, _ in built) + kernels._STAT_CELLS * 3 * 3 * 27
    assert plan._bytes(h, k, 27) == cells * values.itemsize
    # Below the bytes of a low table alone every window rebuilds the tables
    # from a new contribution array, and the plan keeps neither.
    monkeypatch.setattr(kernels, "SCAN_BYTES", plan._bytes(h, 0, 27) - 1)
    rebuilt = kernels.ScanPlan(values, 3, 27)
    assert not rebuilt._keep
    for start, count in ((0, 27), (100, 27)):
        for name in STATS:
            rebuilt.window(name, slice(None), start, count)
    assert len(built) == 3 * len(STATS) and not rebuilt._tables
    gc.collect()
    assert all(ref() is None for _, ref in built)


def test_plans_without_tabulated_items_build_no_contribution_array(monkeypatch):
    values = np.array(random_instance(5, 2, 9, seed=5620).values, np.int32)
    plan = kernels.ScanPlan(values, 5, 3)
    assert plan.h == plan.k == 0
    monkeypatch.setattr(kernels.ScanPlan, "_contributions", None)
    for name in STATS:
        assert [t.shape for t in plan._halves(name, slice(None))] == [(1, 1, 1)] * 2


# -- the kept workspace ----------------------------------------------------------


def _in_a_fresh_thread(fn):
    """fn() run in a new thread, whose workspace starts empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


def _audit_arrays(n, m, seed):
    inst = random_instance(n, m, 100, seed)
    values, totals = _arrays(inst)
    mms = np.array([mms_value(inst, i) for i in range(n)], np.int64)
    return values, totals, mms


@pytest.mark.parametrize("n, m", [(3, 9), (4, 7), (5, 6)])
def test_a_kept_plan_allocates_little_past_its_first_window(n, m):
    """The audit's masks and the leximin scan of a later window write their
    statistics into the kept workspace: what they newly allocate peaks at
    1.5 [n, n, count] statistics (about 4x and 2x without the workspace)."""
    values, totals, mms = _audit_arrays(n, m, 5800 + n)
    plan = kernels.ScanPlan(values, n, kernels.scan_chunk(n), workspace=True)
    (first, second) = list(plan.windows(0, n**m))[:2]
    statistic = n * n * second[1] * values.itemsize
    scans = {
        "notion_masks": lambda start, count: kernels.notion_masks(
            values, totals, mms, start, count, want=oracle._AUDIT_WANT, plan=plan
        ),
        "leximin_scan": lambda start, count: kernels.leximin_scan(values, start, count, plan=plan),
    }
    for name, scan in scans.items():
        scan(*first)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            scan(*second)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * statistic, (name, peak / statistic)


def test_window_results_survive_the_next_window():
    """No kernel returns a view of the workspace: masks, profiles and MMS
    values of one window keep their values while the next window runs."""
    n, m = 4, 7
    values, totals, mms = _audit_arrays(n, m, 5810)
    plan = kernels.ScanPlan(values, n, 300, workspace=True)
    mms_plan = kernels.ScanPlan(values, n, 300, workspace=True)
    kept = []
    for start, count in list(plan.windows(0, n**m))[:4]:
        got = (
            kernels.notion_masks(values, totals, mms, start, count, plan=plan),
            kernels.leximin_scan(values, start, count, plan=plan),
            kernels.mms_scan(values, n, start, count, plan=mms_plan),
        )
        fresh = (
            kernels.notion_masks(values, totals, mms, start, count),
            kernels.leximin_scan(values, start, count),
            kernels.mms_scan(values, n, start, count),
        )
        kept.append((got, fresh))
    for (masks, (index, profile), best), (ref_masks, (ref_index, ref_profile), ref_best) in kept:
        assert np.array_equal(masks, ref_masks)
        assert index == ref_index
        assert np.array_equal(profile, ref_profile)
        assert np.array_equal(best, ref_best)


def _reference_audit(inst):
    """(implication, allocation index, agent) of every violation, by the exact checker."""
    found = []
    for index in range(inst.n**inst.m):
        allocation = allocation_from_index(inst.n, inst.m, index)
        ok = {
            notion: [v.satisfied for v in check(inst, allocation, notion).per_agent]
            for notion in {n for _, a, c in oracle.IMPLICATIONS for n in (a, c)}
        }
        for agent in range(inst.n):
            for label, a, c in sorted(oracle.IMPLICATIONS):
                if ok[a][agent] and not ok[c][agent]:
                    found.append((label, index, agent))
    return found


def test_a_workspace_warmed_by_a_larger_audit_gives_exact_small_scans():
    """An n = 6 audit leaves wider buffers in the thread's workspace; an
    n = 3 audit, leximin maximum and MMS scan then read their windows from
    the front of them, at int16 and at int32."""
    small = [random_instance(3, 6, 50, 5820), random_instance(3, 6, 10**6, 5821)]
    assert [_arrays(inst)[0].dtype for inst in small] == [np.int16, np.int32]

    def scans():
        oracle.implication_audit(random_instance(6, 6, 100, 5822))
        warmed = {slot: buf.size for slot, buf in kernels._WORKSPACE.buffers.items()}
        results = []
        for inst in small:
            _mms_cached.cache_clear()
            report = oracle.implication_audit(inst)
            results.append(
                (
                    [(v.implication, v.allocation_index, v.agent) for v in report.violations],
                    leximin_max(inst),
                    [mms_value(inst, i) for i in range(inst.n)],
                )
            )
        after = {slot: buf.size for slot, buf in kernels._WORKSPACE.buffers.items()}
        return warmed, after, results

    warmed, after, results = _in_a_fresh_thread(scans)
    # The audit reads no bundle sizes; the small scans grew no buffer.
    assert set(warmed) == {"own", "others", "val", "rival", "cmp"} and after == warmed
    for inst, (violations, (allocation, profile), mms) in zip(small, results):
        assert violations == _reference_audit(inst)
        ref_index, ref = _python_leximin(inst, 0, inst.n**inst.m)
        assert allocation == allocation_from_index(inst.n, inst.m, ref_index)
        assert profile.ascending == ref
        assert mms == [_brute_mms_window(row, inst.n, 0, inst.n**inst.m) for row in inst.values]


def test_a_workspace_stays_within_the_scan_budget(monkeypatch):
    """Each slot holds at most one window's statistic, and all of a thread's
    slots together stay within SCAN_BYTES, here small enough that it, not
    CHUNK, sizes the windows, at int16 and int64."""
    monkeypatch.setattr(kernels, "SCAN_BYTES", 1 << 16)
    instances = [random_instance(n, 5, top, 5830 + n) for n in (3, 4, 5) for top in (9, 10**15)]

    def scans():
        largest = 0
        for inst in instances:
            values = _arrays(inst)[0]
            oracle.implication_audit(inst)
            leximin_max(inst)
            _mms_cached.cache_clear()
            mms_value(inst, 0)
            window = kernels.scan_chunk(inst.n) * inst.n * inst.n * values.itemsize
            largest = max(largest, window)
        return largest, {slot: buf.size for slot, buf in kernels._WORKSPACE.buffers.items()}

    largest, sizes = _in_a_fresh_thread(scans)
    assert max(sizes.values()) <= largest
    assert sum(sizes.values()) <= kernels.SCAN_BYTES


def test_pool_threads_drop_their_workspaces(monkeypatch):
    """Windows scanned on pool threads fill those threads' own workspaces,
    which go with the pool; the calling thread's stays."""
    monkeypatch.setattr(oracle, "POOL_BREAK_EVEN", 0)
    monkeypatch.setattr(kernels, "CHUNK", 64)
    made = []
    take = kernels._Workspace.take

    def recorded(workspace, slot, shape, dtype):
        got = take(workspace, slot, shape, dtype)
        made.append((threading.get_ident(), weakref.ref(workspace.buffers[slot])))
        return got

    monkeypatch.setattr(kernels._Workspace, "take", recorded)
    inst = random_instance(3, 6, 50, 5840)
    assert oracle.implication_audit(inst, workers=2) == oracle.implication_audit(inst)
    gc.collect()
    caller = threading.get_ident()
    pooled = [ref for ident, ref in made if ident != caller]
    assert pooled and all(ref() is None for ref in pooled)
    assert {"own", "val", "rival", "cmp"} <= set(kernels._WORKSPACE.buffers)
