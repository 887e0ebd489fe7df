"""The split-half scan kernels must agree exactly with the Fraction-based
checker and with plain Python scans over every allocation."""

import random
from itertools import product

import numpy as np
import pytest

import propm._kernels as kernels
from propm import Instance, InputError, Notion, adjusted_profile, check, mms_value
from propm.fairness import _NOTION_CODES
from propm.oracle import allocation_from_index, random_instance


def _arrays(inst):
    return kernels.instance_arrays(inst.values, inst.totals)


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
            bit = 1 << _NOTION_CODES[notion]
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
                bit = 1 << _NOTION_CODES[notion]
                got = [(int(masks[t, i]) & bit) != 0 for i in range(n)]
                wanted = expected[start + t, notion] if want & bit else [False] * n
                assert got == wanted, (start, count, want, t, notion)


def test_agent_blocks_and_small_windows_give_the_same_masks(monkeypatch):
    """Splitting agents into blocks and lowering the split point (when n^h
    would exceed the window) changes no bit."""
    inst = random_instance(5, 5, 30, seed=5300)
    values, totals = _arrays(inst)
    mms = np.array([mms_value(inst, i) for i in range(5)], np.int64)
    whole = kernels.notion_masks(values, totals, mms, 0, 5**5)
    lexi = kernels.leximin_scan(values, totals, 0, 5**5)
    monkeypatch.setattr(kernels, "SCAN_BYTES", 1)
    assert kernels.scan_chunk(5) == 1
    assert len(kernels._agent_blocks(5, 7)) == 5
    for start, count in ((0, 5**5), (7, 3), (1234, 1), (3000, 125)):
        got = kernels.notion_masks(values, totals, mms, start, count)
        assert np.array_equal(got, whole[start : start + count])
    assert kernels.leximin_scan(values, totals, 0, 5**5)[0] == lexi[0]


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
    arr, totals = _arrays(inst)
    total = inst.n**inst.m
    rng = random.Random(len(values) * 31 + inst.m)
    windows = [(0, total)] + [
        (s, rng.randint(1, total - s)) for s in (rng.randrange(total) for _ in range(4))
    ]
    for start, count in windows:
        index, profile = kernels.leximin_scan(arr, totals, start, count)
        ref_index, ref = _python_leximin(inst, start, count)
        assert index == ref_index, (start, count)
        # integer profile is n * adjusted value
        assert [int(p) for p in profile] == [int(inst.n * v) for v in ref]


@pytest.mark.parametrize("n, m", [(1, 4), (2, 0), (2, 5), (3, 4), (4, 3), (5, 2)])
def test_mms_scan_matches_brute_force(n, m):
    row = random_instance(1, m, 40, seed=5500 + n * 10 + m).values[0]
    arr = np.array(row, np.int64)
    total = n**m
    worst = []
    for owners in product(range(n), repeat=m):
        sums = [0] * n
        for j, k in enumerate(reversed(owners)):
            sums[k] += row[j]
        worst.append(min(sums))
    assert kernels.mms_scan(arr, n, 0, total) == max(worst)
    rng = random.Random(n + m)
    for _ in range(5):
        start = rng.randrange(total)
        count = rng.randint(1, total - start)
        assert kernels.mms_scan(arr, n, start, count) == max(worst[start : start + count])


def test_backend_flag_reported():
    assert kernels.BACKEND == "numpy"


def test_instance_arrays_guard():
    # The alt-mean test multiplies up to n * (m+1) * total; it must stay below 2^63.
    limit = (1 << 63) // (2 * 4)  # n = 2, m = 3
    row = (limit // 2, limit // 4, limit // 4 - 1)  # total = limit - 1
    kernels.instance_arrays((row, row), (limit - 1, limit - 1))
    over = (limit // 2, limit // 4, limit // 4)
    with pytest.raises(InputError):
        kernels.instance_arrays((over, row), (limit, limit - 1))
    # n = 10^4, m = 1 at totals near 2^50 would overflow silently.
    big = ((1 << 50),) * 10**4
    with pytest.raises(InputError):
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
            bit = 1 << _NOTION_CODES[notion]
            expected = [v.satisfied for v in check(inst, allocation, notion).per_agent]
            assert [(int(masks[index, i]) & bit) != 0 for i in range(2)] == expected
