"""Backend parity: the numba kernels and their numpy twins must agree exactly,
and both must agree with the exact Fraction-based checker."""

import numpy as np
import pytest

import propm._kernels as kernels
from propm import Notion, check, mms_value
from propm.fairness import _NOTION_CODES
from propm.oracle import allocation_from_index, random_instance

needs_numba = pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba unavailable")


def _arrays(inst):
    return kernels.instance_arrays(inst.values, inst.totals)


@needs_numba
@pytest.mark.parametrize("seed", range(12))
def test_notion_masks_backend_parity(seed):
    n = 2 + seed % 4
    m = 1 + seed % 6
    inst = random_instance(n, m, 25, seed=4100 + seed)
    values, totals = _arrays(inst)
    mms = np.array([mms_value(inst, i) for i in range(n)], np.int64)
    total = n**m
    a = kernels._notion_masks_numba(values, totals, mms, 0, total)
    b = kernels._notion_masks_numpy(values, totals, mms, 0, total)
    assert np.array_equal(a, b)


@needs_numba
@pytest.mark.parametrize("seed", range(8))
def test_leximin_scan_backend_parity(seed):
    n = 2 + seed % 3
    m = 2 + seed % 5
    inst = random_instance(n, m, 25, seed=4300 + seed)
    values, totals = _arrays(inst)
    total = n**m
    ia, pa = kernels._leximin_scan_numba(values, totals, 0, total)
    ib, pb = kernels._leximin_scan_numpy(values, totals, 0, total)
    assert int(ia) == int(ib)
    assert np.array_equal(pa, pb)


@needs_numba
def test_masks_backend_parity_no_items():
    from propm import Instance

    inst = Instance.of([[], [], []])
    values, totals = _arrays(inst)
    mms = np.array([0, 0, 0], np.int64)
    a = kernels._notion_masks_numba(values, totals, mms, 0, 1)
    b = kernels._notion_masks_numpy(values, totals, mms, 0, 1)
    assert np.array_equal(a, b)
    ia, pa = kernels._leximin_scan_numba(values, totals, 0, 1)
    ib, pb = kernels._leximin_scan_numpy(values, totals, 0, 1)
    assert int(ia) == int(ib) and np.array_equal(pa, pb)


@needs_numba
def test_mms_scan_backend_parity():
    inst = random_instance(1, 6, 40, seed=4700)
    row = np.array(inst.values[0], np.int64)
    for n in (2, 3):
        total = n**6
        assert kernels._mms_scan_numba(row, n, 0, total) == kernels._mms_scan_numpy(
            row, n, 0, total
        )


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


def test_backend_flag_reported():
    assert kernels.BACKEND in ("numba", "numpy")
    if kernels.HAVE_NUMBA:
        assert kernels.BACKEND == "numba"


def test_instance_arrays_guard():
    from propm.core import InputError

    with pytest.raises(InputError):
        kernels.instance_arrays(((kernels.MAX_SAFE_TOTAL + 1,),), (kernels.MAX_SAFE_TOTAL + 1,))
