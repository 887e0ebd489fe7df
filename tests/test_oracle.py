import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import closing
from functools import partial

import numpy as np
import pytest

import propm._kernels as kernels
import propm.oracle as oracle
from propm import (
    Allocation,
    InputError,
    Instance,
    Notion,
    ResourceBudgetError,
    check,
    exists,
    implication_audit,
    leximin_max,
    make_counterexample,
    random_instance,
    solve_propm,
)
from propm.fairness import _mms_cached
from propm.oracle import FIRST_WINDOW, allocation_from_index


def test_enumeration_unique_and_complete():
    # Indices 0..n^m-1 decode to every complete allocation exactly once.
    seen = set()
    for k in range(3**4):
        allocation = allocation_from_index(3, 4, k)
        allocation.validate_for(Instance.of([[1, 1, 1, 1]] * 3))
        seen.add(tuple(b.items for b in allocation.bundles))
    assert len(seen) == 81


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: allocation_from_index(3, 4, 81), "allocation index 81 out of range"),
        (lambda: allocation_from_index(3, 4, -1), "allocation index -1 out of range"),
        (lambda: random_instance(0, 3, 10, 0), "need at least one agent"),
        (lambda: random_instance(2, -1, 10, 0), "item count must be non-negative"),
        (lambda: random_instance(2, 3, -1, 0), "max_value must be non-negative"),
    ],
    ids=["index-past-end", "index-negative", "no-agents", "negative-m", "negative-max-value"],
)
def test_oracle_helpers_refuse_out_of_range_arguments(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_allocation_index_round_trip():
    allocation = allocation_from_index(3, 4, 27)
    owners = allocation.owners(4)
    assert sum(o * 3**j for j, o in enumerate(owners)) == 27


def test_exists_alt_median_fails_on_eps(i_eps):
    result = exists(i_eps, Notion.ALT_MEDIAN)
    assert not result.exists
    assert result.allocations_checked == 2187


def test_exists_propm_on_eps(i_eps):
    result = exists(i_eps, Notion.PROPM)
    assert result.exists
    assert check(i_eps, result.witness, Notion.PROPM).all_satisfied


def test_exists_propx_on_2a(i_2a):
    result = exists(i_2a, Notion.PROPX)
    assert result.exists


# 3^10 = 59049 allocations, 531,441 units of work (allocations x n^2): past
# the break-evens that ``small_break_even`` sets, so with workers=2 the scan
# runs its first window in this thread and the later ones on a thread pool.
# Agent 2 values only item 9, so every PROP or EF witness gives it item 9
# and lies at index 2 * 3^9 or later, far past the first window.
LATE_WITNESS = Instance.of([[5] * 9 + [0], [5] * 9 + [0], [0] * 9 + [9]])
# Three identical agents with one dominant item: no PROP allocation exists.
NO_PROP = Instance.of([[91] + [1] * 9] * 3)


# Work of 4 * CHUNK allocations of three agents: small enough for the pool
# tests below to start pools on 3^10 allocations (``small_break_even``).
_TEST_BREAK_EVEN = 4 * kernels.CHUNK * 3**2


def _cores(monkeypatch, count):
    """Report ``count`` cores to the scan driver, whatever the host has."""
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: count)


@pytest.fixture
def small_break_even(monkeypatch):
    """Both scan kinds' break-evens at _TEST_BREAK_EVEN, on four cores."""
    monkeypatch.setattr(kernels, "POOL_BREAK_EVEN", _TEST_BREAK_EVEN)
    monkeypatch.setattr(kernels, "EARLY_EXIT_BREAK_EVEN", _TEST_BREAK_EVEN)
    _cores(monkeypatch, 4)


@pytest.fixture
def pool_starts(monkeypatch):
    """Count the thread pools the scan driver starts.

    The driver imports ``ThreadPoolExecutor`` from ``concurrent.futures`` when
    it starts a pool, so the class is patched there.
    """
    started = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    return started


def test_exists_workers_match_single(small_break_even, pool_starts):
    # (instance, notion, pools started by workers=2): a witness in the first
    # window is found before any pool starts, and scans below the break-even
    # start none, so only late and missing witnesses start a pool.
    cases = [
        (random_instance(3, 6, 30, seed=62), Notion.PROPM, 0),
        (random_instance(3, 6, 30, seed=62), Notion.EFX, 0),
        (random_instance(3, 10, 30, seed=62), Notion.PROPM, 0),
        (LATE_WITNESS, Notion.PROP, 1),
        (LATE_WITNESS, Notion.EF, 1),
        (NO_PROP, Notion.PROP, 1),
    ]
    for inst, notion, pools in cases:
        solo = exists(inst, notion, workers=1)
        assert pool_starts == []
        for workers in (2, 3):
            multi = exists(inst, notion, workers=workers)
            assert pool_starts == [workers] * pools, (inst, notion)
            pool_starts.clear()
            assert solo.exists == multi.exists
            assert solo.allocations_checked == multi.allocations_checked
            assert solo.witness == multi.witness
    assert exists(LATE_WITNESS, Notion.PROP).allocations_checked > 2 * 3**9
    assert not exists(NO_PROP, Notion.PROP).exists


@pytest.mark.parametrize("workers", [0, -5, True, 1.0, 2.5, "2", None])
def test_bad_worker_counts_are_input_errors(workers):
    inst = random_instance(3, 4, 20, seed=5)
    with pytest.raises(InputError, match="workers"):
        exists(inst, Notion.PROPM, workers=workers)
    with pytest.raises(InputError, match="workers"):
        implication_audit(inst, workers=workers)


def test_bad_worker_counts_are_refused_before_any_scan(monkeypatch):
    """Neither the MMS pass nor a window of masks runs before the refusal."""
    calls = []

    def spy(name):
        kernel = getattr(kernels, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counted)

    spy("mms_scan")
    spy("notion_masks")
    inst = random_instance(3, 9, 100, 5)
    for scan in (partial(exists, inst, Notion.MMS), partial(implication_audit, inst)):
        _mms_cached.cache_clear()
        with pytest.raises(InputError, match="workers"):
            scan(workers=0)
        assert calls == []
    _mms_cached.cache_clear()
    implication_audit(inst)
    assert calls.count("mms_scan") == 1 and "notion_masks" in calls


def test_audit_on_eps_flags_only_the_known_bad_edge(i_eps):
    """Every implication holds on all 2187 allocations except EFX=>PROPX,
    which is not a theorem (see test_efx_does_not_imply_propx): e.g. the
    allocation ({2..6},{1},{0}) is EFx for agent 0 (rival bundles lose
    nothing when their least item is removed) yet 3*(5+1) < 100."""
    report = implication_audit(i_eps)
    assert report.allocations_checked == 2187
    assert {v.implication for v in report.violations} == {"EFX=>PROPX"}
    for edge in report.implications:
        if edge != "EFX=>PROPX":
            assert not [v for v in report.violations if v.implication == edge], edge


def test_audit_single_agent_vacuous():
    report = implication_audit(Instance.of([[5, 3]]))
    assert report.ok


def test_efx_does_not_imply_propx():
    """Pins a fact the audit must expose: the min-pooled proportionality
    relaxation is NOT implied by EFx.

    With values [[100,1],[1,0],[0,1]] the allocation (empty,{0},{1}) is
    EFx-complete (rival bundles are singletons) but agent 0's pooled minimum
    is 1, far below 101/3. The audit is expected to flag exactly this edge.
    """
    inst = Instance.of([[100, 1], [1, 0], [0, 1]])
    allocation = Allocation.of([[], [0], [1]])
    assert check(inst, allocation, Notion.EFX).all_satisfied
    assert not check(inst, allocation, Notion.PROPX).per_agent[0].satisfied
    report = implication_audit(inst)
    edges = {v.implication for v in report.violations}
    assert edges == {"EFX=>PROPX"}


def test_audit_randoms_flag_nothing_but_the_known_bad_edge():
    for s in range(10):
        inst = random_instance(3, 4, 25, seed=5150 + s)
        report = implication_audit(inst)
        assert {v.implication for v in report.violations} <= {"EFX=>PROPX"}


def test_alt_mean_known_boundary():
    """Pins the exact boundary: the mean-bonus relaxation IS satisfiable
    on the counterexample family below scale 28.

    The allocation (three ones, three ones, big) gives a ones-agent
    3 + (scale-3)/4, which meets scale/3 exactly up to scale 27.
    """
    witness = Allocation.of([[1, 2, 3], [4, 5, 6], [0]])
    for scale in (13, 27):
        inst = make_counterexample(scale)
        assert check(inst, witness, Notion.ALT_MEAN).all_satisfied
        assert exists(inst, Notion.ALT_MEAN).exists
    for scale in (28, 100):
        inst = make_counterexample(scale)
        assert not exists(inst, Notion.ALT_MEAN).exists


def test_make_counterexample_values():
    assert make_counterexample(13).values[0] == (7, 1, 1, 1, 1, 1, 1)
    assert make_counterexample(100).values[0] == (94, 1, 1, 1, 1, 1, 1)
    with pytest.raises(InputError):
        make_counterexample(6)


def test_counterexample_alt_mean_arithmetic_at_1000():
    inst = make_counterexample(1000)
    allocation = Allocation.of([[1, 2, 3], [4, 5, 6], [0]])
    report = check(inst, allocation, Notion.ALT_MEAN)
    # agent 0: 3 + (994+3)/4 = 252.25 < 1000/3
    assert not report.per_agent[0].satisfied


def test_random_instance_deterministic():
    a = random_instance(4, 6, 50, seed=99)
    b = random_instance(4, 6, 50, seed=99)
    assert a == b
    assert a != random_instance(4, 6, 50, seed=100)


def test_random_instance_shape_and_range():
    inst = random_instance(5, 9, 17, seed=1)
    assert inst.n == 5 and inst.m == 9
    assert all(0 <= v <= 17 for row in inst.values for v in row)


def test_random_instance_zero_max_value():
    inst = random_instance(2, 3, 0, seed=5)
    assert all(v == 0 for row in inst.values for v in row)
    assert exists(inst, Notion.EF).exists


def test_random_instance_refuses_cells_past_the_budget():
    with pytest.raises(ResourceBudgetError, match="needs 10000000000 cells, budget is 10000000"):
        random_instance(100_000, 100_000, 100, 0)
    with pytest.raises(ResourceBudgetError, match="needs 12 cells, budget is 11"):
        random_instance(3, 4, 100, 0, budget=11)
    assert random_instance(3, 4, 100, 0, budget=12) == random_instance(3, 4, 100, 0)


def test_random_instance_pinned_stream():
    # SplitMix64 (reference vectors: seed 1234567 -> 6457827717110365317, ...),
    # seed 42, modulo 101, row-major: freezes the documented generator
    from propm.oracle import _splitmix64

    state, z = _splitmix64(1234567)
    assert z == 6457827717110365317
    inst = random_instance(1, 4, 100, seed=42)
    assert inst.values[0] == (23, 63, 43, 5)


def test_oracle_agrees_with_solver():
    for s in range(12):
        n = 2 + s % 3
        inst = random_instance(n, 5, 40, seed=246 + s)
        allocation, _ = solve_propm(inst)
        result = exists(inst, Notion.PROPM)
        assert result.exists
        assert check(inst, allocation, Notion.PROPM).all_satisfied


def test_exists_budget_error(i_eps):
    with pytest.raises(ResourceBudgetError):
        exists(i_eps, Notion.PROPM, budget=10)


def test_audit_workers_match_single(small_break_even, pool_starts):
    for inst in (random_instance(3, 5, 20, seed=818), random_instance(3, 10, 30, seed=818)):
        solo = implication_audit(inst, workers=1)
        for workers in (2, 3):
            multi = implication_audit(inst, workers=workers)
            assert solo.violations == multi.violations
            assert solo.allocations_checked == multi.allocations_checked
    assert solo.violations  # the threaded audit has violations to merge
    assert pool_starts == [2, 3]


def test_threads_match_one_worker_under_a_short_switch_interval(small_break_even):
    """Four threads on a 2-core host, switching every microsecond, read the
    plan's tables the first window built and still give one worker's results."""
    inst = random_instance(3, 10, 30, seed=818)
    solo = implication_audit(inst, workers=1)
    late = exists(LATE_WITNESS, Notion.EF, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert implication_audit(inst, workers=4).violations == solo.violations
        assert exists(LATE_WITNESS, Notion.EF, workers=4) == late
    finally:
        sys.setswitchinterval(interval)


def test_import_loads_no_process_machinery():
    process = {"multiprocessing", "concurrent.futures.process"}
    code = f"import sys, propm; print(sorted({process!r} & sys.modules.keys()))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "[]\n")


def test_pool_starts_only_past_the_break_even(monkeypatch, pool_starts):
    _cores(monkeypatch, 2)
    values = np.zeros((3, 1), np.int64)

    def windows(stop, workers=2):
        return list(kernels.scan_windows(values, lambda plan, *window: window, 0, stop, workers))

    # Three agents: 9 work units per allocation.
    below = (kernels.POOL_BREAK_EVEN - 1) // 9
    assert windows(below) == windows(below, workers=1)
    assert pool_starts == []
    tiled = windows(below + 1, workers=1)
    assert pool_starts == []
    assert windows(below + 1) == tiled
    assert pool_starts == [2]
    assert tiled[0] == (0, kernels.scan_chunk(3, exhaustive=True))
    assert sum(c for _, c in tiled) == below + 1


def _mask_threads(monkeypatch):
    """The ident of the thread of every ``notion_masks`` call, as they run."""
    ran = []
    masks = kernels.notion_masks

    def recorded(*args, **kwargs):
        ran.append(threading.get_ident())
        return masks(*args, **kwargs)

    monkeypatch.setattr(kernels, "notion_masks", recorded)
    return ran


def test_each_scan_kind_has_its_own_break_even(monkeypatch, pool_starts):
    """Work between the two break-evens: the early-exit scan stays in the
    calling thread, the exhaustive audit starts a pool."""
    work = 3**10 * 3**2
    monkeypatch.setattr(kernels, "POOL_BREAK_EVEN", work // 2)
    monkeypatch.setattr(kernels, "EARLY_EXIT_BREAK_EVEN", 2 * work)
    _cores(monkeypatch, 2)
    ran = _mask_threads(monkeypatch)
    caller = threading.get_ident()
    # No allocation is PROP, so exists reads all 3^10 as the audit does.
    for scan, pools in (
        (partial(exists, NO_PROP, Notion.PROP), []),
        (partial(implication_audit, NO_PROP), [2]),
    ):
        solo = scan(workers=1)
        assert solo.allocations_checked == 3**10
        ran.clear()
        assert scan(workers=2) == solo
        assert pool_starts == pools
        assert (set(ran) == {caller}) == (not pools)


def test_threads_are_bounded_by_the_core_count(monkeypatch, pool_starts):
    """Eight workers on two cores: at most two pool threads run windows."""
    monkeypatch.setattr(kernels, "POOL_BREAK_EVEN", 0)
    monkeypatch.setattr(kernels, "EARLY_EXIT_BREAK_EVEN", 0)
    monkeypatch.setattr(kernels, "CHUNK", 64)
    _cores(monkeypatch, 2)
    ran = _mask_threads(monkeypatch)
    inst = random_instance(3, 7, 30, seed=818)
    caller = threading.get_ident()
    for scan in (partial(exists, NO_PROP, Notion.PROP), partial(implication_audit, inst)):
        solo = scan(workers=1)
        ran.clear()
        assert scan(workers=8) == solo
        pooled = set(ran) - {caller}
        assert 1 <= len(pooled) <= 2 and len(ran) > 8
    assert pool_starts == [2, 2]


# -- the early-exit window schedule ------------------------------------------


def _fake_masks(witness, windows):
    """A notion_masks stand-in satisfied by every agent at ``witness`` only."""

    def fake(values, totals, mms, start, count, want=kernels.ALL_NOTIONS, plan=None):
        windows.append((start, count))
        masks = np.zeros((count, len(values)), np.uint16)
        if start <= witness < start + count:
            masks[witness - start] = want
        return masks

    return fake


def _scan(monkeypatch, n, start, stop, witness, workers=1):
    windows = []
    monkeypatch.setattr(kernels, "notion_masks", _fake_masks(witness, windows))
    values = np.zeros((n, 1), np.int64)
    totals = np.zeros(n, np.int64)
    mms = np.full(n, -1, np.int64)
    hits = oracle._mask_scan(
        oracle._first_hit, values, totals, mms, 1, start, stop, workers, FIRST_WINDOW
    )
    with closing(hits):
        found = next((hit for hit in hits if hit >= 0), -1)
    return found, windows


def _assert_doubling(windows, start, chunk, first=FIRST_WINDOW):
    width = min(first, chunk)
    pos = start
    for k, (at, count) in enumerate(windows):
        assert at == pos
        last = k == len(windows) - 1
        assert count == width or (last and count < width)
        pos += count
        width = min(2 * width, chunk)
    return pos


# n = 74 gives scan_chunk(n) = 255, just below FIRST_WINDOW.
@pytest.mark.parametrize("n", [3, 74])
@pytest.mark.parametrize("start", [0, 1000])
def test_scan_windows_double_and_tile_the_range(monkeypatch, n, start):
    chunk = kernels.scan_chunk(n)
    stop = start + 3 * chunk + 123
    offsets = [0, FIRST_WINDOW - 1, FIRST_WINDOW, 3 * FIRST_WINDOW - 1, stop - start - 1]
    for t in [start + o for o in offsets]:
        found, windows = _scan(monkeypatch, n, start, stop, t)
        assert found == t
        end = _assert_doubling(windows, start, chunk)
        assert windows[-1][0] <= t < end
    found, windows = _scan(monkeypatch, n, start, stop, -1)
    assert found == -1
    assert _assert_doubling(windows, start, chunk) == stop


def test_scan_window_sizes_are_pinned(monkeypatch):
    # Early exit: 256 allocations, doubling up to CHUNK.
    assert kernels.scan_chunk(3) == 8192
    _, windows = _scan(monkeypatch, 3, 0, 20000, -1)
    assert [c for _, c in windows] == [256, 512, 1024, 2048, 4096, 8192, 3872]
    _, windows = _scan(monkeypatch, 3, 7, 300, -1)
    assert windows == [(7, 256), (263, 37)]
    # Exhaustive: about CHUNK * 25 statistic cells, n^2 per allocation, and
    # at n = 16 the SCAN_BYTES cap.
    sizes = [kernels.scan_chunk(n, exhaustive=True) for n in (2, 3, 4, 5, 6, 16)]
    assert sizes == [51200, 22755, 12800, 8192, 8192, 5461]
    values = np.zeros((3, 1), np.int64)
    windows = list(kernels.scan_windows(values, lambda plan, *window: window, 7, 50000))
    assert windows == [(7, 22755), (22762, 22755), (45517, 4483)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 16, 74])
@pytest.mark.parametrize("scan_bytes", [None, 1 << 20])
def test_each_scan_kind_sizes_its_windows_by_its_rule(monkeypatch, n, scan_bytes):
    """Exhaustive windows hold max(CHUNK, CHUNK * 25 // n^2) allocations and
    early-exit ones CHUNK, both capped so that a window's int64 statistics
    fit SCAN_BYTES; each scan kind's plan reads its own rule."""
    if scan_bytes is not None:
        monkeypatch.setattr(kernels, "SCAN_BYTES", scan_bytes)
    cap = kernels.SCAN_BYTES // (3 * 8 * n * n)
    early = min(kernels.CHUNK, cap)
    exhaustive = min(max(kernels.CHUNK, kernels.CHUNK * 25 // (n * n)), cap)
    assert kernels.scan_chunk(n) == early and kernels.scan_chunk(n, exhaustive=True) == exhaustive
    values = np.zeros((n, 1), np.int64)
    assert kernels.ScanPlan(values).chunk == early
    assert kernels.ScanPlan(values, exhaustive=True).chunk == exhaustive
    stop = 2 * exhaustive + 1
    seen = list(kernels.scan_windows(values, lambda plan, *window: window, 0, stop))
    assert seen == [(0, exhaustive), (exhaustive, exhaustive), (2 * exhaustive, 1)]
    first = list(kernels.scan_windows(values, lambda plan, *window: window, 0, stop, first=1))
    assert _assert_doubling(first, 0, early, first=1) == stop


@pytest.mark.parametrize("workers", [2, 3])
def test_threads_stop_soon_after_the_witness_window(monkeypatch, workers):
    """Threads scan at most 2 * workers windows ahead of the one read, so at
    most that many past the witness's window."""
    monkeypatch.setattr(kernels, "EARLY_EXIT_BREAK_EVEN", 1)
    _cores(monkeypatch, 4)
    chunk = kernels.scan_chunk(3)
    stop = 40 * chunk
    for witness in (0, FIRST_WINDOW + 5, 5 * chunk, 20 * chunk + 7, stop - 1):
        found, windows = _scan(monkeypatch, 3, 0, stop, witness, workers)
        assert found == witness
        windows.sort()
        assert _assert_doubling(windows, 0, chunk) <= stop
        hit = next(k for k, (at, count) in enumerate(windows) if at <= witness < at + count)
        assert len(windows) - 1 - hit <= 2 * workers, witness


def test_closing_the_scan_cancels_queued_windows(monkeypatch):
    """The first window runs in the calling thread. Once the witness is read,
    the two threads are busy with at most the next two windows, and the
    third one queued behind them is cancelled instead of scanned."""
    monkeypatch.setattr(kernels, "EARLY_EXIT_BREAK_EVEN", 1)
    _cores(monkeypatch, 2)
    chunk = kernels.scan_chunk(3)
    witness = 5 * chunk
    ran = []

    def slow_past_the_witness(values, totals, mms, start, count, want, plan=None):
        ran.append((start, threading.get_ident()))
        if start > witness:
            time.sleep(0.2)
        return _fake_masks(witness, [])(values, totals, mms, start, count, want, plan)

    monkeypatch.setattr(kernels, "notion_masks", slow_past_the_witness)
    values = np.zeros((3, 1), np.int64)
    totals, mms = np.zeros(3, np.int64), np.full(3, -1, np.int64)
    hits = oracle._mask_scan(
        oracle._first_hit, values, totals, mms, 1, 0, 40 * chunk, 2, FIRST_WINDOW
    )
    with closing(hits):
        assert next(hit for hit in hits if hit >= 0) == witness
    assert ran[0] == (0, threading.get_ident())
    assert len([start for start, _ in ran if start > witness]) <= 2


@pytest.mark.parametrize("n", [3, 74])
def test_plan_windows_without_first_are_full(n):
    chunk = kernels.scan_chunk(n)
    plan = kernels.ScanPlan(np.zeros((n, 1), np.int64))
    start, stop = 1000, 1000 + 3 * chunk + 123
    windows = list(plan.windows(start, stop))
    assert _assert_doubling(windows, start, chunk, first=chunk) == stop
    assert [c for _, c in windows] == [chunk] * 3 + [123]
    assert list(plan.windows(start, start)) == []


def _random_masks(values, totals, mms, start, count, want=kernels.ALL_NOTIONS, plan=None):
    """A notion_masks stand-in: random masks over the wanted bits, fixed by ``start``."""
    rng = np.random.default_rng(start)
    masks = rng.integers(0, 1 << kernels.NOTION_COUNT, (count, len(values)))
    return masks.astype(np.uint16) & np.uint16(want)


def test_audit_orders_violations_by_index_agent_label(monkeypatch):
    """Random masks violate several implications on one agent, so the
    label order is exercised too: labels sort by their strings."""
    monkeypatch.setattr(kernels, "notion_masks", _random_masks)
    # 16384 allocations: two windows, of 12,800 and 3,584 at n = 2.
    monkeypatch.setattr(kernels, "CHUNK", 2048)
    inst = random_instance(2, 14, 20, seed=3)
    report = implication_audit(inst)
    chunk, total = kernels.scan_chunk(inst.n, exhaustive=True), inst.n**inst.m
    assert chunk < total
    expected = []
    for start in range(0, total, chunk):
        count = min(chunk, total - start)
        masks = _random_masks(inst.values, None, None, start, count)
        for row, agent, label in np.ndindex(count, inst.n, len(oracle.IMPLICATIONS)):
            name, a, c = oracle.IMPLICATIONS[label]
            mask = int(masks[row, agent])
            if mask >> a.code & 1 and not mask >> c.code & 1:
                expected.append(oracle.AuditViolation(name, start + row, agent))
    expected.sort(key=lambda v: (v.allocation_index, v.agent, v.implication))
    assert len({(v.allocation_index, v.agent) for v in expected}) < len(expected)
    assert report.violations == tuple(expected)


@pytest.mark.parametrize("n, count", [(1, 7), (3, 300), (4, 1), (5, 64)])
def test_window_reductions_read_either_mask_layout(n, count):
    """``notion_masks`` returns the ``.T`` view of an [agent, allocation]
    array; the stand-ins above return C-contiguous [allocation, agent] ones."""
    rng = np.random.default_rng(n * 1000 + count)
    want = np.uint16(1 << Notion.EFX.code)
    # Early-exit masks carry one bit; audit masks carry any of them.
    for row_major in [np.where(rng.random((count, n)) < p, want, 0) for p in (0.3, 0.95, 1.0)] + [
        rng.integers(0, 1 << kernels.NOTION_COUNT, (count, n))
    ]:
        row_major = row_major.astype(np.uint16)
        agent_major = np.ascontiguousarray(row_major.T).T
        assert np.array_equal(agent_major, row_major) and agent_major.T.flags.c_contiguous
        assert oracle._first_hit(5, agent_major) == oracle._first_hit(5, row_major)
        for got, expected in zip(
            oracle._violations(5, agent_major), oracle._violations(5, row_major), strict=True
        ):
            assert np.array_equal(got, expected)


def test_notion_masks_are_a_view_of_agent_major_masks(monkeypatch):
    inst = random_instance(3, 5, 20, seed=7)
    values, totals = kernels.instance_arrays(inst.values, inst.totals)
    mms = np.full(inst.n, -1, np.int64)
    # Each call plans for its 200-allocation window alone.
    monkeypatch.setattr(kernels, "CHUNK", 200)
    for notion in (Notion.PROP, Notion.EFX):
        want, plan = 1 << notion.code, kernels.ScanPlan(values)
        masks = kernels.notion_masks(values, totals, mms, 10, 200, want=want, plan=plan)
        assert masks.shape == (200, 3) and masks.T.flags.c_contiguous
        first = oracle._first_hit(10, masks)
        assert first == oracle._first_hit(10, np.ascontiguousarray(masks)) >= 10
        assert check(inst, allocation_from_index(3, 5, first), notion).all_satisfied


def _first_satisfying(inst, notion):
    for k in range(inst.n**inst.m):
        if check(inst, allocation_from_index(inst.n, inst.m, k), notion).all_satisfied:
            return k
    return None


def _last_item_to_last_agent(inst):
    """Zero the last item for all but the last agent, which values nothing else.

    Every PROP-like witness then gives the last item to the last agent, at
    index (n-1) * n^(m-1) or later: past the first window.
    """
    rows = [row[:-1] + (0,) for row in inst.values[:-1]]
    rows.append((0,) * (inst.m - 1) + (inst.values[-1][-1] + 1,))
    return Instance.of(rows)


@pytest.mark.parametrize(
    "inst",
    [
        random_instance(2, 9, 20, seed=31),
        random_instance(4, 5, 20, seed=32),
        _last_item_to_last_agent(random_instance(3, 6, 20, seed=33)),
        _last_item_to_last_agent(random_instance(4, 5, 20, seed=34)),
    ],
)
def test_exists_matches_first_index_reference(inst):
    for notion in Notion:
        first = _first_satisfying(inst, notion)
        result = exists(inst, notion)
        if first is None:
            assert not result.exists, notion
            assert result.allocations_checked == inst.n**inst.m
        else:
            assert result.exists, notion
            assert result.witness == allocation_from_index(inst.n, inst.m, first), notion
            assert result.allocations_checked == first + 1


@pytest.mark.parametrize(
    "notion, found, checked",
    [
        (Notion.EF, False, 91125),
        (Notion.EFX, True, 48),
        (Notion.ALT_MEDIAN, True, 1),
        (Notion.ALT_MODE, True, 51964),
    ],
)
def test_scan_memory_stays_bounded_at_45_agents(notion, found, checked):
    """45 agents: a window holds 690 allocations of 45 x 45 statistics, and
    the plan keeps only half tables at most one window wide (no table of all
    45^2 high assignments). Alt-median and alt-mode keep their [agent,
    allocation] arrays within the same bound."""
    inst = random_instance(45, 3, 100, 7)
    tracemalloc.start()
    try:
        result = exists(inst, notion)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.exists, result.allocations_checked) == (found, checked)
    assert peak < 16 << 20


def _scan_corpus():
    """Seeded instances at the audit benchmark's sizes (values up to 100),
    then a few whose scans run at wider integer dtypes."""
    sizes = ((3, 9), (4, 7), (5, 6))
    for seed in range(30):
        n, m = sizes[seed % 3]
        yield random_instance(n, m, 100, seed=7000 + seed)
    for seed, max_value in enumerate((10**6, 10**6, 10**15, 10**15)):
        yield random_instance(3 + seed % 2, 5, max_value, seed=7100 + seed)


def test_scan_outputs_are_pinned():
    """One digest over the audit violations, the leximin maximum and every
    notion's existence result: a change of the scan arithmetic must keep them."""
    records = []
    for inst in _scan_corpus():
        report = implication_audit(inst)
        allocation, profile = leximin_max(inst)
        records.append(
            [
                [(v.implication, v.allocation_index, v.agent) for v in report.violations],
                allocation.to_json_dict(),
                profile.to_json_dict(),
                [exists(inst, notion).to_json_dict() for notion in Notion],
            ]
        )
    text = json.dumps(records, sort_keys=True)
    assert len(records) == 34
    assert hashlib.blake2b(text.encode(), digest_size=16).hexdigest() == "285faf53182836a12c238912e85c8234"
