"""Exhaustive ground truth over all n^m allocations.

Allocation index -> allocation: item j is owned by digit j of the index in
base n, least significant digit first, so index 0 gives every item to agent
0. Scans either run in-process (chunked through the kernels) or are
partitioned across worker processes; results are merged by minimum witness
index, so the outcome never depends on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels
from .core import (
    Allocation,
    Bundle,
    InputError,
    Instance,
    ResourceBudgetError,
    resolve_budget,
)
from .fairness import Notion, check, mms_value


@dataclass(frozen=True)
class ExistenceResult:
    notion: Notion
    exists: bool
    witness: Allocation | None
    allocations_checked: int

    def to_json_dict(self) -> dict:
        return {
            "notion": self.notion.value,
            "exists": self.exists,
            "witness": self.witness.to_json_dict() if self.witness else None,
            "allocations_checked": self.allocations_checked,
        }


# (label, antecedent, consequent): whenever an agent satisfies the antecedent
# she is expected to satisfy the consequent, on every complete allocation.
IMPLICATIONS: tuple[tuple[str, Notion, Notion], ...] = (
    ("EF=>EFX", Notion.EF, Notion.EFX),
    ("EFX=>EF1", Notion.EFX, Notion.EF1),
    ("EFX=>AEFX", Notion.EFX, Notion.AEFX),
    ("AEFX=>PROPM", Notion.AEFX, Notion.PROPM),
    ("PROP=>PROPX", Notion.PROP, Notion.PROPX),
    ("PROPX=>PROPM", Notion.PROPX, Notion.PROPM),
    ("PROPM=>PROP1", Notion.PROPM, Notion.PROP1),
    ("EFX=>PROPX", Notion.EFX, Notion.PROPX),
    ("PROP=>MMS", Notion.PROP, Notion.MMS),
)


@dataclass(frozen=True)
class AuditViolation:
    implication: str
    allocation_index: int
    agent: int


@dataclass(frozen=True)
class AuditReport:
    implications: tuple[str, ...]
    allocations_checked: int
    violations: tuple[AuditViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def violations_for(self, label: str) -> tuple[AuditViolation, ...]:
        return tuple(v for v in self.violations if v.implication == label)

    def to_json_dict(self) -> dict:
        return {
            "implications": list(self.implications),
            "allocations_checked": self.allocations_checked,
            "ok": self.ok,
            "violations": [
                {
                    "implication": v.implication,
                    "allocation_index": v.allocation_index,
                    "agent": v.agent,
                }
                for v in self.violations
            ],
        }


def allocation_count(n: int, m: int) -> int:
    return n**m


def allocation_from_index(n: int, m: int, index: int) -> Allocation:
    if not 0 <= index < n**m:
        raise InputError(f"allocation index {index} out of range for n={n}, m={m}")
    bundles: list[list[int]] = [[] for _ in range(n)]
    rem = index
    for j in range(m):
        bundles[rem % n].append(j)
        rem //= n
    return Allocation(tuple(Bundle(tuple(b)) for b in bundles))


def enumerate_allocations(n: int, m: int, budget: int | None = None) -> Iterator[Allocation]:
    """Yield every complete allocation exactly once, in index order."""
    if n < 1:
        raise InputError(f"need at least one agent, got n={n}")
    if m < 0:
        raise InputError(f"item count must be non-negative, got m={m}")
    total = allocation_count(n, m)
    limit = resolve_budget(budget)
    if total > limit:
        raise ResourceBudgetError(f"enumeration needs {total} allocations, budget is {limit}")
    for index in range(total):
        yield allocation_from_index(n, m, index)


# Allocations in the first window of an early-exit scan; later windows double.
FIRST_WINDOW = 256


def _mms_array(inst: Instance, needed: bool, budget: int | None) -> np.ndarray:
    if not needed:
        return np.full(inst.n, -1, dtype=np.int64)
    return np.array([mms_value(inst, i, budget=budget) for i in range(inst.n)], np.int64)


def _scan_first_satisfying(values, totals, mms, bit, start, stop):
    """First allocation index in [start, stop) where all agents carry the bit, else -1.

    Witnesses mostly lie near the start of a range, so the first window
    holds FIRST_WINDOW allocations (at most ``scan_chunk(n)``) and each
    later one twice the last, up to ``scan_chunk(n)``. The windows tile
    [start, stop), so the first witness is the same for any schedule.
    """
    pos = start
    chunk = _kernels.scan_chunk(len(values))
    plan = _kernels.ScanPlan(values, len(values), chunk)
    width = min(FIRST_WINDOW, chunk)
    while pos < stop:
        count = min(width, stop - pos)
        masks = _kernels.notion_masks(values, totals, mms, pos, count, want=bit, plan=plan)
        rows = masks.all(axis=1)
        where = np.nonzero(rows)[0]
        if where.size:
            return pos + int(where[0])
        pos += count
        width = min(2 * width, chunk)
    return -1


def _exists_worker(args):
    values_list, totals_list, mms_list, bit, start, stop = args
    values, totals = _kernels.instance_arrays(values_list, totals_list)
    mms = np.array(mms_list, np.int64)
    return _scan_first_satisfying(values, totals, mms, bit, start, stop)


def exists(
    inst: Instance,
    notion: Notion,
    budget: int | None = None,
    workers: int = 1,
) -> ExistenceResult:
    """Scan all allocations for one fully satisfying the notion.

    Returns the first witness in enumeration order; the witness is
    re-verified with the exact checker before being reported. The scan
    stops at the window holding the first witness: windows start at
    FIRST_WINDOW allocations and double up to ``_kernels.scan_chunk(n)``,
    and with workers each worker's range starts small in the same way.
    """
    total = allocation_count(inst.n, inst.m)
    limit = resolve_budget(budget)
    if total > limit:
        raise ResourceBudgetError(f"existence scan needs {total} allocations, budget is {limit}")
    values, totals = _kernels.instance_arrays(inst.values, inst.totals)
    mms = _mms_array(inst, notion is Notion.MMS, budget)
    bit = 1 << notion.code

    if workers <= 1 or total < 4 * _kernels.CHUNK:
        found = _scan_first_satisfying(values, totals, mms, bit, 0, total)
    else:
        bounds = np.linspace(0, total, workers + 1, dtype=np.int64)
        jobs = [
            (inst.values, inst.totals, tuple(int(x) for x in mms), bit, int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
            if a < b
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            hits = [h for h in pool.map(_exists_worker, jobs) if h >= 0]
        found = min(hits) if hits else -1

    if found < 0:
        return ExistenceResult(notion, False, None, total)
    witness = allocation_from_index(inst.n, inst.m, found)
    report = check(inst, witness, notion, budget=budget)
    if not report.all_satisfied:  # pragma: no cover - kernel/checker parity is tested
        raise AssertionError("scan kernel and exact checker disagree on a witness")
    return ExistenceResult(notion, True, witness, found + 1)


def _collect_violations(values, totals, mms, start, stop):
    pairs = [(label, a.code, c.code) for (label, a, c) in IMPLICATIONS]
    want = 0
    for _, a_code, c_code in pairs:
        want |= 1 << a_code | 1 << c_code
    found = []
    pos = start
    chunk = _kernels.scan_chunk(len(values))
    plan = _kernels.ScanPlan(values, len(values), chunk)
    while pos < stop:
        count = min(chunk, stop - pos)
        masks = _kernels.notion_masks(values, totals, mms, pos, count, want=want, plan=plan)
        for label, a_code, c_code in pairs:
            a_bit = np.uint16(1 << a_code)
            c_bit = np.uint16(1 << c_code)
            bad = ((masks & a_bit) != 0) & ((masks & c_bit) == 0)
            if not bad.any():
                continue
            for row, agent in zip(*np.nonzero(bad)):
                found.append((label, pos + int(row), int(agent)))
        pos += count
    return found


def _audit_worker(args):
    values_list, totals_list, mms_list, start, stop = args
    values, totals = _kernels.instance_arrays(values_list, totals_list)
    mms = np.array(mms_list, np.int64)
    return _collect_violations(values, totals, mms, start, stop)


def implication_audit(
    inst: Instance,
    budget: int | None = None,
    workers: int = 1,
) -> AuditReport:
    """Check every implication in IMPLICATIONS for every agent of every allocation."""
    total = allocation_count(inst.n, inst.m)
    limit = resolve_budget(budget)
    if total > limit:
        raise ResourceBudgetError(f"audit needs {total} allocations, budget is {limit}")
    values, totals = _kernels.instance_arrays(inst.values, inst.totals)
    mms = _mms_array(inst, True, budget)

    if workers <= 1 or total < 4 * _kernels.CHUNK:
        found = _collect_violations(values, totals, mms, 0, total)
    else:
        bounds = np.linspace(0, total, workers + 1, dtype=np.int64)
        jobs = [
            (inst.values, inst.totals, tuple(int(x) for x in mms), int(a), int(b))
            for a, b in zip(bounds[:-1], bounds[1:])
            if a < b
        ]
        found = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_audit_worker, jobs):
                found.extend(chunk)

    found.sort(key=lambda v: (v[1], v[2], v[0]))
    violations = tuple(AuditViolation(*v) for v in found)
    return AuditReport(
        implications=tuple(label for (label, _, _) in IMPLICATIONS),
        allocations_checked=total,
        violations=violations,
    )


def make_counterexample(scale: int) -> Instance:
    """Three identical agents, one big item worth scale-6 and six items worth 1.

    The big item dominates once scale >= 7. Used to probe which additive
    relaxations of proportionality can always be satisfied.
    """
    if scale < 7:
        raise InputError(f"scale must be at least 7, got {scale}")
    row = (scale - 6, 1, 1, 1, 1, 1, 1)
    return Instance((row, row, row))


_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return state, z


def random_instance(n: int, m: int, max_value: int, seed: int) -> Instance:
    """Deterministic pseudo-random instance, reproducible across implementations.

    The generator is SplitMix64 seeded with ``seed``; draws are taken
    row-major (agent 0 item 0, item 1, ...) and mapped to 0..max_value by
    modulo. This fixes the instance stream independent of any library RNG.
    """
    if n < 1:
        raise InputError(f"need at least one agent, got n={n}")
    if m < 0:
        raise InputError(f"item count must be non-negative, got m={m}")
    if max_value < 0:
        raise InputError(f"max_value must be non-negative, got {max_value}")
    state = seed & _MASK64
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            state, z = _splitmix64(state)
            row.append(z % (max_value + 1))
        rows.append(tuple(row))
    return Instance(tuple(rows))
