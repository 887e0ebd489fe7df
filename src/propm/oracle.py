"""Exhaustive ground truth over all n^m allocations.

Allocation index -> allocation: item j is owned by digit j of the index in
base n, least significant digit first, so index 0 gives every item to agent
0. Every scan walks its range in the windows of ``ScanPlan.windows`` and
splits across worker processes in one place, ``_scan_ranges``: consecutive
ranges whose results merge in index order (the least witness index, or the
violations sorted by index), so the outcome never depends on the worker
count. ``exists`` scans its first ``scan_chunk(n)`` allocations in this
process before it starts a pool.
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
    require_budget,
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
    require_budget(n**m, budget, "enumeration")
    for index in range(n**m):
        yield allocation_from_index(n, m, index)


# Allocations in the first window of an early-exit scan; later windows double.
FIRST_WINDOW = 256


def _mms_array(inst: Instance, needed: bool, budget: int | None) -> np.ndarray:
    if not needed:
        return np.full(inst.n, -1, dtype=np.int64)
    return np.array([mms_value(inst, i, budget=budget) for i in range(inst.n)], np.int64)


# Scan work (allocations x n^2 x notions asked) below which two worker
# processes take longer than one: on a 2-core host (numpy backend), no-witness
# exists(PROP) on 3^14 allocations (43.0 M) and an audit of 4^9 (37.7 M) were
# slower with two, exists(PROP) on 5^9 (48.8 M) and every larger scan faster.
POOL_BREAK_EVEN = 45_000_000


def _scan_worker(job):
    scan, args, start, stop = job
    return scan(*args, start, stop)


def _scan_ranges(scan, args, start, stop, workers):
    """``scan(*args, a, b)`` for each range [a, b) of a split of [start, stop), in order.

    ``args`` is (values, totals, mms, want). The scan's work is its
    allocations x n^2 x the notions ``want`` asks for. With one worker, or
    less work than POOL_BREAK_EVEN, there is one range, scanned in this
    process. Otherwise the range splits evenly into one part per worker,
    each scanned in its own process.
    """
    values, _, _, want = args
    work = (stop - start) * len(values) ** 2 * bin(want).count("1")
    if workers <= 1 or work < POOL_BREAK_EVEN:
        return [scan(*args, start, stop)]
    bounds = np.linspace(start, stop, workers + 1, dtype=np.int64)
    jobs = [(scan, args, int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_scan_worker, jobs))


def _scan_first_satisfying(values, totals, mms, bit, start, stop):
    """First allocation index in [start, stop) where all agents carry the bit, else -1.

    Witnesses mostly lie near the start of a range, so the windows start at
    FIRST_WINDOW allocations and double (``ScanPlan.windows``). They tile
    [start, stop), so the first witness is the same for any schedule.
    """
    n = len(values)
    plan = _kernels.ScanPlan(values, n, _kernels.scan_chunk(n))
    for pos, count in plan.windows(start, stop, FIRST_WINDOW):
        masks = _kernels.notion_masks(values, totals, mms, pos, count, want=bit, plan=plan)
        where = np.nonzero(masks.all(axis=1))[0]
        if where.size:
            return pos + int(where[0])
    return -1


def exists(
    inst: Instance,
    notion: Notion,
    budget: int | None = None,
    workers: int = 1,
) -> ExistenceResult:
    """Scan all allocations for one fully satisfying the notion.

    Returns the first witness in enumeration order; the witness is
    re-verified with the exact checker before being reported. The scan
    stops at the window holding the first witness. With several workers,
    the first ``_kernels.scan_chunk(n)`` allocations are scanned in this
    process, and a pool splits the rest only if they hold no witness.
    """
    total = inst.n**inst.m
    require_budget(total, budget, "existence scan")
    values, totals = _kernels.instance_arrays(inst.values, inst.totals)
    args = (values, totals, _mms_array(inst, notion is Notion.MMS, budget), 1 << notion.code)
    head = total if workers <= 1 else min(total, _kernels.scan_chunk(inst.n))
    found = _scan_first_satisfying(*args, 0, head)
    if found < 0 and head < total:
        hits = _scan_ranges(_scan_first_satisfying, args, head, total, workers)
        found = min((h for h in hits if h >= 0), default=-1)

    if found < 0:
        return ExistenceResult(notion, False, None, total)
    witness = allocation_from_index(inst.n, inst.m, found)
    report = check(inst, witness, notion, budget=budget)
    if not report.all_satisfied:  # pragma: no cover - kernel/checker parity is tested
        raise AssertionError("scan kernel and exact checker disagree on a witness")
    return ExistenceResult(notion, True, witness, found + 1)


# Implication labels in string order; a violation's label rank is its position here.
_LABELS_SORTED = sorted(label for (label, _, _) in IMPLICATIONS)


# (label rank, antecedent and consequent bits, antecedent bit) per implication.
_AUDIT_TESTS = tuple(
    (_LABELS_SORTED.index(label), (1 << a.code) | (1 << c.code), 1 << a.code)
    for (label, a, c) in IMPLICATIONS
)
# The bits of the notions the audit asks the scan for.
_AUDIT_WANT = sum({1 << notion.code for (_, a, c) in IMPLICATIONS for notion in (a, c)})


def _collect_violations(values, totals, mms, want, start, stop):
    """(allocation index, agent, label rank) arrays of the violations in [start, stop).

    An agent violates an implication when its mask has the antecedent's bit
    and not the consequent's; ``want`` holds the bits of every implication.
    """
    n = len(values)
    plan = _kernels.ScanPlan(values, n, _kernels.scan_chunk(n))
    index, agent, rank = [], [], []
    for pos, count in plan.windows(start, stop):
        masks = _kernels.notion_masks(values, totals, mms, pos, count, want=want, plan=plan)
        for label_rank, both, antecedent in _AUDIT_TESTS:
            # Row-major positions in the window: row * n + agent.
            flat = np.flatnonzero((masks & np.uint16(both)) == antecedent)
            index.append(pos + flat // n)
            agent.append(flat % n)
            rank.append(np.full(flat.size, label_rank))
    return np.concatenate(index), np.concatenate(agent), np.concatenate(rank)


def implication_audit(
    inst: Instance,
    budget: int | None = None,
    workers: int = 1,
) -> AuditReport:
    """Check every implication in IMPLICATIONS for every agent of every allocation.

    Violations are ordered by (allocation index, agent, label).
    """
    total = inst.n**inst.m
    require_budget(total, budget, "audit")
    values, totals = _kernels.instance_arrays(inst.values, inst.totals)
    args = (values, totals, _mms_array(inst, True, budget), _AUDIT_WANT)
    parts = _scan_ranges(_collect_violations, args, 0, total, workers)
    index, agent, rank = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((rank, agent, index))
    violations = tuple(
        AuditViolation(_LABELS_SORTED[r], i, a)
        for i, a, r in zip(index[order].tolist(), agent[order].tolist(), rank[order].tolist())
    )
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
