"""Exhaustive ground truth over all n^m allocations.

Allocation index -> allocation: item j is owned by digit j of the index in
base n, least significant digit first, so index 0 gives every item to agent
0. ``exists`` and ``implication_audit`` read one result per window from the
scan driver every scan shares, ``_kernels.scan_windows``, in index order
whatever the worker count: ``exists`` stops at its first hit, the audit
concatenates them. Past the scan kind's break-even, several workers scan
the windows after the first on at most ``os.cpu_count()`` threads, a few
ahead of the reader. A bad worker count is refused before any scan work.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import NamedTuple

from . import _kernels
from .core import Allocation, Bundle, Instance, require_budget, require_int
from .fairness import Notion, _require_notion, check, mms_value


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


class AuditViolation(NamedTuple):
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

    def to_json_dict(self) -> dict:
        return {
            "implications": list(self.implications),
            "allocations_checked": self.allocations_checked,
            "ok": self.ok,
            "violations": [v._asdict() for v in self.violations],
        }


def allocation_from_index(n: int, m: int, index: int) -> Allocation:
    require_int(index, "allocation index {value!r} out of range for n^m = {high}", 0, n**m)
    bundles: list[list[int]] = [[] for _ in range(n)]
    rem = index
    for j in range(m):
        bundles[rem % n].append(j)
        rem //= n
    return Allocation(tuple(Bundle(tuple(b)) for b in bundles))


# Allocations in the first window of an early-exit scan; later windows double,
# since witnesses mostly lie near index 0.
FIRST_WINDOW = 256


def _scan_args(inst: Instance, want: int, budget: int | None, workers: int, what: str):
    """(n^m, the mask scan's (values, totals, mms, want)) once workers and budget are checked.

    ``mms`` holds every agent's MMS value when ``want`` has the MMS bit, else -1s.
    """
    require_int(workers, "workers must be an int of at least {low}, got {value!r}", 1)
    total = inst.n**inst.m
    require_budget(total, budget, what)
    values, totals = _kernels.instance_arrays(inst.values, inst.totals)
    np = _kernels.np
    if want & (1 << Notion.MMS.code):
        mms = np.array([mms_value(inst, i, budget=budget) for i in range(inst.n)], np.int64)
    else:
        mms = np.full(inst.n, -1, dtype=np.int64)
    return total, (values, totals, mms, want)


def _mask_scan(reduce, values, totals, mms, want, start, stop, workers, first=None):
    """The scan driver's ``reduce(pos, masks)`` of each window's ``want`` masks."""

    def window(plan, pos, count):
        masks = _kernels.notion_masks(values, totals, mms, pos, count, want=want, plan=plan)
        return reduce(pos, masks)

    return _kernels.scan_windows(values, window, start, stop, workers, first)


def _first_hit(pos, masks):
    """Index of the window's first allocation where every agent carries the bit, else -1."""
    where = _kernels.np.flatnonzero(masks.all(axis=1))
    return pos + int(where[0]) if where.size else -1


def exists(
    inst: Instance,
    notion: Notion,
    budget: int | None = None,
    workers: int = 1,
) -> ExistenceResult:
    """Scan all allocations for one fully satisfying the notion.

    Returns the first witness in enumeration order; the witness is
    re-verified with the exact checker before being reported. The scan
    stops at the window holding the first witness; with several workers, at
    most 2 * workers windows past it are scanned.
    """
    _require_notion(notion)
    total, args = _scan_args(inst, 1 << notion.code, budget, workers, "existence scan")
    hits = _mask_scan(_first_hit, *args, 0, total, workers, FIRST_WINDOW)
    with closing(hits):
        found = next((hit for hit in hits if hit >= 0), -1)
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


def _violations(pos, masks):
    """(allocation index, agent, label rank) arrays of a window's violations.

    An agent violates an implication when its mask has the antecedent's bit
    and not the consequent's.
    """
    np = _kernels.np
    # Positions in the window's [agent, allocation] masks: agent * count + row.
    masks = masks.T
    flats = [np.flatnonzero((masks & np.uint16(both)) == ante) for _, both, ante in _AUDIT_TESTS]
    flat = np.concatenate(flats)
    rank = np.repeat([label_rank for label_rank, _, _ in _AUDIT_TESTS], [f.size for f in flats])
    agent, row = np.divmod(flat, masks.shape[1])
    return pos + row, agent, rank


def implication_audit(
    inst: Instance,
    budget: int | None = None,
    workers: int = 1,
) -> AuditReport:
    """Check every implication in IMPLICATIONS for every agent of every allocation.

    Violations are ordered by (allocation index, agent, label).
    """
    total, args = _scan_args(inst, _AUDIT_WANT, budget, workers, "audit")
    parts = list(_mask_scan(_violations, *args, 0, total, workers))
    np = _kernels.np
    index, agent, rank = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((rank, agent, index))
    labels = map(_LABELS_SORTED.__getitem__, rank[order].tolist())
    violations = tuple(
        map(AuditViolation._make, zip(labels, index[order].tolist(), agent[order].tolist()))
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
    require_int(scale, "scale must be at least {low}, got {value!r}", 7)
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


def random_instance(
    n: int, m: int, max_value: int, seed: int, *, budget: int | None = None
) -> Instance:
    """Deterministic pseudo-random instance, reproducible across implementations.

    The generator is SplitMix64 seeded with ``seed``; draws are taken
    row-major (agent 0 item 0, item 1, ...) and mapped to 0..max_value by
    modulo. This fixes the instance stream independent of any library RNG.

    An instance of more than ``budget`` cells n * m (default
    ``core.DEFAULT_BUDGET``, 10,000,000) raises ResourceBudgetError before the
    first draw.
    """
    require_int(n, "need at least one agent, got n={value!r}", 1)
    require_int(m, "item count must be non-negative, got m={value!r}", 0)
    require_int(max_value, "max_value must be non-negative, got {value!r}", 0)
    require_int(seed, "seed must be an int, got {value!r}")
    require_budget(n * m, budget, f"a random instance of {n} x {m}", unit="cells")
    state = seed & _MASK64
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            state, z = _splitmix64(state)
            row.append(z % (max_value + 1))
        rows.append(tuple(row))
    return Instance(tuple(rows))
