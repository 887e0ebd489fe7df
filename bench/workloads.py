"""The benchmark's workloads: inputs, the timed op and the result checks.

Every workload is a closed loop with one caller. Op ``i`` of a run draws a
fresh instance with ``propm.random_instance``; its size class (and, for
``exists``, its notion) follows a fixed cycle of ``period`` ops that does not
depend on the seed, so every seed runs the same mix and only the valuations
change. The instance seed is a hash of (workload, run seed, op index). Runs
stop only at the end of a cycle, so each run measures whole cycles.

Only the public API is called. All scans run in-process (``workers=1``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import propm
from propm import Notion

# implication_audit reports EFX=>PROPX violations by design: EFx does not
# imply the min-pooled relaxation (README, Known limits).
EXPECTED_VIOLATIONS = frozenset({"EFX=>PROPX"})


@dataclass(frozen=True)
class OpInput:
    inst: propm.Instance
    notion: Notion | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    period: int  # ops per cycle of the size/notion mix
    trace_ops: int  # fixed op count of a traced run, a whole number of cycles
    make_input: Callable[[int, int], OpInput]  # (seed, op index) -> input
    op: Callable[[OpInput], Any]
    check: Callable[[OpInput, Any], tuple[bool, tuple]]  # -> (ok, canonical output)


def instance_seed(workload: str, seed: int, i: int) -> int:
    digest = hashlib.blake2b(f"{workload}:{seed}:{i}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def output_digest(canonical: tuple) -> str:
    return hashlib.blake2b(repr(canonical).encode(), digest_size=8).hexdigest()


def _bundles(allocation: propm.Allocation) -> tuple:
    return tuple(b.items for b in allocation.bundles)


def _allocation_index(inst: propm.Instance, allocation: propm.Allocation) -> int:
    index = 0
    for agent, bundle in enumerate(allocation.bundles):
        for j in bundle.items:
            index += agent * inst.n**j
    return index


# -- solve: solve_propm, then verify_certificate, then check(PROPM) -----------


def _solve_op(inp: OpInput):
    allocation, cert = propm.solve_propm(inp.inst)
    verified = propm.verify_certificate(inp.inst, allocation, cert)
    report = propm.check(inp.inst, allocation, Notion.PROPM)
    return allocation, verified, report.all_satisfied


def _solve_check(inp: OpInput, out) -> tuple[bool, tuple]:
    allocation, verified, propm_ok = out
    return bool(verified and propm_ok), _bundles(allocation)


def _solve_dp_input(seed: int, i: int) -> OpInput:
    # n cycles 3..5 and m cycles 32..48: all 51 (n, m) pairs once per cycle.
    n, m = 3 + i % 3, 32 + i % 17
    return OpInput(propm.random_instance(n, m, 10**4, instance_seed("solve-dp", seed, i)))


def _solve_small_input(seed: int, i: int) -> OpInput:
    # A cycle of 240 ops: every fourth op is one of the 60 (n, m) pairs with
    # n = 2..5, m = 10..24 and values up to 1e9, whose CP tables exceed the DP
    # limit and go to meet-in-the-middle; the rest have m = 6..16, values <= 100.
    s = instance_seed("solve-small", seed, i)
    k = i % 240
    if k % 4 == 3:
        j = k // 4
        return OpInput(propm.random_instance(2 + j % 4, 10 + j // 4, 10**9, s))
    j = k - k // 4
    return OpInput(propm.random_instance(2 + j % 4, 6 + j % 11, 100, s))


# -- exists: one notion per op, cycling through all 13 ---------------------------

NOTIONS = tuple(Notion)

# (n, m) cycle: n^m between 1.5e4 and 6.6e4 for n = 3..5, plus a wide slice
# where each allocation costs O(n^2). The wide sizes keep n^m within about
# one 8192-allocation scan chunk, so a full scan (EF, PROP and alt-minimax
# never hold when m < n) costs about what an early exit does. With 7 sizes
# and 13 notions every (size, notion) pair occurs once per 91 ops.
EXISTS_SIZES = ((3, 9), (4, 7), (5, 6), (3, 10), (4, 8), (10, 4), (16, 3))


def _exists_input(seed: int, i: int) -> OpInput:
    n, m = EXISTS_SIZES[i % len(EXISTS_SIZES)]
    inst = propm.random_instance(n, m, 100, instance_seed("exists", seed, i))
    return OpInput(inst, NOTIONS[i % len(NOTIONS)])


def _exists_op(inp: OpInput):
    return propm.exists(inp.inst, inp.notion, workers=1)


def _exists_check(inp: OpInput, res) -> tuple[bool, tuple]:
    inst = inp.inst
    if res.exists:
        # The witness is checked again with the exact reference checker, and
        # the scan must have stopped right after it.
        index = _allocation_index(inst, res.witness)
        ok = (
            propm.check(inst, res.witness, inp.notion).all_satisfied
            and res.allocations_checked == index + 1
        )
        witness = _bundles(res.witness)
    else:
        ok = res.witness is None and res.allocations_checked == inst.n**inst.m
        witness = None
    return ok, (inp.notion.value, res.exists, witness, res.allocations_checked)


# -- audit: implication_audit, then leximin_max and a cycle_swap on it ---------

AUDIT_SIZES = ((3, 9), (4, 7), (5, 6))


def _audit_input(seed: int, i: int) -> OpInput:
    n, m = AUDIT_SIZES[i % len(AUDIT_SIZES)]
    return OpInput(propm.random_instance(n, m, 100, instance_seed("audit", seed, i)))


def _audit_op(inp: OpInput):
    report = propm.implication_audit(inp.inst, workers=1)
    allocation, profile = propm.leximin_max(inp.inst)
    # The leximin maximum has an acyclic strict-EFx envy graph, so no swap exists.
    swapped = propm.cycle_swap(inp.inst, allocation)
    return report, allocation, profile, swapped


def _audit_check(inp: OpInput, out) -> tuple[bool, tuple]:
    report, allocation, profile, swapped = out
    inst = inp.inst
    violations = tuple((v.implication, v.allocation_index, v.agent) for v in report.violations)
    ok = (
        report.allocations_checked == inst.n**inst.m
        and all(label in EXPECTED_VIOLATIONS for label, _, _ in violations)
        and list(violations) == sorted(violations, key=lambda v: (v[1], v[2], v[0]))
        and swapped is None
        and profile == propm.adjusted_profile(inst, allocation)
    )
    leximin = (_allocation_index(inst, allocation), tuple(str(v) for v in profile.values))
    return ok, (report.allocations_checked, violations, leximin)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-dp", 51, 51, _solve_dp_input, _solve_op, _solve_check),
        Workload("solve-small", 240, 2400, _solve_small_input, _solve_op, _solve_check),
        Workload("exists", 91, 91, _exists_input, _exists_op, _exists_check),
        Workload("audit", 3, 60, _audit_input, _audit_op, _audit_check),
    )
}
