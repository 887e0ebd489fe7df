"""Constructive maximin-item-proportional (PROPm) solver for 2 to 5 agents.

The construction is a case analysis over a CP ladder built by a divider
agent (always the lowest-indexed agent alive): big items are split off
first, then the remaining agents either receive whole rungs of the ladder
or recursively split unions of rungs. Every run emits a Certificate: a
replayable trace of reductions, ladder constructions, case applications
(with the exact threshold comparisons that selected them) and recursive
sub-splits. ``verify_certificate`` re-checks a trace from scratch without
consulting any solver code path.

Case labels, with the counts that select them:
  n2.cut_and_choose      divider cuts via CP, the other agent chooses
  n3.two_distinct        the two non-dividers can take distinct rungs worth >= 1/3
  n3.one_bundle          both value only one rung; the complement pair is split
  n4.c=K...              K of agents {1,2,3} value A+D at least 1/2
  n5.cABE=K...           K of agents {1..4} value A+B+E at least 3/5
  n5.cAE=K...            K of agents {1..4} value A+E at least 2/5
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from .core import (
    Allocation,
    Bundle,
    InputError,
    Instance,
    InvariantViolationError,
    UnsupportedSizeError,
    restrict,
)
from .cpsets import cp_bundle, cp_ladder
from .fairness import Notion, check


class CertificateError(Exception):
    """A certificate failed to replay. Internal to verify_certificate."""


_REL = {
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}

RUNG_NAMES = {
    2: ("A", "B"),
    3: ("B", "A", "C"),
    4: ("C", "B", "A", "D"),
    5: ("D", "C", "B", "A", "E"),
}

KNOWN_LEMMAS = {
    "n1.take_all": 1,
    "n2.cut_and_choose": 2,
    "n3.two_distinct": 3,
    "n3.one_bundle": 3,
    "n4.c=0a": 4,
    "n4.c=0b": 4,
    "n4.c=1": 4,
    "n4.c=2": 4,
    "n4.c=3a": 4,
    "n4.c=3b": 4,
    "n5.cABE=4a": 5,
    "n5.cABE=4b": 5,
    "n5.cABE=3": 5,
    "n5.cABE=2": 5,
    "n5.cAE=2a": 5,
    "n5.cAE=2b": 5,
    "n5.cAE=2c": 5,
    "n5.cAE=1": 5,
    "n5.cAE=0a": 5,
    "n5.cAE=0b": 5,
    "n5.cAE=4.cABE=0": 5,
    "n5.cAE=4.cABE=1": 5,
    "n5.cAE=3.cABE=0": 5,
    "n5.cAE=3.cABE=1a": 5,
    "n5.cAE=3.cABE=1b": 5,
}


@dataclass(frozen=True)
class Compare:
    """A recorded exact comparison lhs_mult*v_agent(lhs_items) REL rhs_mult*v_agent(rhs_items).

    ``lhs`` and ``rhs`` are the concrete products at record time; replay
    recomputes both from the instance and requires equality plus the stated
    relation.
    """

    agent: int
    lhs_items: tuple[int, ...]
    lhs_mult: int
    rhs_items: tuple[int, ...]
    rhs_mult: int
    relation: str
    lhs: int
    rhs: int


@dataclass(frozen=True)
class BigItemReduction:
    """One agent takes one item worth more than her residual proportional share."""

    agent: int
    item: int
    residual_agent_count: int
    item_value: int
    residual_total: int


@dataclass(frozen=True)
class LadderBuilt:
    divider: int
    rung_names: tuple[str, ...]
    rungs: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CaseApplied:
    lemma: str
    roles: tuple[tuple[str, int], ...]
    assignments: tuple[tuple[int, tuple[int, ...]], ...]
    comparisons: tuple[Compare, ...]


@dataclass(frozen=True)
class SubSplit:
    """A recursive PROPm sub-solve of ``items`` among ``agents``.

    ``obs_bounds`` are the comparisons showing each split member values the
    sub-pool at least |agents|/n of her level total, which lifts local
    satisfaction to the full allocation.
    """

    agents: tuple[int, ...]
    items: tuple[int, ...]
    obs_bounds: tuple[Compare, ...]
    certificate: "Certificate"


Step = Union[BigItemReduction, LadderBuilt, CaseApplied, SubSplit]


@dataclass(frozen=True)
class Certificate:
    agents: tuple[int, ...]
    items: tuple[int, ...]
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class Reduction:
    assignments: tuple[tuple[int, int], ...]
    residual_agents: tuple[int, ...]
    residual_items: tuple[int, ...]
    steps: tuple[BigItemReduction, ...]


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _val(inst: Instance, agent: int, items) -> int:
    row = inst.values[agent]
    return sum(row[j] for j in items)


def _merge(*item_groups) -> tuple[int, ...]:
    merged: set[int] = set()
    for group in item_groups:
        merged.update(group)
    return tuple(sorted(merged))


def _cmp(inst, agent, lhs_items, lhs_mult, rhs_items, rhs_mult, relation) -> Compare:
    lhs = lhs_mult * _val(inst, agent, lhs_items)
    rhs = rhs_mult * _val(inst, agent, rhs_items)
    if not _REL[relation](lhs, rhs):
        raise InvariantViolationError(
            f"expected {lhs_mult}*v[{agent}]{tuple(lhs_items)} {relation} "
            f"{rhs_mult}*v[{agent}]{tuple(rhs_items)}, got {lhs} vs {rhs}"
        )
    return Compare(
        agent=agent,
        lhs_items=tuple(lhs_items),
        lhs_mult=lhs_mult,
        rhs_items=tuple(rhs_items),
        rhs_mult=rhs_mult,
        relation=relation,
        lhs=lhs,
        rhs=rhs,
    )


def _require_n(inst: Instance, n: int) -> None:
    if inst.n != n:
        raise InputError(f"this solver handles exactly {n} agents, got {inst.n}")


def _assemble(inst: Instance, assignment: dict[int, tuple[int, ...]]) -> Allocation:
    bundles = tuple(
        Bundle(tuple(sorted(assignment.get(i, ())))) for i in range(inst.n)
    )
    allocation = Allocation(bundles)
    allocation.validate_for(inst)
    return allocation


def _verify_propm(inst: Instance, allocation: Allocation, context: str) -> None:
    report = check(inst, allocation, Notion.PROPM)
    if not report.all_satisfied:
        bad = [i for i, v in enumerate(report.per_agent) if not v.satisfied]
        raise InvariantViolationError(
            f"{context} produced an allocation that fails the maximin-item test "
            f"for agents {bad}; this is a solver bug"
        )


# ---------------------------------------------------------------------------
# Certificate relabeling (sub-instance indices -> parent indices)
# ---------------------------------------------------------------------------


_AGENT_ROLES = ("divider", "chooser")


def _is_agent_role(name: str) -> bool:
    return name in _AGENT_ROLES or name.endswith("_agent")


def _relabel_items(items, imap):
    return tuple(sorted(imap[j] for j in items))


def _relabel_compare(comp: Compare, amap, imap) -> Compare:
    return replace(
        comp,
        agent=amap[comp.agent],
        lhs_items=_relabel_items(comp.lhs_items, imap),
        rhs_items=_relabel_items(comp.rhs_items, imap),
    )


def _relabel_step(step: Step, amap, imap) -> Step:
    if isinstance(step, BigItemReduction):
        return replace(step, agent=amap[step.agent], item=imap[step.item])
    if isinstance(step, LadderBuilt):
        return replace(
            step,
            divider=amap[step.divider],
            rungs=tuple(_relabel_items(r, imap) for r in step.rungs),
        )
    if isinstance(step, CaseApplied):
        return replace(
            step,
            roles=tuple(
                (name, amap[value] if _is_agent_role(name) else value)
                for name, value in step.roles
            ),
            assignments=tuple(
                (amap[a], _relabel_items(items, imap)) for a, items in step.assignments
            ),
            comparisons=tuple(_relabel_compare(c, amap, imap) for c in step.comparisons),
        )
    if isinstance(step, SubSplit):
        return SubSplit(
            agents=tuple(sorted(amap[a] for a in step.agents)),
            items=_relabel_items(step.items, imap),
            obs_bounds=tuple(_relabel_compare(c, amap, imap) for c in step.obs_bounds),
            certificate=_relabel_certificate(step.certificate, amap, imap),
        )
    raise InputError(f"unknown step type {type(step).__name__}")


def _relabel_certificate(cert: Certificate, amap, imap) -> Certificate:
    return Certificate(
        agents=tuple(sorted(amap[a] for a in cert.agents)),
        items=_relabel_items(cert.items, imap),
        steps=tuple(_relabel_step(s, amap, imap) for s in cert.steps),
    )


# ---------------------------------------------------------------------------
# Big-item preprocessing
# ---------------------------------------------------------------------------


def reduce_big_items(inst: Instance) -> Reduction:
    """Repeatedly hand the lexicographically first over-share (agent, item) pair its item.

    A pair fires when n' * v_ij > T'_i relative to the current residual
    (n' remaining agents, T'_i the agent's total over remaining items).
    Any PROPm allocation of the residual lifts to one for the whole instance.
    """
    agents = set(range(inst.n))
    items = set(range(inst.m))
    steps: list[BigItemReduction] = []
    assignments: list[tuple[int, int]] = []
    while True:
        n_res = len(agents)
        fired = None
        for i in sorted(agents):
            total_i = sum(inst.values[i][j] for j in items)
            for j in sorted(items):
                if n_res * inst.values[i][j] > total_i:
                    fired = (i, j, total_i)
                    break
            if fired:
                break
        if fired is None:
            break
        i, j, total_i = fired
        steps.append(
            BigItemReduction(
                agent=i,
                item=j,
                residual_agent_count=n_res,
                item_value=inst.values[i][j],
                residual_total=total_i,
            )
        )
        assignments.append((i, j))
        agents.remove(i)
        items.remove(j)
    return Reduction(
        assignments=tuple(assignments),
        residual_agents=tuple(sorted(agents)),
        residual_items=tuple(sorted(items)),
        steps=tuple(steps),
    )


# ---------------------------------------------------------------------------
# Sub-splits
# ---------------------------------------------------------------------------


def _split(inst: Instance, agents: tuple[int, ...], items: tuple[int, ...]):
    """Recursively solve ``items`` among ``agents`` and package the result.

    Returns (assignment map in this instance's indices, SubSplit step).
    """
    all_items = tuple(range(inst.m))
    k = len(agents)
    obs = tuple(_cmp(inst, a, items, inst.n, all_items, k, ">=") for a in agents)
    sub = restrict(inst, agents, items)
    sub_alloc, sub_cert = _SOLVE_BY_N[sub.instance.n](sub.instance)
    lifted = tuple(_relabel_step(s, sub.agents, sub.items) for s in sub_cert.steps)
    inner = Certificate(agents=agents, items=items, steps=lifted)
    assignment = {
        orig: bundle.items for orig, bundle in sub.lift_allocation(sub_alloc)
    }
    return assignment, SubSplit(agents=agents, items=items, obs_bounds=obs, certificate=inner)


# ---------------------------------------------------------------------------
# Solvers by agent count
# ---------------------------------------------------------------------------


def _solve1(inst: Instance) -> tuple[Allocation, Certificate]:
    _require_n(inst, 1)
    items = tuple(range(inst.m))
    step = CaseApplied(
        lemma="n1.take_all",
        roles=(("divider", 0),),
        assignments=((0, items),),
        comparisons=(),
    )
    allocation = _assemble(inst, {0: items})
    return allocation, Certificate(agents=(0,), items=items, steps=(step,))


def solve2(inst: Instance) -> tuple[Allocation, Certificate]:
    """Cut-and-choose: the divider splits via her CP bundle, the other agent picks."""
    _require_n(inst, 2)
    all_items = tuple(range(inst.m))
    ladder = cp_ladder(inst, 0, 2, inst.all_items())
    a_items, b_items = (r.items for r in ladder.rungs)
    steps: list[Step] = [LadderBuilt(divider=0, rung_names=RUNG_NAMES[2], rungs=(a_items, b_items))]
    v_a = _val(inst, 1, a_items)
    v_b = _val(inst, 1, b_items)
    if v_a >= v_b:
        comp = _cmp(inst, 1, a_items, 1, b_items, 1, ">=")
        assignment = {1: a_items, 0: b_items}
    else:
        comp = _cmp(inst, 1, b_items, 1, a_items, 1, ">")
        assignment = {1: b_items, 0: a_items}
    steps.append(
        CaseApplied(
            lemma="n2.cut_and_choose",
            roles=(("divider", 0), ("chooser", 1)),
            assignments=tuple(sorted(assignment.items())),
            comparisons=(comp,),
        )
    )
    allocation = _assemble(inst, assignment)
    _verify_propm(inst, allocation, "solve2")
    return allocation, Certificate(agents=(0, 1), items=all_items, steps=tuple(steps))


def solve3(inst: Instance) -> tuple[Allocation, Certificate]:
    """Three agents: hand out distinct rungs, or give the divider the rung the
    others ignore and let them split the complement."""
    _require_n(inst, 3)
    all_items = tuple(range(inst.m))
    ladder = cp_ladder(inst, 0, 3, inst.all_items())
    b_items, a_items, c_items = (r.items for r in ladder.rungs)
    steps: list[Step] = [
        LadderBuilt(divider=0, rung_names=RUNG_NAMES[3], rungs=(b_items, a_items, c_items))
    ]
    by_name = {"A": a_items, "B": b_items, "C": c_items}
    order = ("A", "B", "C")

    comps = []
    wants: dict[int, list[str]] = {1: [], 2: []}
    for i in (1, 2):
        for name in order:
            if 3 * _val(inst, i, by_name[name]) >= inst.totals[i]:
                wants[i].append(name)
                comps.append(_cmp(inst, i, by_name[name], 3, all_items, 1, ">="))
            else:
                comps.append(_cmp(inst, i, by_name[name], 3, all_items, 1, "<"))
    if not wants[1] or not wants[2]:
        raise InvariantViolationError("every agent values some rung at a third")

    assignment: dict[int, tuple[int, ...]] = {}
    roles = [("divider", 0)]
    sub_steps: list[Step] = []
    if len(set(wants[1]) | set(wants[2])) >= 2:
        lemma = "n3.two_distinct"
        chosen = None
        for p in order:
            if p not in wants[1]:
                continue
            for q in order:
                if q != p and q in wants[2]:
                    chosen = (p, q)
                    break
            if chosen:
                break
        if chosen is None:  # pragma: no cover - counting argument above
            raise InvariantViolationError("distinct rung assignment must exist")
        p, q = chosen
        remainder = next(name for name in order if name not in (p, q))
        assignment[1] = by_name[p]
        assignment[2] = by_name[q]
        assignment[0] = by_name[remainder]
    else:
        lemma = "n3.one_bundle"
        unique = (set(wants[1]) | set(wants[2])).pop()
        roles.append(("unique_rung_pos", RUNG_NAMES[3].index(unique)))
        if unique in ("A", "B"):
            assignment[0] = c_items
            split_assign, split_step = _split(inst, (1, 2), _merge(a_items, b_items))
        else:
            assignment[0] = b_items
            split_assign, split_step = _split(inst, (1, 2), _merge(a_items, c_items))
        assignment.update(split_assign)
        sub_steps.append(split_step)

    direct = _direct_agents(assignment, sub_steps)
    steps.append(
        CaseApplied(
            lemma=lemma,
            roles=tuple(roles),
            assignments=tuple(sorted((a, assignment[a]) for a in direct)),
            comparisons=tuple(comps),
        )
    )
    steps.extend(sub_steps)
    allocation = _assemble(inst, assignment)
    _verify_propm(inst, allocation, "solve3")
    return allocation, Certificate(agents=(0, 1, 2), items=all_items, steps=tuple(steps))


def _direct_agents(assignment, sub_steps):
    split_agents = set()
    for step in sub_steps:
        split_agents.update(step.agents)
    return [a for a in assignment if a not in split_agents]


def solve4(inst: Instance) -> tuple[Allocation, Certificate]:
    """Four agents: case analysis on how many of agents 1..3 value A+D at least 1/2."""
    _require_n(inst, 4)
    all_items = tuple(range(inst.m))
    ladder = cp_ladder(inst, 0, 4, inst.all_items())
    c_items, b_items, a_items, d_items = (r.items for r in ladder.rungs)
    steps: list[Step] = [
        LadderBuilt(divider=0, rung_names=RUNG_NAMES[4], rungs=(c_items, b_items, a_items, d_items))
    ]
    ad = _merge(a_items, d_items)
    bc = _merge(b_items, c_items)
    totals = inst.totals

    comps = [_cmp(inst, 0, ad, 2, all_items, 1, ">=")]
    halves = []
    for i in (1, 2, 3):
        if 2 * _val(inst, i, ad) >= totals[i]:
            halves.append(i)
            comps.append(_cmp(inst, i, ad, 2, all_items, 1, ">="))
        else:
            comps.append(_cmp(inst, i, ad, 2, all_items, 1, "<"))
    c = len(halves)

    assignment: dict[int, tuple[int, ...]] = {}
    roles = [("divider", 0)]
    sub_steps: list[Step] = []

    if c == 0:
        big_d = [i for i in (1, 2, 3) if 4 * _val(inst, i, d_items) >= totals[i]]
        if not big_d:
            lemma = "n4.c=0a"
            for i in (1, 2, 3):
                comps.append(_cmp(inst, i, d_items, 4, all_items, 1, "<"))
            comps.append(_cmp(inst, 0, d_items, 4, all_items, 1, ">="))
            assignment[0] = d_items
            split_assign, split_step = _split(inst, (1, 2, 3), _merge(a_items, b_items, c_items))
        else:
            lemma = "n4.c=0b"
            i0 = big_d[0]
            roles.append(("leftover_agent", i0))
            comps.append(_cmp(inst, i0, d_items, 4, all_items, 1, ">="))
            assignment[i0] = d_items
            assignment[0] = a_items
            others = tuple(i for i in (1, 2, 3) if i != i0)
            split_assign, split_step = _split(inst, others, bc)
        assignment.update(split_assign)
        sub_steps.append(split_step)
    elif c == 1:
        lemma = "n4.c=1"
        i0 = halves[0]
        roles.append(("half_agent", i0))
        others = tuple(i for i in (1, 2, 3) if i != i0)
        split_a, step_a = _split(inst, tuple(sorted((0, i0))), ad)
        split_b, step_b = _split(inst, others, bc)
        assignment.update(split_a)
        assignment.update(split_b)
        sub_steps.extend([step_a, step_b])
    elif c == 2:
        lemma = "n4.c=2"
        i0 = next(i for i in (1, 2, 3) if i not in halves)
        roles.append(("quarter_agent", i0))
        if _val(inst, i0, b_items) >= _val(inst, i0, c_items):
            fav, other = b_items, c_items
            comps.append(_cmp(inst, i0, b_items, 1, c_items, 1, ">="))
        else:
            fav, other = c_items, b_items
            comps.append(_cmp(inst, i0, c_items, 1, b_items, 1, ">"))
        comps.append(_cmp(inst, i0, fav, 4, all_items, 1, ">="))
        assignment[i0] = fav
        assignment[0] = other
        split_assign, split_step = _split(inst, tuple(halves), ad)
        assignment.update(split_assign)
        sub_steps.append(split_step)
    else:
        quarter = [
            i
            for i in (1, 2, 3)
            if 4 * _val(inst, i, b_items) >= totals[i] or 4 * _val(inst, i, c_items) >= totals[i]
        ]
        if quarter:
            lemma = "n4.c=3a"
            i0 = quarter[0]
            roles.append(("quarter_agent", i0))
            if _val(inst, i0, b_items) >= _val(inst, i0, c_items):
                fav, other = b_items, c_items
                comps.append(_cmp(inst, i0, b_items, 1, c_items, 1, ">="))
            else:
                fav, other = c_items, b_items
                comps.append(_cmp(inst, i0, c_items, 1, b_items, 1, ">"))
            comps.append(_cmp(inst, i0, fav, 4, all_items, 1, ">="))
            assignment[i0] = fav
            assignment[0] = other
            others = tuple(i for i in (1, 2, 3) if i != i0)
            split_assign, split_step = _split(inst, others, ad)
            assignment.update(split_assign)
            sub_steps.append(split_step)
        else:
            lemma = "n4.c=3b"
            for i in (1, 2, 3):
                comps.append(_cmp(inst, i, b_items, 4, all_items, 1, "<"))
                comps.append(_cmp(inst, i, c_items, 4, all_items, 1, "<"))
            assignment[0] = c_items
            split_assign, split_step = _split(inst, (1, 2, 3), _merge(a_items, b_items, d_items))
            assignment.update(split_assign)
            sub_steps.append(split_step)

    direct = _direct_agents(assignment, sub_steps)
    steps.append(
        CaseApplied(
            lemma=lemma,
            roles=tuple(roles),
            assignments=tuple(sorted((a, assignment[a]) for a in direct)),
            comparisons=tuple(comps),
        )
    )
    steps.extend(sub_steps)
    allocation = _assemble(inst, assignment)
    _verify_propm(inst, allocation, "solve4")
    return allocation, Certificate(agents=(0, 1, 2, 3), items=all_items, steps=tuple(steps))


def solve5(inst: Instance) -> tuple[Allocation, Certificate]:
    """Five agents: case analysis on how many of agents 1..4 value A+B+E at
    least 3/5 and A+E at least 2/5."""
    _require_n(inst, 5)
    all_items = tuple(range(inst.m))
    ladder = cp_ladder(inst, 0, 5, inst.all_items())
    d_items, c_items, b_items, a_items, e_items = (r.items for r in ladder.rungs)
    steps: list[Step] = [
        LadderBuilt(
            divider=0,
            rung_names=RUNG_NAMES[5],
            rungs=(d_items, c_items, b_items, a_items, e_items),
        )
    ]
    totals = inst.totals
    ae = _merge(a_items, e_items)
    abe = _merge(a_items, b_items, e_items)
    cd = _merge(c_items, d_items)
    bcd = _merge(b_items, c_items, d_items)

    comps = [
        _cmp(inst, 0, ae, 5, all_items, 2, ">="),
        _cmp(inst, 0, abe, 5, all_items, 3, ">="),
    ]
    others = (1, 2, 3, 4)
    abe_set = []
    ae_set = []
    for i in others:
        if 5 * _val(inst, i, abe) >= 3 * totals[i]:
            abe_set.append(i)
            comps.append(_cmp(inst, i, abe, 5, all_items, 3, ">="))
        else:
            comps.append(_cmp(inst, i, abe, 5, all_items, 3, "<"))
        if 5 * _val(inst, i, ae) >= 2 * totals[i]:
            ae_set.append(i)
            comps.append(_cmp(inst, i, ae, 5, all_items, 2, ">="))
        else:
            comps.append(_cmp(inst, i, ae, 5, all_items, 2, "<"))
    c_abe = len(abe_set)
    c_ae = len(ae_set)

    assignment: dict[int, tuple[int, ...]] = {}
    roles = [("divider", 0)]
    sub_steps: list[Step] = []

    if c_abe == 4:
        fifth = [
            i
            for i in others
            if 5 * _val(inst, i, c_items) >= totals[i] or 5 * _val(inst, i, d_items) >= totals[i]
        ]
        if fifth:
            lemma = "n5.cABE=4a"
            i0 = fifth[0]
            roles.append(("fifth_agent", i0))
            if 5 * _val(inst, i0, c_items) >= totals[i0]:
                give, other = c_items, d_items
                comps.append(_cmp(inst, i0, c_items, 5, all_items, 1, ">="))
            else:
                give, other = d_items, c_items
                comps.append(_cmp(inst, i0, d_items, 5, all_items, 1, ">="))
            assignment[i0] = give
            assignment[0] = other
            rest = tuple(i for i in others if i != i0)
            split_assign, split_step = _split(inst, rest, abe)
            assignment.update(split_assign)
            sub_steps.append(split_step)
        else:
            lemma = "n5.cABE=4b"
            for i in others:
                comps.append(_cmp(inst, i, c_items, 5, all_items, 1, "<"))
                comps.append(_cmp(inst, i, d_items, 5, all_items, 1, "<"))
            assignment[0] = d_items
            split_assign, split_step = _split(
                inst, others, _merge(a_items, b_items, c_items, e_items)
            )
            assignment.update(split_assign)
            sub_steps.append(split_step)
    elif c_abe == 3:
        lemma = "n5.cABE=3"
        i0 = next(i for i in others if i not in abe_set)
        roles.append(("low_abe_agent", i0))
        if _val(inst, i0, c_items) >= _val(inst, i0, d_items):
            fav, other = c_items, d_items
            comps.append(_cmp(inst, i0, c_items, 1, d_items, 1, ">="))
        else:
            fav, other = d_items, c_items
            comps.append(_cmp(inst, i0, d_items, 1, c_items, 1, ">"))
        comps.append(_cmp(inst, i0, fav, 5, all_items, 1, ">="))
        assignment[i0] = fav
        assignment[0] = other
        split_assign, split_step = _split(inst, tuple(abe_set), abe)
        assignment.update(split_assign)
        sub_steps.append(split_step)
    elif c_abe == 2:
        lemma = "n5.cABE=2"
        not_abe = tuple(i for i in others if i not in abe_set)
        split_a, step_a = _split(inst, tuple(sorted((0, *abe_set))), abe)
        split_b, step_b = _split(inst, not_abe, cd)
        assignment.update(split_a)
        assignment.update(split_b)
        sub_steps.extend([step_a, step_b])
    elif c_ae == 2:
        ae_pair = tuple(ae_set)
        not_pair = tuple(i for i in others if i not in ae_set)
        split_a, step_a = _split(inst, ae_pair, ae)
        sub_steps.append(step_a)
        assignment.update(split_a)
        by_name = {"B": b_items, "C": c_items, "D": d_items}
        rung_order = ("B", "C", "D")
        wants: dict[int, list[str]] = {}
        for i in not_pair:
            wants[i] = []
            for name in rung_order:
                if 5 * _val(inst, i, by_name[name]) >= totals[i]:
                    wants[i].append(name)
                    comps.append(_cmp(inst, i, by_name[name], 5, all_items, 1, ">="))
                else:
                    comps.append(_cmp(inst, i, by_name[name], 5, all_items, 1, "<"))
        u, w = not_pair
        if not wants[u] or not wants[w]:
            raise InvariantViolationError("each non-AE agent values some of B, C, D at a fifth")
        if len(set(wants[u]) | set(wants[w])) >= 2:
            lemma = "n5.cAE=2a"
            chosen = None
            for p in rung_order:
                if p not in wants[u]:
                    continue
                for q in rung_order:
                    if q != p and q in wants[w]:
                        chosen = (p, q)
                        break
                if chosen:
                    break
            if chosen is None:  # pragma: no cover - counting argument above
                raise InvariantViolationError("distinct rung assignment must exist")
            p, q = chosen
            remainder = next(name for name in rung_order if name not in (p, q))
            assignment[u] = by_name[p]
            assignment[w] = by_name[q]
            assignment[0] = by_name[remainder]
        else:
            unique = (set(wants[u]) | set(wants[w])).pop()
            roles.append(("unique_rung_pos", RUNG_NAMES[5].index(unique)))
            if unique in ("B", "C"):
                lemma = "n5.cAE=2b"
                assignment[0] = d_items
                split_b, step_b = _split(inst, not_pair, _merge(b_items, c_items))
            else:
                lemma = "n5.cAE=2c"
                assignment[0] = b_items
                split_b, step_b = _split(inst, not_pair, cd)
            assignment.update(split_b)
            sub_steps.append(step_b)
    elif c_ae == 1:
        lemma = "n5.cAE=1"
        i0 = ae_set[0]
        roles.append(("ae_agent", i0))
        rest = tuple(i for i in others if i != i0)
        split_a, step_a = _split(inst, tuple(sorted((0, i0))), ae)
        split_b, step_b = _split(inst, rest, bcd)
        assignment.update(split_a)
        assignment.update(split_b)
        sub_steps.extend([step_a, step_b])
    elif c_ae == 0:
        fifth_e = [i for i in others if 5 * _val(inst, i, e_items) >= totals[i]]
        if not fifth_e:
            lemma = "n5.cAE=0a"
            for i in others:
                comps.append(_cmp(inst, i, e_items, 5, all_items, 1, "<"))
            comps.append(_cmp(inst, 0, e_items, 5, all_items, 1, ">="))
            assignment[0] = e_items
            split_assign, split_step = _split(
                inst, others, _merge(a_items, b_items, c_items, d_items)
            )
            assignment.update(split_assign)
            sub_steps.append(split_step)
        else:
            lemma = "n5.cAE=0b"
            i0 = fifth_e[0]
            roles.append(("leftover_agent", i0))
            comps.append(_cmp(inst, i0, e_items, 5, all_items, 1, ">="))
            assignment[i0] = e_items
            assignment[0] = a_items
            rest = tuple(i for i in others if i != i0)
            split_assign, split_step = _split(inst, rest, bcd)
            assignment.update(split_assign)
            sub_steps.append(split_step)
    elif c_ae == 4 and c_abe == 0:
        lemma = "n5.cAE=4.cABE=0"
        assignment[0] = b_items
        split_a, step_a = _split(inst, (1, 2), ae)
        split_b, step_b = _split(inst, (3, 4), cd)
        assignment.update(split_a)
        assignment.update(split_b)
        sub_steps.extend([step_a, step_b])
    elif c_ae == 4 and c_abe == 1:
        lemma = "n5.cAE=4.cABE=1"
        w = abe_set[0]
        roles.append(("abe_agent", w))
        partner = min(i for i in others if i != w)
        rest = tuple(i for i in others if i not in (w, partner))
        assignment[0] = b_items
        split_a, step_a = _split(inst, tuple(sorted((w, partner))), ae)
        split_b, step_b = _split(inst, rest, cd)
        assignment.update(split_a)
        assignment.update(split_b)
        sub_steps.extend([step_a, step_b])
    elif c_ae == 3 and c_abe == 0:
        lemma = "n5.cAE=3.cABE=0"
        u = next(i for i in others if i not in ae_set)
        roles.append(("low_ae_agent", u))
        aes = tuple(ae_set)
        assignment[0] = b_items
        split_a, step_a = _split(inst, aes[:2], ae)
        split_b, step_b = _split(inst, tuple(sorted((aes[2], u))), cd)
        assignment.update(split_a)
        assignment.update(split_b)
        sub_steps.extend([step_a, step_b])
    elif c_ae == 3 and c_abe == 1:
        u = next(i for i in others if i not in ae_set)
        w = abe_set[0]
        roles.append(("low_ae_agent", u))
        roles.append(("abe_agent", w))
        if u == w:
            lemma = "n5.cAE=3.cABE=1a"
            comps.append(_cmp(inst, w, b_items, 5, all_items, 1, ">"))
            assignment[w] = b_items
            aes = tuple(ae_set)
            split_a, step_a = _split(inst, tuple(sorted((0, aes[0]))), ae)
            split_b, step_b = _split(inst, aes[1:], cd)
        else:
            lemma = "n5.cAE=3.cABE=1b"
            assignment[0] = b_items
            partner = min(i for i in ae_set if i != w)
            third = next(i for i in ae_set if i not in (w, partner))
            split_a, step_a = _split(inst, tuple(sorted((w, partner))), ae)
            split_b, step_b = _split(inst, tuple(sorted((third, u))), cd)
        assignment.update(split_a)
        assignment.update(split_b)
        sub_steps.extend([step_a, step_b])
    else:  # pragma: no cover - the case table is exhaustive
        raise InvariantViolationError(
            f"5-agent dispatch fell through with counts cABE={c_abe}, cAE={c_ae}"
        )

    direct = _direct_agents(assignment, sub_steps)
    steps.append(
        CaseApplied(
            lemma=lemma,
            roles=tuple(roles),
            assignments=tuple(sorted((a, assignment[a]) for a in direct)),
            comparisons=tuple(comps),
        )
    )
    steps.extend(sub_steps)
    allocation = _assemble(inst, assignment)
    _verify_propm(inst, allocation, "solve5")
    return allocation, Certificate(agents=(0, 1, 2, 3, 4), items=all_items, steps=tuple(steps))


_SOLVE_BY_N = {1: _solve1, 2: solve2, 3: solve3, 4: solve4, 5: solve5}


def solve_propm(inst: Instance) -> tuple[Allocation, Certificate]:
    """Big-item preprocessing, then the constructive solver for the residual.

    Supports any instance whose residual after reductions has at most five
    agents; the output always passes the exact maximin-item test.
    """
    red = reduce_big_items(inst)
    if len(red.residual_agents) > 5:
        raise UnsupportedSizeError(
            f"residual instance has {len(red.residual_agents)} agents; at most 5 supported"
        )
    assignment: dict[int, tuple[int, ...]] = {a: (j,) for (a, j) in red.assignments}
    steps: list[Step] = list(red.steps)
    sub = restrict(inst, red.residual_agents, red.residual_items)
    sub_alloc, sub_cert = _SOLVE_BY_N[sub.instance.n](sub.instance)
    for orig_agent, bundle in sub.lift_allocation(sub_alloc):
        assignment[orig_agent] = bundle.items
    steps.extend(_relabel_step(s, sub.agents, sub.items) for s in sub_cert.steps)
    allocation = _assemble(inst, assignment)
    certificate = Certificate(
        agents=tuple(range(inst.n)), items=tuple(range(inst.m)), steps=tuple(steps)
    )
    _verify_propm(inst, allocation, "solve_propm")
    return allocation, certificate


# ---------------------------------------------------------------------------
# Certificate replay and verification
# ---------------------------------------------------------------------------


def _req(condition: bool, message: str) -> None:
    if not condition:
        raise CertificateError(message)


def _verify_compare(inst: Instance, comp: Compare) -> None:
    _req(0 <= comp.agent < inst.n, "comparison agent out of range")
    m = inst.m
    for items in (comp.lhs_items, comp.rhs_items):
        _req(not items or (min(items) >= 0 and max(items) < m), "comparison item out of range")
    lhs = comp.lhs_mult * _val(inst, comp.agent, comp.lhs_items)
    rhs = comp.rhs_mult * _val(inst, comp.agent, comp.rhs_items)
    _req(lhs == comp.lhs and rhs == comp.rhs, "recorded comparison values do not recompute")
    _req(comp.relation in _REL, "unknown comparison relation")
    _req(_REL[comp.relation](lhs, rhs), "recorded comparison does not hold")


def _replay(inst: Instance, cert: Certificate) -> dict[int, tuple[int, ...]]:
    _req(len(set(cert.agents)) == len(cert.agents), "duplicate agents in certificate")
    _req(len(set(cert.items)) == len(cert.items), "duplicate items in certificate")
    remaining_agents = set(cert.agents)
    remaining_items = set(cert.items)
    level_agents = set(cert.agents)
    allocation: dict[int, tuple[int, ...]] = {}

    for step in cert.steps:
        if isinstance(step, BigItemReduction):
            _req(step.agent in remaining_agents, "reduction agent not available")
            _req(step.item in remaining_items, "reduction item not available")
            n_res = len(remaining_agents)
            item_value = inst.values[step.agent][step.item]
            residual_total = sum(inst.values[step.agent][j] for j in remaining_items)
            _req(
                step.residual_agent_count == n_res
                and step.item_value == item_value
                and step.residual_total == residual_total,
                "reduction step does not recompute",
            )
            _req(n_res * item_value > residual_total, "reduction threshold does not hold")
            for i in sorted(remaining_agents):
                if i > step.agent:
                    break
                total_i = sum(inst.values[i][j] for j in remaining_items)
                for j in sorted(remaining_items):
                    if i == step.agent and j >= step.item:
                        break
                    _req(
                        n_res * inst.values[i][j] <= total_i,
                        "reduction is not lexicographically first",
                    )
            allocation[step.agent] = (step.item,)
            remaining_agents.remove(step.agent)
            remaining_items.remove(step.item)
        elif isinstance(step, LadderBuilt):
            _req(bool(remaining_agents), "ladder with no agents left")
            _req(step.divider == min(remaining_agents), "divider is not the lowest agent")
            r = len(step.rungs)
            _req(r == len(remaining_agents), "rung count differs from remaining agents")
            _req(step.rung_names == RUNG_NAMES.get(r), "unexpected rung names")
            covered: set[int] = set()
            for rung in step.rungs:
                rung_set = set(rung)
                _req(len(rung_set) == len(rung), "duplicate items in a rung")
                _req(rung_set <= remaining_items, "rung leaves the remaining items")
                _req(not (rung_set & covered), "rungs overlap")
                covered |= rung_set
            _req(covered == remaining_items, "rungs do not cover the remaining items")
            shrinking = set(remaining_items)
            for pos, k in enumerate(range(r, 1, -1)):
                expected = cp_bundle(inst, step.divider, k, Bundle.of(shrinking)).items
                _req(step.rungs[pos] == expected, "rung differs from its CP recomputation")
                shrinking -= set(expected)
            _req(step.rungs[-1] == tuple(sorted(shrinking)), "leftover rung mismatch")
        elif isinstance(step, CaseApplied):
            _req(step.lemma in KNOWN_LEMMAS, "unknown case label")
            _req(
                KNOWN_LEMMAS[step.lemma] == len(remaining_agents),
                "case label does not match the remaining agent count",
            )
            for comp in step.comparisons:
                _verify_compare(inst, comp)
            for name, value in step.roles:
                if _is_agent_role(name):
                    _req(value in level_agents, "role names an agent outside this level")
            for agent, items in step.assignments:
                _req(agent in remaining_agents, "assignment to an unavailable agent")
                item_set = set(items)
                _req(len(item_set) == len(items), "duplicate items in an assignment")
                _req(item_set <= remaining_items, "assignment of unavailable items")
                _req(tuple(sorted(items)) == tuple(items), "assignment items not sorted")
                allocation[agent] = items
                remaining_agents.remove(agent)
                remaining_items -= item_set
        elif isinstance(step, SubSplit):
            agent_set = set(step.agents)
            item_set = set(step.items)
            _req(agent_set <= remaining_agents, "sub-split agents unavailable")
            _req(item_set <= remaining_items, "sub-split items unavailable")
            _req(
                step.certificate.agents == tuple(sorted(agent_set))
                and step.certificate.items == tuple(sorted(item_set)),
                "inner certificate does not match the sub-split",
            )
            for comp in step.obs_bounds:
                _verify_compare(inst, comp)
            inner = _replay(inst, step.certificate)
            _req(set(inner) == agent_set, "inner allocation covers the wrong agents")
            allocation.update(inner)
            remaining_agents -= agent_set
            remaining_items -= item_set
        else:
            raise CertificateError(f"unknown step type {type(step).__name__}")

    _req(not remaining_agents, "some agents never received a bundle")
    _req(not remaining_items, "some items were never assigned")
    return allocation


def replay_certificate(inst: Instance, cert: Certificate) -> Allocation:
    """Reproduce the allocation a certificate describes, re-checking every record.

    Raises CertificateError when any recorded fact fails to recompute.
    """
    mapping = _replay(inst, cert)
    bundles = tuple(Bundle(tuple(sorted(mapping.get(i, ())))) for i in range(inst.n))
    return Allocation(bundles)


def verify_certificate(inst: Instance, allocation: Allocation, cert: Certificate) -> bool:
    """True iff the certificate replays to exactly this allocation.

    Replay is independent of the solver's control flow: rungs are recomputed
    from the CP definition, every recorded comparison is recomputed from the
    instance, and the step structure must cover all agents and items.

    Rung recomputation may answer from the CP memo the solve filled. That
    memo holds outputs of a pure function of (values, cap), which solver and
    verifier already both trust; it shares no solver control flow and never
    reads a certificate field, so every recorded rung is still compared with
    the CP bundle of the verifier's own base set.
    """
    try:
        if cert.agents != tuple(range(inst.n)) or cert.items != tuple(range(inst.m)):
            return False
        replayed = replay_certificate(inst, cert)
    except (CertificateError, InputError, IndexError, KeyError, ValueError):
        return False
    return replayed.bundles == allocation.bundles


def ladder_discipline_ok(inst: Instance, cert: Certificate) -> bool:
    """Structural audit of the rung-mixing rule.

    Whenever a level's divider receives a whole rung, no final bundle may mix
    items from higher rungs with items from lower rungs of that ladder.
    """
    try:
        final = _replay(inst, cert)
    except CertificateError:
        return False
    bundles = [set(items) for items in final.values()]

    def walk(c: Certificate) -> bool:
        ladder: LadderBuilt | None = None
        for step in c.steps:
            if isinstance(step, LadderBuilt):
                ladder = step
            elif isinstance(step, CaseApplied) and ladder is not None:
                for agent, items in step.assignments:
                    if agent != ladder.divider:
                        continue
                    for pos, rung in enumerate(ladder.rungs):
                        if tuple(items) == rung:
                            higher: set[int] = set()
                            for r in ladder.rungs[:pos]:
                                higher.update(r)
                            lower: set[int] = set()
                            for r in ladder.rungs[pos + 1 :]:
                                lower.update(r)
                            for bundle in bundles:
                                if bundle & higher and bundle & lower:
                                    return False
            elif isinstance(step, SubSplit):
                if not walk(step.certificate):
                    return False
        return True

    return walk(cert)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _compare_to_dict(comp: Compare) -> dict:
    return {
        "agent": comp.agent,
        "lhs_items": list(comp.lhs_items),
        "lhs_mult": comp.lhs_mult,
        "rhs_items": list(comp.rhs_items),
        "rhs_mult": comp.rhs_mult,
        "relation": comp.relation,
        "lhs": comp.lhs,
        "rhs": comp.rhs,
    }


def _compare_from_dict(data: dict) -> Compare:
    return Compare(
        agent=data["agent"],
        lhs_items=tuple(data["lhs_items"]),
        lhs_mult=data["lhs_mult"],
        rhs_items=tuple(data["rhs_items"]),
        rhs_mult=data["rhs_mult"],
        relation=data["relation"],
        lhs=data["lhs"],
        rhs=data["rhs"],
    )


def _step_to_dict(step: Step) -> dict:
    if isinstance(step, BigItemReduction):
        return {
            "type": "reduction",
            "agent": step.agent,
            "item": step.item,
            "residual_agent_count": step.residual_agent_count,
            "item_value": step.item_value,
            "residual_total": step.residual_total,
        }
    if isinstance(step, LadderBuilt):
        return {
            "type": "ladder",
            "divider": step.divider,
            "rung_names": list(step.rung_names),
            "rungs": [list(r) for r in step.rungs],
        }
    if isinstance(step, CaseApplied):
        return {
            "type": "case",
            "lemma": step.lemma,
            "roles": [[name, value] for name, value in step.roles],
            "assignments": [[agent, list(items)] for agent, items in step.assignments],
            "comparisons": [_compare_to_dict(c) for c in step.comparisons],
        }
    if isinstance(step, SubSplit):
        return {
            "type": "split",
            "agents": list(step.agents),
            "items": list(step.items),
            "obs_bounds": [_compare_to_dict(c) for c in step.obs_bounds],
            "certificate": certificate_to_json_dict(step.certificate),
        }
    raise InputError(f"unknown step type {type(step).__name__}")


def _step_from_dict(data: dict) -> Step:
    kind = data.get("type")
    if kind == "reduction":
        return BigItemReduction(
            agent=data["agent"],
            item=data["item"],
            residual_agent_count=data["residual_agent_count"],
            item_value=data["item_value"],
            residual_total=data["residual_total"],
        )
    if kind == "ladder":
        return LadderBuilt(
            divider=data["divider"],
            rung_names=tuple(data["rung_names"]),
            rungs=tuple(tuple(r) for r in data["rungs"]),
        )
    if kind == "case":
        return CaseApplied(
            lemma=data["lemma"],
            roles=tuple((name, value) for name, value in data["roles"]),
            assignments=tuple((agent, tuple(items)) for agent, items in data["assignments"]),
            comparisons=tuple(_compare_from_dict(c) for c in data["comparisons"]),
        )
    if kind == "split":
        return SubSplit(
            agents=tuple(data["agents"]),
            items=tuple(data["items"]),
            obs_bounds=tuple(_compare_from_dict(c) for c in data["obs_bounds"]),
            certificate=certificate_from_json_dict(data["certificate"]),
        )
    raise InputError(f"unknown certificate step type {kind!r}")


def certificate_to_json_dict(cert: Certificate) -> dict:
    return {
        "agents": list(cert.agents),
        "items": list(cert.items),
        "steps": [_step_to_dict(s) for s in cert.steps],
    }


def certificate_from_json_dict(data: dict) -> Certificate:
    return Certificate(
        agents=tuple(data["agents"]),
        items=tuple(data["items"]),
        steps=tuple(_step_from_dict(s) for s in data["steps"]),
    )
