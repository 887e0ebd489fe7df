"""Constructive maximin-item-proportional (PROPm) solver for 2 to 5 agents.

The construction is a case analysis over a CP ladder built by a divider
agent (always the lowest-indexed agent alive): big items are split off
first, then the remaining agents either receive whole rungs of the ladder
or recursively split unions of rungs. Every level of that recursion is
solved in the original agent and item indices: it takes the agents (the
lowest one divides) and the item pool it shares, and writes its
allocation and certificate steps directly, so no step is ever relabelled.
Every run emits a Certificate that records the construction's choices
only: each big-item reduction (agent, item), each ladder (the
``CpLadder`` that ``cp_ladder`` returns: divider, rungs), each case applied
(a label and the whole bundles the case hands out) and each recursive
sub-split (a nested certificate over its members and sub-pool).
``verify_certificate`` is the one verification entry point. Its replay
derives the rest from the instance alone: which reduction comes first, the
CP rungs, every case's obligations and every sub-split's share bound, and
it checks each recorded choice against them. So an accepted certificate
proves its allocation PROPm without consulting any solver code path.

Case labels, with the counts that select them:
  n2.cut_and_choose      divider cuts via CP, the other agent chooses
  n3.two_distinct        the two non-dividers can take distinct rungs worth >= 1/3
  n3.one_bundle          both value only one rung; the complement pair is split
  n4.c=K...              K of agents {1,2,3} value A+D at least 1/2
  n5.cABE=K...           K of agents {1..4} value A+B+E at least 3/5
  n5.cAE=K...            K of agents {1..4} value A+E at least 2/5
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from functools import cache
from typing import ClassVar, Union, get_args, get_origin, get_type_hints

from .core import (
    Allocation,
    Bundle,
    InputError,
    Instance,
    InvariantViolationError,
    UnsupportedSizeError,
    require_allocation,
    require_int,
)
from .cpsets import CpLadder, cp_ladder
from .fairness import Notion, check


class CertificateError(Exception):
    """A certificate failed to replay. Internal to verify_certificate."""


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
class BigItemReduction:
    """One agent takes one item worth more than her residual proportional share."""

    type: ClassVar[str] = "reduction"
    agent: int
    item: int


@dataclass(frozen=True)
class CaseApplied:
    """The case a level applies: its label and the bundles it hands out whole.

    ``assignments`` pairs each directly served agent with its sorted items;
    the level's other agents are served by the sub-splits that follow.
    """

    type: ClassVar[str] = "case"
    lemma: str
    assignments: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class SubSplit:
    """A recursive PROPm sub-solve, recorded as its own certificate.

    The nested certificate's ``agents`` and ``items`` are the sub-split's
    members and sub-pool. Nothing else is recorded: replay derives each
    member's share bound, n*v(items) >= |agents|*v(pool) over the level's n
    agents and pool (``_share_holds``). When every bound holds, each member
    values the sub-pool at least |agents|/n of the level's pool, so a PROPm
    split of the sub-pool is PROPm for the level too.
    """

    type: ClassVar[str] = "split"
    certificate: "Certificate"


# Certificate JSON tells the steps apart by their ``type`` tags. A ladder step
# is the divider's CP ladder over its level's pool, one rung per agent; the
# case functions name the rungs by position (for three agents B, A, C).
Step = Union[BigItemReduction, CpLadder, CaseApplied, SubSplit]


@dataclass(frozen=True)
class Certificate:
    agents: tuple[int, ...]
    items: tuple[int, ...]
    steps: tuple[Step, ...]


@dataclass(frozen=True)
class Reduction:
    residual_agents: tuple[int, ...]
    residual_items: tuple[int, ...]
    steps: tuple[BigItemReduction, ...]


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _val(inst: Instance, agent: int, items) -> int:
    return sum(map(inst.values[agent].__getitem__, items))


def _merge(*item_groups) -> tuple[int, ...]:
    merged: set[int] = set()
    for group in item_groups:
        merged.update(group)
    return tuple(sorted(merged))


def _without(pool: tuple[int, ...], items) -> tuple[int, ...]:
    drop = set(items)
    return tuple(j for j in pool if j not in drop)


# ---------------------------------------------------------------------------
# Big-item preprocessing
# ---------------------------------------------------------------------------


def _first_reduction(inst: Instance, agents, items) -> BigItemReduction | None:
    """The lexicographically first over-share (agent, item) pair among ``agents`` and ``items``.

    A pair is over-share when n' * v_ij > T'_i, with n' = len(agents) and
    T'_i agent i's total over ``items``. None when no pair is.
    """
    n_res = len(agents)
    pool = sorted(items)
    for i in sorted(agents):
        row = inst.values[i]
        total_i = sum(row[j] for j in pool)
        for j in pool:
            if n_res * row[j] > total_i:
                return BigItemReduction(i, j)
    return None


def reduce_big_items(inst: Instance) -> Reduction:
    """Repeatedly hand the lexicographically first over-share (agent, item) pair its item.

    Thresholds are relative to the current residual (``_first_reduction``).
    Any PROPm allocation of the residual lifts to one for the whole instance.
    """
    agents = set(range(inst.n))
    items = set(range(inst.m))
    steps: list[BigItemReduction] = []
    while (step := _first_reduction(inst, agents, items)) is not None:
        steps.append(step)
        agents.remove(step.agent)
        items.remove(step.item)
    return Reduction(
        residual_agents=tuple(sorted(agents)),
        residual_items=tuple(sorted(items)),
        steps=tuple(steps),
    )


def _share_holds(inst: Instance, pool, n: int, agents, items) -> bool:
    """Whether n*v_a(items) >= len(agents)*v_a(pool) for every a in ``agents``.

    A split of ``items`` among ``agents`` inside a level of n agents sharing
    ``pool`` then lifts to that level.
    """
    k = len(agents)
    return all(n * _val(inst, a, items) >= k * _val(inst, a, pool) for a in agents)


# ---------------------------------------------------------------------------
# One level of the construction
# ---------------------------------------------------------------------------


class _Level:
    """One level of the construction: ``agents`` share the item ``pool``.

    Everything is in original indices. ``agents[0]`` is the divider and
    ``totals[a]`` is agent a's value for the pool. The case code records its
    direct assignments in ``assignment`` and its sub-splits in ``sub_steps``;
    the sub-splits' own results go to ``sub_assignment``.
    """

    def __init__(self, inst: Instance, agents: tuple[int, ...], pool: tuple[int, ...]):
        self.inst = inst
        self.agents = agents
        self.pool = pool
        self.totals = {a: _val(inst, a, pool) for a in agents}
        self.assignment: dict[int, tuple[int, ...]] = {}
        self.sub_assignment: dict[int, tuple[int, ...]] = {}
        self.sub_steps: list[SubSplit] = []

    def at_least(self, agent: int, items, mult: int, pool_mult: int = 1) -> bool:
        """Whether mult*v(items) >= pool_mult*v(pool) for ``agent``."""
        return mult * _val(self.inst, agent, items) >= pool_mult * self.totals[agent]

    def prefer(self, agent: int, x, y):
        """(better, worse) of x and y for ``agent``; ties go to x."""
        return (x, y) if _val(self.inst, agent, x) >= _val(self.inst, agent, y) else (y, x)

    def split(self, agents, items: tuple[int, ...]) -> None:
        """Solve ``items`` among ``agents`` one level down, recorded as a SubSplit.

        Each member must value ``items`` at least |agents|/n of this level's pool.
        """
        agents = tuple(sorted(agents))
        if not _share_holds(self.inst, self.pool, len(self.agents), agents, items):
            raise InvariantViolationError(f"a member of {agents} values {items} below its share")
        assignment, steps = _solve_level(self.inst, agents, items)
        self.sub_assignment.update(assignment)
        inner = Certificate(agents=agents, items=items, steps=tuple(steps))
        self.sub_steps.append(SubSplit(inner))


def _rung_choice(lv: _Level, pair, by_name: dict[str, tuple[int, ...]], mult: int):
    """Find the rungs each agent of ``pair`` values at 1/mult of the pool.

    Returns the first distinct choice in ``by_name`` order as three rung
    names (the first agent's, the second's, the leftover), or a single name
    when both agents value that one rung only.
    """
    wants = {
        i: [name for name, items in by_name.items() if lv.at_least(i, items, mult)]
        for i in pair
    }
    u, w = pair
    if not wants[u] or not wants[w]:
        raise InvariantViolationError(f"agents {u} and {w} each value some rung at 1/{mult}")
    for p in wants[u]:
        for q in wants[w]:
            if q != p:
                return p, q, next(name for name in by_name if name not in (p, q))
    return (wants[u][0],)


def _leftover(lv: _Level, a_items: tuple[int, ...], last: tuple[int, ...], mult: int) -> bool:
    """No other agent clears the level's first bar, so someone takes the last rung.

    If no other agent values ``last`` at 1/mult of the pool, the divider takes
    it, the others split the rest, and this returns True. Otherwise the first
    agent who does takes it, the divider takes A, and the others split what
    remains.
    """
    divider, others = lv.agents[0], lv.agents[1:]
    takers = [i for i in others if lv.at_least(i, last, mult)]
    if not takers:
        lv.assignment[divider] = last
        lv.split(others, _without(lv.pool, last))
        return True
    i0 = takers[0]
    lv.assignment[i0] = last
    lv.assignment[divider] = a_items
    lv.split([i for i in others if i != i0], _without(lv.pool, a_items + last))
    return False


def _case2(lv: _Level, a_items, b_items) -> str:
    divider, chooser = lv.agents
    lv.assignment[chooser], lv.assignment[divider] = lv.prefer(chooser, a_items, b_items)
    return "n2.cut_and_choose"


def _case3(lv: _Level, b_items, a_items, c_items) -> str:
    divider, u, w = lv.agents
    by_name = {"A": a_items, "B": b_items, "C": c_items}
    pick = _rung_choice(lv, (u, w), by_name, 3)
    if len(pick) == 3:
        for agent, name in zip((u, w, divider), pick):
            lv.assignment[agent] = by_name[name]
        return "n3.two_distinct"
    if pick[0] in ("A", "B"):
        lv.assignment[divider] = c_items
        lv.split((u, w), _merge(a_items, b_items))
    else:
        lv.assignment[divider] = b_items
        lv.split((u, w), _merge(a_items, c_items))
    return "n3.one_bundle"


def _case4(lv: _Level, c_items, b_items, a_items, d_items) -> str:
    divider, others = lv.agents[0], lv.agents[1:]
    ad = _merge(a_items, d_items)
    halves = [i for i in others if lv.at_least(i, ad, 2)]

    if not halves:
        return "n4.c=0a" if _leftover(lv, a_items, d_items, 4) else "n4.c=0b"
    if len(halves) == 1:
        i0 = halves[0]
        lv.split((divider, i0), ad)
        lv.split([i for i in others if i != i0], _merge(b_items, c_items))
        return "n4.c=1"
    if len(halves) == 2:
        lemma = "n4.c=2"
        i0 = next(i for i in others if i not in halves)
    else:
        quarter = [i for i in others if lv.at_least(i, b_items, 4) or lv.at_least(i, c_items, 4)]
        if not quarter:
            lv.assignment[divider] = c_items
            lv.split(others, _merge(a_items, b_items, d_items))
            return "n4.c=3b"
        lemma = "n4.c=3a"
        i0 = quarter[0]
    # One agent outside the A+D pair takes whichever of B and C it values more.
    fav, other = lv.prefer(i0, b_items, c_items)
    lv.assignment[i0] = fav
    lv.assignment[divider] = other
    lv.split([i for i in others if i != i0], ad)
    return lemma


def _case5(lv: _Level, d_items, c_items, b_items, a_items, e_items) -> str:
    divider, others = lv.agents[0], lv.agents[1:]
    ae = _merge(a_items, e_items)
    abe = _merge(a_items, b_items, e_items)
    cd = _merge(c_items, d_items)
    abe_set = []
    ae_set = []
    for i in others:
        if lv.at_least(i, abe, 5, 3):
            abe_set.append(i)
        if lv.at_least(i, ae, 5, 2):
            ae_set.append(i)

    if len(abe_set) == 4:
        fifth = [i for i in others if lv.at_least(i, c_items, 5) or lv.at_least(i, d_items, 5)]
        if fifth:
            i0 = fifth[0]
            if lv.at_least(i0, c_items, 5):
                give, other = c_items, d_items
            else:
                give, other = d_items, c_items
            lv.assignment[i0] = give
            lv.assignment[divider] = other
            lv.split([i for i in others if i != i0], abe)
            return "n5.cABE=4a"
        lv.assignment[divider] = d_items
        lv.split(others, _merge(a_items, b_items, c_items, e_items))
        return "n5.cABE=4b"
    if len(abe_set) == 3:
        i0 = next(i for i in others if i not in abe_set)
        fav, other = lv.prefer(i0, c_items, d_items)
        lv.assignment[i0] = fav
        lv.assignment[divider] = other
        lv.split(abe_set, abe)
        return "n5.cABE=3"
    if len(abe_set) == 2:
        lv.split((divider, *abe_set), abe)
        lv.split([i for i in others if i not in abe_set], cd)
        return "n5.cABE=2"
    if len(ae_set) == 2:
        pair = [i for i in others if i not in ae_set]
        lv.split(ae_set, ae)
        by_name = {"B": b_items, "C": c_items, "D": d_items}
        pick = _rung_choice(lv, pair, by_name, 5)
        if len(pick) == 3:
            for agent, name in zip((*pair, divider), pick):
                lv.assignment[agent] = by_name[name]
            return "n5.cAE=2a"
        if pick[0] in ("B", "C"):
            lv.assignment[divider] = d_items
            lv.split(pair, _merge(b_items, c_items))
            return "n5.cAE=2b"
        lv.assignment[divider] = b_items
        lv.split(pair, cd)
        return "n5.cAE=2c"
    if len(ae_set) == 1:
        i0 = ae_set[0]
        lv.split((divider, i0), ae)
        lv.split([i for i in others if i != i0], _merge(b_items, c_items, d_items))
        return "n5.cAE=1"
    if not ae_set:
        return "n5.cAE=0a" if _leftover(lv, a_items, e_items, 5) else "n5.cAE=0b"

    # At most one agent clears the A+B+E bar, and three or four the A+E bar.
    low_ae = [i for i in others if i not in ae_set]
    if abe_set and abe_set == low_ae:
        w = abe_set[0]
        lv.assignment[w] = b_items
        lv.split((divider, ae_set[0]), ae)
        lv.split(ae_set[1:], cd)
        return "n5.cAE=3.cABE=1a"
    # The divider takes B; an A+E pair (led by the A+B+E agent, if any)
    # splits A+E and the other two split C+D.
    lv.assignment[divider] = b_items
    if abe_set:
        w = abe_set[0]
        pair = (w, min(i for i in ae_set if i != w))
    else:
        pair = tuple(ae_set[:2])
    lv.split(pair, ae)
    lv.split([i for i in others if i not in pair], cd)
    return {
        (4, 0): "n5.cAE=4.cABE=0",
        (4, 1): "n5.cAE=4.cABE=1",
        (3, 0): "n5.cAE=3.cABE=0",
        (3, 1): "n5.cAE=3.cABE=1b",
    }[len(ae_set), len(abe_set)]


_CASES = {2: _case2, 3: _case3, 4: _case4, 5: _case5}


def _solve_level(
    inst: Instance, agents: tuple[int, ...], pool: tuple[int, ...]
) -> tuple[dict[int, tuple[int, ...]], list[Step]]:
    """Solve ``pool`` among the sorted ``agents`` (at most five) in original indices.

    Returns every agent's items and this level's certificate steps: the
    ladder, the case applied, then its sub-splits.
    """
    divider = agents[0]
    if len(agents) == 1:
        case = CaseApplied(lemma="n1.take_all", assignments=((divider, pool),))
        return {divider: pool}, [case]
    n = len(agents)
    ladder = cp_ladder(inst, divider, n, Bundle(pool))
    lv = _Level(inst, agents, pool)
    lemma = _CASES[n](lv, *ladder.rungs)
    case = CaseApplied(lemma=lemma, assignments=tuple(sorted(lv.assignment.items())))
    return {**lv.assignment, **lv.sub_assignment}, [ladder, case, *lv.sub_steps]


def solve_propm(inst: Instance) -> tuple[Allocation, Certificate]:
    """Big-item preprocessing, then the constructive solver for the residual.

    Supports any instance whose residual after reductions has at most five
    agents. The returned allocation is checked once with the exact
    maximin-item test (``check``, PROPm); if an agent fails it, this raises
    InvariantViolationError naming the failing agents, which is a solver bug.
    """
    red = reduce_big_items(inst)
    if len(red.residual_agents) > 5:
        raise UnsupportedSizeError(
            f"residual instance has {len(red.residual_agents)} agents; at most 5 supported"
        )
    assignment, steps = _solve_level(inst, red.residual_agents, red.residual_items)
    for step in red.steps:
        assignment[step.agent] = (step.item,)
    certificate = Certificate(
        agents=tuple(range(inst.n)), items=tuple(range(inst.m)), steps=(*red.steps, *steps)
    )
    allocation = Allocation(tuple(Bundle(assignment.get(i, ())) for i in range(inst.n)))
    report = check(inst, allocation, Notion.PROPM)
    if not report.all_satisfied:
        bad = [i for i, v in enumerate(report.per_agent) if not v.satisfied]
        raise InvariantViolationError(
            f"solve_propm produced an allocation that fails the maximin-item test "
            f"for agents {bad}; this is a solver bug"
        )
    return allocation, certificate


# ---------------------------------------------------------------------------
# Certificate replay and verification
# ---------------------------------------------------------------------------


def _req(condition: bool, message: str) -> None:
    if not condition:
        raise CertificateError(message)


def _draw(free: set[int], indices, what: str) -> set[int]:
    """``indices`` as a set, taken out of ``free``: a ``Bundle``-valid tuple drawn from it."""
    drawn = set(Bundle(indices).items)
    _req(drawn <= free, f"{what} unavailable")
    free -= drawn
    return drawn


def _replay(inst: Instance, cert: Certificate) -> dict[int, tuple[int, ...]]:
    """Every agent's items, replayed level by level; CertificateError if it does not replay."""
    # A field of the wrong type fails a check as TypeError and kin, or as InputError.
    try:
        return _replay_steps(inst, cert, set(range(inst.n)), set(range(inst.m)))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise CertificateError(f"malformed certificate: {exc!r}") from exc


def _step(steps, k: int, kind):
    """``steps[k]``, which the order of a level's steps requires to be a ``kind``."""
    found = steps[k] if k < len(steps) else None
    _req(isinstance(found, kind), f"step {k} is {type(found).__name__}, expected {kind.__name__}")
    return found


def _replay_steps(
    inst: Instance, cert: Certificate, free_agents: set[int], free_items: set[int]
) -> dict[int, tuple[int, ...]]:
    """Replay one level: its indices, its steps, their order and its case's obligations.

    One rule holds for every index tuple (``_draw``): the level's agents and
    items, and each bundle its case hands out directly, are ``Bundle``-valid
    tuples drawn from what is still unassigned. The level draws its agents
    and items from ``free_agents`` and ``free_items``, what its parent left
    free, and its own steps use them up. A sub-split is the same call one
    level down; its share bound is checked once it has replayed. Returns
    every agent's items once the level's sub-splits have replayed, and
    checks the rung-mixing rule on them.
    """
    _req(isinstance(cert, Certificate), f"expected a Certificate, got {type(cert).__name__}")
    agents = _draw(free_agents, cert.agents, "certificate agents")
    items = _draw(free_items, cert.items, "certificate items")
    steps = cert.steps
    _req(type(steps) is tuple, "certificate steps must be a tuple")
    allocation: dict[int, tuple[int, ...]] = {}
    k = 0
    while k < len(steps) and isinstance(steps[k], BigItemReduction):
        step, expected = steps[k], _first_reduction(inst, agents, items)
        require_int(step.agent, "reduction agent must be an int, got {value!r}")
        require_int(step.item, "reduction item must be an int, got {value!r}")
        _req(step == expected, "reduction is not the lexicographically first over-share pair")
        allocation[expected.agent] = (expected.item,)
        agents.remove(expected.agent)
        items.remove(expected.item)
        k += 1

    n, pool = len(agents), tuple(sorted(items))
    ladder = None
    if n > 1:
        ladder = _step(steps, k, CpLadder)
        _req(n in _CASES, "no ladder for this many agents")
        require_int(ladder.divider, "ladder divider must be an int, got {value!r}")
        for rung in ladder.rungs:
            Bundle(rung)
        _req(
            ladder == cp_ladder(inst, min(agents), n, Bundle(pool)),
            "ladder differs from its CP recomputation",
        )
        k += 1
    case = _step(steps, k, CaseApplied)
    _req(case.lemma in KNOWN_LEMMAS, "unknown case label")
    _req(KNOWN_LEMMAS[case.lemma] == n, "case label does not match the remaining agent count")
    _req(type(case.assignments) is tuple, "case assignments must be a tuple")
    taken: list[int] = []
    for pair in case.assignments:
        _req(type(pair) is tuple and len(pair) == 2, "an assignment must be an (agent, items) pair")
        agent, bundle = pair
        _draw(agents, (agent,), "assignment agent")
        _draw(items, bundle, "assignment items")
        if ladder is not None and agent == ladder.divider:
            taken = [p for p, rung in enumerate(ladder.rungs) if bundle == rung]
            _req(bool(taken), "the divider's bundle is not one whole rung")
        elif ladder is not None:
            _req(
                n * _val(inst, agent, bundle) >= _val(inst, agent, pool),
                "an agent served directly gets less than 1/n of the level's pool",
            )
        allocation[agent] = bundle

    for k in range(k + 1, len(steps)):
        nested = _step(steps, k, SubSplit).certificate
        _req(ladder is not None, "sub-split outside a ladder level")
        allocation.update(_replay_steps(inst, nested, agents, items))
        _req(
            _share_holds(inst, pool, n, nested.agents, nested.items), "a share bound does not hold"
        )

    _req(not agents, "some agents never received a bundle")
    _req(not items, "some items were never assigned")
    # The rungs lie in this level's pool, which no agent outside the level
    # holds, so this level's final bundles are the only ones to test.
    for p in taken:
        above, below = set().union(*ladder.rungs[:p]), set().union(*ladder.rungs[p + 1 :])
        _req(
            not any(above.intersection(b) and below.intersection(b) for b in allocation.values()),
            "rung-mixing rule: a bundle holds items from above and below the divider's rung",
        )
    return allocation


def verify_certificate(inst: Instance, allocation: Allocation, cert: Certificate) -> bool:
    """True iff the certificate replays to exactly this allocation and proves it PROPm.

    A certificate that fails to replay gives False, including one whose
    fields hold values of the wrong type.

    A certificate records choices: each reduction's (agent, item), each
    ladder's divider and rungs, each case's label and direct assignments,
    and each sub-split's nested certificate, whose agents and items are its
    members and sub-pool. Replay (``_replay``) is independent of the
    solver's control flow and derives the rest from the instance alone.
    One rule covers every index: each level's agents and items, and each
    bundle a case hands out directly, are ``Bundle``-valid tuples drawn from
    what is still unassigned (``_draw``), and each level uses up all it
    drew. So a True verdict means the allocation is a partition of all m
    items among the n agents, and needs no ``validate_for`` of its own.
    Each reduction must be the lexicographically first over-share pair of
    what is left (``_first_reduction``) and each ladder equal to the lowest
    agent's ``cp_ladder`` over its level's pool. The steps of a level must
    come in the solver's order (reductions, then a lone agent's
    ``n1.take_all`` case or a ladder and one case, then only sub-splits).
    At a level of n agents sharing pool P, a divider the case serves
    directly takes one whole rung and any other agent it serves gets
    n*v(bundle) >= v(P); each sub-split member gets
    n*v(sub-pool) >= |members|*v(P) (``_share_holds``). Once its
    sub-splits have replayed, each level checks that none of its agents'
    final bundles mixes items from above and below the rung its divider took
    whole (the rung-mixing rule). These give every agent its PROPm bound: a
    reduced agent by the over-share test, a direct one at its level by its
    1/n share or by the CP rungs, a sub-split member by recursion and its
    share bound. The case label is checked only against the agent count.
    Every other field must have its declared type too: ints, and tuples for
    steps, assignments and their pairs.

    Rung recomputation may answer from the CP memo the solve filled. That
    memo holds outputs of a pure function of (values, cap), which solver and
    verifier already both trust; it shares no solver control flow and never
    reads a certificate field, so every recorded rung is still compared with
    the CP bundle of the verifier's own base set.

    An ``allocation`` that is not an ``Allocation`` raises InputError.
    """
    require_allocation(allocation)
    try:
        replayed = _replay(inst, cert)
    except CertificateError:
        return False
    if cert.agents != tuple(range(inst.n)) or cert.items != tuple(range(inst.m)):
        return False
    return tuple(replayed[i] for i in range(inst.n)) == tuple(b.items for b in allocation.bundles)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


@cache
def _field_types(cls) -> dict:
    """The fields of a certificate dataclass and their types, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _to_json(obj):
    """A dataclass becomes an object (a step's "type" tag first, then its
    fields in declaration order) and a tuple becomes a list."""
    if isinstance(obj, tuple):
        return [_to_json(x) for x in obj]
    if not is_dataclass(obj):
        return obj
    data = {"type": obj.type} if hasattr(obj, "type") else {}
    for name in _field_types(type(obj)):
        data[name] = _to_json(getattr(obj, name))
    return data


def _from_json(hint, data):
    """Rebuild a value of type ``hint`` from what ``_to_json`` wrote.

    A scalar whose type is not exactly its field's ``int`` or ``str`` (a
    float, or a bool for an int), a missing field, a pair of the wrong
    length or an unknown step type raises.
    """
    origin = get_origin(hint)
    if origin is tuple:
        args = get_args(hint)
        if args[-1] is Ellipsis:
            return tuple(_from_json(args[0], x) for x in data)
        return tuple(_from_json(a, x) for a, x in zip(args, data, strict=True))
    if origin is Union:
        kind = data.get("type")
        for member in get_args(hint):
            if member.type == kind:
                return _from_json(member, data)
        raise InputError(f"unknown certificate step type {kind!r}")
    if is_dataclass(hint):
        return hint(**{name: _from_json(t, data[name]) for name, t in _field_types(hint).items()})
    if type(data) is not hint:
        raise InputError(f"certificate field must be {hint.__name__}, got {data!r}")
    return data


def certificate_to_json_dict(cert: Certificate) -> dict:
    return _to_json(cert)


def certificate_from_json_dict(data: dict) -> Certificate:
    """Parse certificate JSON. A document of the wrong shape raises InputError.

    So does a scalar whose type is not its field's: a float or a bool where
    an int belongs loads no certificate, even one equal in value. Ranges and
    values are checked by ``verify_certificate``, which rejects indices or
    values that are not what it recomputes.
    """
    try:
        return _from_json(Certificate, data)
    except InputError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed certificate JSON: {exc!r}") from exc
