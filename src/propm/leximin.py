"""Adjusted-valuation leximin machinery and envy-cycle trading.

The adjusted value of agent i under allocation X is
``v_i(X_i) + ((n-1)/n) * d_i(X)`` where d_i is her maximin-item bonus.
Allocations are ordered by comparing ascending-sorted adjusted profiles
lexicographically (full leximin). The envy graph has an edge i -> j exactly
when i strictly envies j even after dropping i's least-valued item from
j's bundle; trading bundles around such a cycle is a strict leximin
improvement, so the leximin maximum has an acyclic graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import _kernels
from .core import Allocation, Instance, fraction_str, require_allocation, require_budget
from .fairness import _bundle_view, _efx_gaps, _maximin
from .oracle import allocation_from_index


@dataclass(frozen=True)
class AdjustedProfile:
    values: tuple[Fraction, ...]

    @cached_property
    def ascending(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.values))

    def to_json_dict(self) -> dict:
        return {
            "values": [fraction_str(v) for v in self.values],
            "ascending": [fraction_str(v) for v in self.ascending],
        }


@dataclass(frozen=True)
class EnvyGraph:
    n: int
    edges: tuple[tuple[int, int], ...]

    def find_cycle(self) -> tuple[int, ...] | None:
        """Shortest directed cycle; ties broken by lexicographically least vertex tour.

        A cycle is canonically written starting at its smallest vertex.

        A cycle whose smallest vertex is s uses only vertices >= s, so a
        backward breadth-first search from s over those vertices gives the
        shortest cycle through s. The least s among the shortest cycles
        starts the tour, which then always steps to the least successor one
        step closer to s. O(V * (V + E)).
        """
        succ: dict[int, list[int]] = {}
        pred: dict[int, list[int]] = {}
        for a, b in set(self.edges):
            if a != b:
                succ.setdefault(a, []).append(b)
                pred.setdefault(b, []).append(a)
        best: tuple[int, int, dict[int, int]] | None = None
        for s in sorted(succ):
            dist = {s: 0}
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for u in pred.get(v, ()):
                    if u > s and u not in dist:
                        dist[u] = dist[v] + 1
                        queue.append(u)
            closing = [dist[v] for v in succ[s] if v in dist]
            if closing and (best is None or min(closing) + 1 < best[0]):
                best = (min(closing) + 1, s, dist)
        if best is None:
            return None
        length, s, dist = best
        tour = [s]
        for left in range(length - 1, 0, -1):
            tour.append(min(v for v in succ[tour[-1]] if dist.get(v) == left))
        return tuple(tour)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges]}


def adjusted_profile(inst: Instance, allocation: Allocation) -> AdjustedProfile:
    require_allocation(allocation).validate_for(inst)
    n = inst.n
    values = []
    for i in range(n):
        own, others = _bundle_view(inst, i, allocation)
        values.append(Fraction(n * own + (n - 1) * _maximin(others), n))
    return AdjustedProfile(tuple(values))


def leximin_max(
    inst: Instance, budget: int | None = None
) -> tuple[Allocation, AdjustedProfile]:
    """Exhaustive leximin maximum; ties go to the smallest allocation index."""
    total = inst.n**inst.m
    require_budget(total, budget, "leximin scan")
    values, _ = _kernels.instance_arrays(inst.values, inst.totals)

    def window(plan, pos, count):
        return _kernels.leximin_scan(values, pos, count, plan=plan)

    # max keeps the first of equal profiles: the earliest window's best.
    best_idx, _ = max(_kernels.scan_windows(values, window, 0, total), key=lambda b: b[1].tolist())
    allocation = allocation_from_index(inst.n, inst.m, best_idx)
    return allocation, adjusted_profile(inst, allocation)


def envy_graph(inst: Instance, allocation: Allocation) -> EnvyGraph:
    """Edges i -> j where i strictly envies j up to j's least item (strict EFx envy)."""
    require_allocation(allocation).validate_for(inst)
    edges = []
    for i in range(inst.n):
        gaps = _efx_gaps(*_bundle_view(inst, i, allocation))
        edges.extend((i, k) for k, gap in gaps.items() if gap < 0)
    return EnvyGraph(n=inst.n, edges=tuple(edges))


def cycle_swap(inst: Instance, allocation: Allocation) -> Allocation | None:
    """Rotate bundles along one strict-EFx envy cycle, or None if the graph is acyclic.

    Each agent on the cycle receives the bundle of the agent she envies; the
    result strictly leximin-dominates the input.
    """
    graph = envy_graph(inst, allocation)
    cycle = graph.find_cycle()
    if cycle is None:
        return None
    new_bundles = list(allocation.bundles)
    length = len(cycle)
    for t, agent in enumerate(cycle):
        giver = cycle[(t + 1) % length]
        new_bundles[agent] = allocation.bundles[giver]
    return Allocation(tuple(new_bundles))
