import random
from fractions import Fraction
from itertools import permutations, product

from propm import (
    Allocation,
    Instance,
    Notion,
    adjusted_profile,
    check,
    cycle_swap,
    envy_graph,
    leximin_max,
)
from propm.leximin import EnvyGraph
from propm.oracle import allocation_from_index, random_instance


def test_adjusted_profile_split():
    inst = Instance.of([[5, 5], [5, 5]])
    profile = adjusted_profile(inst, Allocation.of([[0], [1]]))
    assert profile.values == (Fraction(15, 2), Fraction(15, 2))


def test_adjusted_profile_empty_bundle():
    inst = Instance.of([[5, 5], [5, 5]])
    profile = adjusted_profile(inst, Allocation.of([[0, 1], []]))
    assert profile.values == (Fraction(10), Fraction(5, 2))


def test_adjusted_profile_all_other_bundles_empty():
    inst = Instance.of([[4, 2]])
    profile = adjusted_profile(inst, Allocation.of([[0, 1]]))
    assert profile.values == (Fraction(6),)


def test_leximin_max_identical_pair():
    inst = Instance.of([[5, 5], [5, 5]])
    allocation, profile = leximin_max(inst)
    assert sorted(len(b) for b in allocation.bundles) == [1, 1]
    assert profile.ascending == (Fraction(15, 2), Fraction(15, 2))


def test_leximin_max_no_items():
    inst = Instance.of([[], []])
    allocation, profile = leximin_max(inst)
    assert all(not b for b in allocation.bundles)
    assert profile.values == (Fraction(0), Fraction(0))


def test_leximin_max_eps_implies_propm(i_eps):
    allocation, profile = leximin_max(i_eps)
    assert min(profile.ascending) >= Fraction(100, 3)
    assert check(i_eps, allocation, Notion.PROPM).all_satisfied


def test_leximin_max_beats_every_allocation():
    inst = random_instance(3, 4, 9, seed=31)
    _, best = leximin_max(inst)
    for k in range(3**4):
        assert best.ascending >= adjusted_profile(inst, allocation_from_index(3, 4, k)).ascending


def test_envy_graph_mutual_swap():
    inst = Instance.of([[5, 5, 0, 0], [0, 0, 5, 5]])
    bad = Allocation.of([[2, 3], [0, 1]])
    graph = envy_graph(inst, bad)
    assert set(graph.edges) == {(0, 1), (1, 0)}
    swapped = cycle_swap(inst, bad)
    assert [b.items for b in swapped.bundles] == [(0, 1), (2, 3)]
    assert adjusted_profile(inst, swapped).ascending > adjusted_profile(inst, bad).ascending


def _brute_force_cycle(edges):
    """Reference: try every tour, shortest first, least tour among equals."""
    edge_set = set(edges)
    vertices = sorted({v for e in edges for v in e})
    for length in range(2, len(vertices) + 1):
        tours = [
            tour
            for tour in permutations(vertices, length)
            if tour[0] == min(tour)
            and all((tour[t], tour[(t + 1) % length]) in edge_set for t in range(length))
        ]
        if tours:
            return min(tours)
    return None


def test_find_cycle_matches_brute_force_on_every_small_digraph():
    for n in range(1, 5):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for keep in product((False, True), repeat=len(pairs)):
            edges = tuple(p for p, k in zip(pairs, keep) if k)
            assert EnvyGraph(n, edges).find_cycle() == _brute_force_cycle(edges), edges


def test_find_cycle_matches_brute_force_on_random_digraphs():
    rng = random.Random(1212)
    for _ in range(150):
        n = rng.randint(5, 7)
        density = rng.choice((0.1, 0.2, 0.35, 0.6))
        edges = tuple(
            (a, b) for a in range(n) for b in range(n) if rng.random() < density
        )  # self-loops included: they are never part of a cycle
        assert EnvyGraph(n, edges).find_cycle() == _brute_force_cycle(edges), edges


def test_find_cycle_is_fast_on_large_graphs():
    n = 300
    ring = tuple((i, i + 1) for i in range(n - 1)) + ((n - 1, 0),)
    assert EnvyGraph(n, ring).find_cycle() == tuple(range(n))
    dag = tuple((a, b) for a in range(60) for b in range(a + 1, 60))
    assert EnvyGraph(60, dag).find_cycle() is None
    assert EnvyGraph(60, dag + ((59, 0),)).find_cycle() == (0, 59)


def test_no_cycle_on_efx_allocation():
    inst = Instance.of([[5, 5], [5, 5]])
    allocation = Allocation.of([[0], [1]])
    assert check(inst, allocation, Notion.EFX).all_satisfied
    assert cycle_swap(inst, allocation) is None


def test_leximin_max_has_no_cycle_small():
    for s in range(20):
        inst = random_instance(3, 4, 6, seed=808 + s)
        allocation, _ = leximin_max(inst)
        assert cycle_swap(inst, allocation) is None


def test_cycle_swap_always_improves():
    for s in range(12):
        inst = random_instance(3, 4, 6, seed=909 + s)
        for allocation in (allocation_from_index(3, 4, k) for k in range(3**4)):
            swapped = cycle_swap(inst, allocation)
            if swapped is not None:
                before = adjusted_profile(inst, allocation)
                after = adjusted_profile(inst, swapped)
                assert after.ascending > before.ascending


def test_adjusted_value_threshold_implies_propm():
    for s in range(10):
        inst = random_instance(3, 4, 9, seed=414 + s)
        n = inst.n
        for allocation in (allocation_from_index(3, 4, k) for k in range(3**4)):
            profile = adjusted_profile(inst, allocation)
            report = check(inst, allocation, Notion.PROPM)
            for i in range(n):
                if profile.values[i] >= Fraction(inst.totals[i], n):
                    assert report.per_agent[i].satisfied
