"""Acceptance suite: one test (or parametrized family) per criterion, each
printing a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Two sub-cases are provably impossible and are marked strict-xfail with the
analysis in their reason strings; the test bodies still assert the original
claims unweakened. See test_oracle.py for the pinned counterexamples.
"""

import dataclasses

import pytest

from propm import (
    Allocation,
    Bundle,
    Notion,
    adjusted_profile,
    check,
    cp_bundle,
    cycle_swap,
    envy_graph,
    exists,
    implication_audit,
    leximin_max,
    make_counterexample,
    random_instance,
    solve_propm,
    validate_ladder,
    value_of,
    verify_certificate,
)
from propm.cpsets import CpLadder
from propm.oracle import allocation_from_index
from propm.solver import (
    BigItemReduction,
    CaseApplied,
    CertificateError,
    SubSplit,
    _replay,
)
from reference import brute_force_cp, certificate_steps


# ---------------------------------------------------------------------------
# Shared corpora
# ---------------------------------------------------------------------------


def _criterion1_cases():
    for n in (2, 3, 4, 5):
        for s in range(500):
            m = n + (s % (10 - n + 1))
            yield n, s, random_instance(n, m, 100, seed=1000 * n + s)


@pytest.fixture(scope="session")
def criterion1_results():
    results = []
    for n, s, inst in _criterion1_cases():
        allocation, certificate = solve_propm(inst)
        report = check(inst, allocation, Notion.PROPM)
        assert report.all_satisfied, f"n={n} seed={s}: output not PROPm"
        results.append((inst, allocation, certificate))
    return results


def _criterion3_instances():
    for s in range(50):
        yield random_instance(3, 3 + (s % 4), 100, seed=3000 + s)
    for s in range(20):
        yield random_instance(4, 3 + (s % 3), 100, seed=4000 + s)


@pytest.fixture(scope="session")
def criterion3_audits():
    return [(inst, implication_audit(inst)) for inst in _criterion3_instances()]


# ---------------------------------------------------------------------------
# Criterion 1: solver totality on 500 seeded instances per n in {2..5}
# ---------------------------------------------------------------------------


def test_criterion_1_solver_totality(criterion1_results):
    assert len(criterion1_results) == 2000
    print(f"[criterion 1] solver totality: PASS "
          f"({len(criterion1_results)}/2000 instances solved and PROPm-verified)")


# ---------------------------------------------------------------------------
# Criterion 2: counterexample reproduction at scales 13, 100, 1000
# ---------------------------------------------------------------------------

_ALT_NOTIONS = (Notion.ALT_MEAN, Notion.ALT_MEDIAN, Notion.ALT_MODE, Notion.ALT_MINIMAX)

_C2_PARAMS = []
for _scale in (13, 100, 1000):
    for _notion in _ALT_NOTIONS:
        marks = ()
        if _scale == 13 and _notion is Notion.ALT_MEAN:
            marks = (
                pytest.mark.xfail(
                    strict=True,
                    reason=(
                        "provably unattainable claim: allocation "
                        "({1,2,3},{4,5,6},{0}) satisfies the mean relaxation at "
                        "every scale <= 27, since 3 + (scale-3)/4 >= scale/3 iff "
                        "scale <= 27; the no-existence claim only holds from "
                        "scale 28 (see test_oracle.test_alt_mean_known_boundary)"
                    ),
                ),
            )
        _C2_PARAMS.append(pytest.param(_scale, _notion, marks=marks, id=f"{_scale}-{_notion.value}"))


@pytest.mark.parametrize("scale,notion", _C2_PARAMS)
def test_criterion_2_alternatives_never_exist(scale, notion):
    result = exists(make_counterexample(scale), notion)
    status = "PASS" if not result.exists else "FAIL (expected: claim provably false here)"
    print(f"[criterion 2] scale {scale} {notion.value} non-existence: {status}")
    assert not result.exists, f"{notion.value} witness at scale {scale}: {result.witness}"


@pytest.mark.parametrize("scale", (13, 100, 1000))
def test_criterion_2_propm_exists(scale):
    result = exists(make_counterexample(scale), Notion.PROPM)
    print(f"[criterion 2] scale {scale} propm existence: "
          f"{'PASS' if result.exists else 'FAIL'}")
    assert result.exists


# ---------------------------------------------------------------------------
# Criterion 3: implication chain over 50 n=3 and 20 n=4 random instances
# ---------------------------------------------------------------------------

_C3_EDGES = [
    "EF=>EFX",
    "EFX=>EF1",
    "EFX=>AEFX",
    "AEFX=>PROPM",
    "PROP=>PROPX",
    "PROPX=>PROPM",
    "PROPM=>PROP1",
    pytest.param(
        "EFX=>PROPX",
        marks=pytest.mark.xfail(
            strict=True,
            reason=(
                "provably unattainable claim: EFx does not imply the "
                "min-pooled proportionality relaxation; e.g. values "
                "[[100,1],[1,0],[0,1]] with allocation (empty,{0},{1}) is "
                "EFx-complete yet agent 0 has 3*(0+1) < 101. Summing the "
                "per-pair EFx inequalities yields the averaged relaxation "
                "(AEFX), not PROPX (see test_oracle.test_efx_does_not_imply_propx)"
            ),
        ),
    ),
]


@pytest.mark.parametrize("edge", _C3_EDGES)
def test_criterion_3_implication_chain(edge, criterion3_audits):
    total_allocs = sum(report.allocations_checked for _, report in criterion3_audits)
    bad = [
        (inst, v)
        for inst, report in criterion3_audits
        for v in report.violations
        if v.implication == edge
    ]
    status = "PASS" if not bad else f"FAIL (expected: edge is not a theorem): {len(bad)} violations"
    print(f"[criterion 3] {edge} over {total_allocs} allocations: {status}")
    assert not bad, f"{edge} violated {len(bad)} times, first: {bad[0][1]}"


# ---------------------------------------------------------------------------
# Criterion 4: CP bundles vs brute force, 200 random lists with m <= 14
# ---------------------------------------------------------------------------


def test_criterion_4_cp_matches_brute_force():
    checked = 0
    for s in range(200):
        m = 2 + s % 13
        k = 1 + s % 5
        inst = random_instance(1, m, 100, seed=8800 + s)
        got = cp_bundle(inst, 0, k, Bundle.of(range(inst.m)))
        v, c, combo = brute_force_cp(inst.values[0], k)
        assert value_of(inst, 0, got) == v, (s, k)
        assert len(got) == c, (s, k)
        assert got.items == combo, (s, k)
        checked += 1
    print(f"[criterion 4] CP vs brute force: PASS ({checked}/200 exact matches "
          f"in value, cardinality and tie-break)")


# ---------------------------------------------------------------------------
# Criterion 5: every ladder built during criterion 1 validates; metabundle
# inequalities hold exactly
# ---------------------------------------------------------------------------


def test_criterion_5_ladder_bounds(criterion1_results):
    ladders = 0
    metabundles = 0
    for inst, _, certificate in criterion1_results:
        for step in certificate_steps(certificate):
            if not isinstance(step, CpLadder):
                continue
            assert validate_ladder(inst, step), step
            ladders += 1
            row = inst.values[step.divider]
            base_v = sum(row[j] for rung in step.rungs for j in rung)
            if len(step.rungs) == 4:
                ad = sum(row[j] for rung in (step.rungs[2], step.rungs[3]) for j in rung)
                assert 2 * ad >= base_v, step
                metabundles += 1
            elif len(step.rungs) == 5:
                ae = sum(row[j] for rung in (step.rungs[3], step.rungs[4]) for j in rung)
                abe = ae + sum(row[j] for j in step.rungs[2])
                assert 5 * ae >= 2 * base_v, step
                assert 5 * abe >= 3 * base_v, step
                metabundles += 1
    print(f"[criterion 5] ladder bounds: PASS ({ladders} ladders validated, "
          f"{metabundles} metabundle checks)")


# ---------------------------------------------------------------------------
# Criterion 6: leximin-max acyclicity and strict cycle-swap improvement
# ---------------------------------------------------------------------------


def test_criterion_6_leximin_acyclicity():
    acyclic = 0
    swaps = 0
    for s in range(100):
        m = 2 + s % 4
        inst = random_instance(3, m, 6, seed=600 + s)
        best, _ = leximin_max(inst)
        assert envy_graph(inst, best).find_cycle() is None, (s, best)
        acyclic += 1
        for allocation in (allocation_from_index(3, m, k) for k in range(3**m)):
            swapped = cycle_swap(inst, allocation)
            if swapped is not None:
                before = adjusted_profile(inst, allocation)
                after = adjusted_profile(inst, swapped)
                assert after.ascending > before.ascending, (s, allocation)
                swaps += 1
    print(f"[criterion 6] leximin acyclicity: PASS ({acyclic}/100 leximin maxima "
          f"cycle-free; {swaps} cycle swaps all strictly improving)")


# ---------------------------------------------------------------------------
# Criterion 7: adjusted-value sufficiency on every criterion-3 allocation
# ---------------------------------------------------------------------------


def test_criterion_7_adjusted_value_sufficiency(criterion3_audits):
    checked = 0
    for inst, _ in criterion3_audits:
        n, m = inst.n, inst.m
        for allocation in (allocation_from_index(n, m, k) for k in range(n**m)):
            owners = allocation.owners(m)
            for i in range(n):
                row = inst.values[i]
                own = sum(row[j] for j in range(m) if owners[j] == i)
                d = 0
                for k in range(n):
                    if k == i:
                        continue
                    vals = [row[j] for j in range(m) if owners[j] == k]
                    if vals:
                        d = max(d, min(vals))
                # n*own + (n-1)*d >= T  <=>  adjusted value >= T/n
                if n * own + (n - 1) * d >= inst.totals[i]:
                    assert n * (own + d) >= inst.totals[i], (inst, allocation, i)
                    checked += 1
    print(f"[criterion 7] adjusted-value sufficiency: PASS "
          f"({checked} agent-allocation pairs above threshold, all PROPm)")


# ---------------------------------------------------------------------------
# Criterion 8: certificates replay; 100 single-field mutations all rejected
# ---------------------------------------------------------------------------

def _step_mutations(step, cert_agents, cert_items):
    if isinstance(step, BigItemReduction):
        yield "reduction.agent", dataclasses.replace(step, agent=step.agent + 1)
        yield "reduction.item", dataclasses.replace(step, item=step.item + 1)
    elif isinstance(step, CpLadder):
        yield "ladder.divider", dataclasses.replace(step, divider=step.divider + 1)
        for pos, rung in enumerate(step.rungs):
            if rung:
                target = (pos + 1) % len(step.rungs)
                rungs = list(step.rungs)
                moved = rung[0]
                rungs[pos] = rung[1:]
                rungs[target] = tuple(sorted(rungs[target] + (moved,)))
                yield "ladder.rung_move", dataclasses.replace(step, rungs=tuple(rungs))
                break
    elif isinstance(step, CaseApplied):
        yield "case.lemma", dataclasses.replace(step, lemma="bogus")
        agents = [agent for agent, _ in step.assignments]
        bundles = [items for _, items in step.assignments]
        if len(bundles) >= 2 and bundles[0] != bundles[1]:
            swapped = [bundles[1], bundles[0], *bundles[2:]]
            yield "case.assign_swap", dataclasses.replace(
                step, assignments=tuple(zip(agents, swapped))
            )
        src = next((p for p, items in enumerate(bundles) if items), None)
        if len(bundles) >= 2 and src is not None:
            dst = (src + 1) % len(bundles)
            moved = list(bundles)
            moved[src] = bundles[src][1:]
            moved[dst] = tuple(sorted(bundles[dst] + bundles[src][:1]))
            yield "case.item_move", dataclasses.replace(
                step, assignments=tuple(zip(agents, moved))
            )
        for idx, (agent, items) in enumerate(step.assignments):
            other = next((a for a in cert_agents if a != agent), None)
            if other is not None:
                assignments = list(step.assignments)
                assignments[idx] = (other, items)
                yield "case.assign_agent", dataclasses.replace(
                    step, assignments=tuple(assignments)
                )
            if items:
                assignments = list(step.assignments)
                assignments[idx] = (agent, items[1:])
                yield "case.assign_drop_item", dataclasses.replace(
                    step, assignments=tuple(assignments)
                )
            else:
                extra = next((j for j in cert_items), None)
                if extra is not None:
                    assignments = list(step.assignments)
                    assignments[idx] = (agent, (extra,))
                    yield "case.assign_add_item", dataclasses.replace(
                        step, assignments=tuple(assignments)
                    )
            break
    elif isinstance(step, SubSplit):
        # A sub-split's members and sub-pool are its nested certificate's agents and items.
        inner = step.certificate
        yield "split.drop_agent", SubSplit(dataclasses.replace(inner, agents=inner.agents[:-1]))
        if inner.items:
            yield "split.drop_item", SubSplit(dataclasses.replace(inner, items=inner.items[:-1]))


def _certificate_mutations(cert):
    for idx, step in enumerate(cert.steps):
        for label, mutated in _step_mutations(step, cert.agents, cert.items):
            steps = list(cert.steps)
            steps[idx] = mutated
            yield label, dataclasses.replace(cert, steps=tuple(steps))
        if isinstance(step, SubSplit):
            for label, inner in _certificate_mutations(step.certificate):
                steps = list(cert.steps)
                steps[idx] = dataclasses.replace(step, certificate=inner)
                yield f"inner.{label}", dataclasses.replace(cert, steps=tuple(steps))


def test_criterion_8_certificate_audit(criterion1_results):
    for inst, allocation, certificate in criterion1_results:
        assert verify_certificate(inst, allocation, certificate)

    rejected = 0
    samples = criterion1_results[::83]
    labels = set()
    per_certificate = 5
    for inst, allocation, certificate in samples:
        all_mutations = list(_certificate_mutations(certificate))
        take = min(per_certificate, len(all_mutations))
        picks = {i * len(all_mutations) // take for i in range(take)}
        for pos in sorted(picks):
            label, mutated = all_mutations[pos]
            assert not verify_certificate(inst, allocation, mutated), (label, inst)
            labels.add(label)
            rejected += 1
            # A mutation that describes another allocation may verify only if it proves it.
            try:
                replayed = _replay(inst, mutated)
                own = Allocation.of(replayed.get(i, ()) for i in range(inst.n))
            except CertificateError:
                continue
            if verify_certificate(inst, own, mutated):
                assert check(inst, own, Notion.PROPM).all_satisfied, (label, inst)
    assert rejected >= 100
    print(f"[criterion 8] certificate audit: PASS (2000 certificates replayed, "
          f"{rejected} mutations rejected across kinds: {sorted(labels)})")
