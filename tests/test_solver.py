import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propm import (
    Allocation,
    Bundle,
    CpLadder,
    InputError,
    Instance,
    Notion,
    check,
    cp_ladder,
    reduce_big_items,
    solve_propm,
    verify_certificate,
)
from propm import _kernels, cpsets
from propm.cpsets import _best_subset
from propm.oracle import random_instance
from propm.solver import (
    KNOWN_LEMMAS,
    BigItemReduction,
    CaseApplied,
    Certificate,
    CertificateError,
    SubSplit,
    _replay,
    _solve_level,
    certificate_from_json_dict,
    certificate_to_json_dict,
)
from reference import certificate_steps


def _assert_solved(inst, result):
    allocation, certificate = result
    report = check(inst, allocation, Notion.PROPM)
    assert report.all_satisfied
    assert verify_certificate(inst, allocation, certificate)
    return allocation, certificate


def _allocation(inst, assignment):
    """The allocation giving each agent of ``inst`` its items in ``assignment``."""
    return Allocation.of(assignment.get(i, ()) for i in range(inst.n))


def _solve_cases(inst):
    """The case code on the whole instance, with no big-item reduction first.

    Replay does not require a reduction that could fire, so the certificate
    still verifies.
    """
    agents, items = tuple(range(inst.n)), tuple(range(inst.m))
    assignment, steps = _solve_level(inst, agents, items)
    return _allocation(inst, assignment), Certificate(agents, items, tuple(steps))


def _replayed(inst, cert):
    """The allocation a certificate replays to; CertificateError if it does not replay."""
    return _allocation(inst, _replay(inst, cert))


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def test_public_surface_is_pinned():
    # One solver entry point and one verifier; replay is internal to the verifier.
    import propm

    assert propm.__all__ == [
        "Allocation",
        "AdjustedProfile",
        "AuditReport",
        "Bundle",
        "Certificate",
        "CpLadder",
        "EnvyGraph",
        "ExistenceResult",
        "FairnessReport",
        "InputError",
        "Instance",
        "InvariantViolationError",
        "Notion",
        "ResourceBudgetError",
        "UnsupportedSizeError",
        "adjusted_profile",
        "check",
        "cp_bundle",
        "cp_ladder",
        "cycle_swap",
        "envy_graph",
        "exists",
        "implication_audit",
        "leximin_max",
        "make_counterexample",
        "mms_value",
        "parse_notion",
        "random_instance",
        "reduce_big_items",
        "solve_propm",
        "validate_ladder",
        "value_of",
        "verify_certificate",
    ]
    assert all(hasattr(propm, name) for name in propm.__all__)


# ---------------------------------------------------------------------------
# reduce_big_items
# ---------------------------------------------------------------------------


def test_reduce_fires_on_over_share_item():
    inst = Instance.of([[50, 10, 20, 20], [10, 30, 30, 30], [10, 30, 30, 30]])
    red = reduce_big_items(inst)
    assert red.steps == (BigItemReduction(0, 0),)
    assert red.residual_agents == (1, 2)
    assert red.residual_items == (1, 2, 3)


def test_reduce_identity_when_balanced():
    inst = Instance.of([[25, 25, 25, 25], [25, 25, 25, 25]])
    red = reduce_big_items(inst)
    assert red.steps == ()
    assert red.residual_agents == (0, 1)


def test_reduce_single_item_two_agents():
    inst = Instance.of([[7], [3]])
    red = reduce_big_items(inst)
    assert red.steps == (BigItemReduction(0, 0),)
    assert red.residual_agents == (1,)
    assert red.residual_items == ()


def test_reduce_thresholds_are_residual_relative():
    # after agent 0 takes item 0, item 1 becomes over-share for agent 1
    inst = Instance.of([[90, 10, 10], [10, 45, 46], [10, 45, 46]])
    red = reduce_big_items(inst)
    assert red.steps[0] == BigItemReduction(0, 0)
    assert len(red.steps) >= 2


# ---------------------------------------------------------------------------
# the case code for two to five agents
# ---------------------------------------------------------------------------


def test_solve2_cut_and_choose(i_2a):
    allocation, certificate = _assert_solved(i_2a, _solve_cases(i_2a))
    assert [b.items for b in allocation.bundles] == [(0,), (1,)]
    case = next(s for s in certificate.steps if isinstance(s, CaseApplied))
    assert case.lemma == "n2.cut_and_choose"


def test_solve2_identical_items():
    inst = Instance.of([[50, 50], [50, 50]])
    allocation, _ = _assert_solved(inst, _solve_cases(inst))
    assert all(len(b) == 1 for b in allocation.bundles)


def test_solve2_single_item():
    inst = Instance.of([[100], [100]])
    allocation, _ = _assert_solved(inst, _solve_cases(inst))
    # chooser (agent 1) takes the item, divider is satisfied via the bonus
    assert allocation.bundles[1].items == (0,)
    assert allocation.bundles[0].items == ()


def test_solve3_eps_via_solve_propm(i_eps):
    allocation, certificate = _assert_solved(i_eps, solve_propm(i_eps))
    # 3*94 > 100 so the big item is split off first
    assert isinstance(certificate.steps[0], BigItemReduction)
    assert allocation.bundles[0].items == (0,)


def test_solve3_identical_three_items():
    inst = Instance.of([[10, 10, 10]] * 3)
    allocation, _ = _assert_solved(inst, _solve_cases(inst))
    assert sorted(len(b) for b in allocation.bundles) == [1, 1, 1]


def test_solve3_randoms():
    for s in range(80):
        inst = random_instance(3, 6, 100, seed=7700 + s)
        _assert_solved(inst, _solve_cases(inst))


def test_solve4_identical():
    inst = Instance.of([[30, 25, 20, 15, 10]] * 4)
    _assert_solved(inst, _solve_cases(inst))


def test_solve4_four_equal_items():
    inst = Instance.of([[25, 25, 25, 25]] * 4)
    allocation, _ = _assert_solved(inst, _solve_cases(inst))
    assert sorted(len(b) for b in allocation.bundles) == [1, 1, 1, 1]


def test_solve4_c0_leftover_branch():
    # find a seeded instance that dispatches n4.c=0b: one rival holds the
    # leftover rung, the divider takes A, the rest split B+C
    hits = 0
    for s in range(4000):
        inst = random_instance(4, 6, 100, seed=9000 + s)
        allocation, certificate = _solve_cases(inst)
        case = next(step for step in certificate.steps if isinstance(step, CaseApplied))
        if case.lemma == "n4.c=0b":
            hits += 1
            _assert_solved(inst, (allocation, certificate))
            ladder = next(step for step in certificate.steps if isinstance(step, CpLadder))
            served = dict(case.assignments)
            assert served.pop(0) == ladder.rungs[2]
            assert list(served.values()) == [ladder.rungs[3]]
            break
    assert hits, "no instance dispatched the c=0 leftover branch"


def test_solve5_five_equal_items():
    inst = Instance.of([[20, 20, 20, 20, 20]] * 5)
    allocation, _ = _assert_solved(inst, _solve_cases(inst))
    assert sorted(len(b) for b in allocation.bundles) == [1, 1, 1, 1, 1]


def test_solve5_identical():
    inst = Instance.of([[35, 25, 20, 12, 8]] * 5)
    _assert_solved(inst, _solve_cases(inst))


def test_solve5_randoms():
    for s in range(60):
        inst = random_instance(5, 9, 100, seed=5500 + s)
        _assert_solved(inst, _solve_cases(inst))


def test_solve5_low_ae_agent_is_the_abe_agent():
    # Crafted so that among agents 1..4 exactly three clear the A+E bar,
    # exactly one clears the A+B+E bar, and they are the same agent: she
    # takes B outright, which she values strictly above a fifth.
    inst = Instance.of(
        [
            [10] * 10,
            [7, 8, 7, 8, 30, 30, 2, 2, 3, 3],
            [12, 13, 12, 13, 5, 5, 10, 10, 10, 10],
            [12, 13, 12, 13, 5, 5, 10, 10, 10, 10],
            [12, 13, 12, 13, 5, 5, 10, 10, 10, 10],
        ]
    )
    allocation, certificate = _assert_solved(inst, _solve_cases(inst))
    case = next(s for s in certificate.steps if isinstance(s, CaseApplied))
    assert case.lemma == "n5.cAE=3.cABE=1a"
    assert allocation.bundles[1].items == (4, 5)


def test_case_dispatch_variety():
    # a moderate sweep must exercise a healthy spread of the case table
    hits = set()
    for s in range(250):
        _, cert = _solve_cases(random_instance(4, 4 + s % 7, 100, seed=100000 + s))
        hits |= _lemmas(cert)
    for s in range(250):
        _, cert = _solve_cases(random_instance(5, 5 + s % 6, 100, seed=200000 + s))
        hits |= _lemmas(cert)
    expected = {
        "n2.cut_and_choose",
        "n3.two_distinct",
        "n3.one_bundle",
        "n4.c=0a",
        "n4.c=0b",
        "n4.c=1",
        "n4.c=2",
        "n4.c=3a",
        "n5.cABE=2",
        "n5.cABE=3",
        "n5.cAE=0a",
        "n5.cAE=0b",
        "n5.cAE=1",
        "n5.cAE=2a",
    }
    assert expected <= hits, expected - hits


def _lemmas(cert):
    return {step.lemma for step in certificate_steps(cert) if isinstance(step, CaseApplied)}


# One witness instance per case label, found by a seeded random search, with
# the blake2b digest of its certificate JSON: any change to a certificate byte
# of any case, nested sub-splits included, fails here.
_PINNED = {
    "n1.take_all": (
        [[0, 0], [1, 0]],
        "511f29e2277bbfad1906430ec4679af5",
    ),
    "n2.cut_and_choose": (
        [[0, 0], [0, 0]],
        "1c598bd8fb08ed9431f06c413306273a",
    ),
    "n3.two_distinct": (
        [[0, 1, 1, 1], [3, 5, 4, 4], [5, 4, 1, 5]],
        "db119c0dabd657e2fdd1bb977e057d1d",
    ),
    "n3.one_bundle": (
        [[3, 3, 4, 3], [4, 4, 4, 1], [4, 4, 4, 1]],
        "5b9a10c4e867508d0d65d9276615bb3e",
    ),
    "n4.c=0a": (
        [[2, 0, 2, 1, 1, 2], [3, 4, 3, 0, 3, 3], [4, 4, 4, 1, 3, 3], [3, 1, 5, 5, 2, 4]],
        "0ea0ea216bd2898ada9f2ce1c820ba30",
    ),
    "n4.c=0b": (
        [
            [55, 58, 59, 24, 20, 45],
            [75, 84, 70, 25, 81, 56],
            [47, 98, 81, 99, 96, 86],
            [64, 77, 71, 47, 98, 84],
        ],
        "300db71d52b7ee49a0b31811dbe35acb",
    ),
    "n4.c=1": (
        [[4, 3, 2, 5, 2, 5], [3, 3, 4, 5, 2, 3], [4, 3, 4, 3, 5, 3], [4, 2, 4, 4, 0, 4]],
        "c94cf9f52feed74084422081458b038f",
    ),
    "n4.c=2": (
        [[7, 1, 9, 9, 9, 2], [9, 10, 8, 5, 1, 8], [10, 7, 3, 5, 9, 7], [0, 7, 6, 8, 4, 7]],
        "b5913f38fc6d1f6e64d9cb73a6b8d8fb",
    ),
    "n4.c=3a": (
        [[28, 29, 13, 27, 24], [29, 27, 14, 27, 22], [28, 30, 14, 24, 24], [27, 31, 14, 28, 24]],
        "f72cee47c0d62da7279fd6cb60ba59e3",
    ),
    "n4.c=3b": (
        [[8, 11, 12, 10, 7], [9, 9, 11, 10, 7], [8, 10, 9, 11, 8], [8, 11, 9, 8, 9]],
        "743a2dad2fc4e5e448d5a4c8934032b4",
    ),
    "n5.cABE=4a": (
        [
            [22, 25, 21, 20, 19, 22],
            [22, 25, 21, 22, 18, 21],
            [22, 26, 22, 21, 19, 20],
            [25, 24, 23, 24, 17, 23],
            [24, 24, 24, 22, 17, 23],
        ],
        "3fdfa8f1bec75a2d88f16f9ce7e51894",
    ),
    "n5.cABE=4b": (
        [
            [23, 24, 27, 26, 24, 27],
            [23, 21, 29, 22, 25, 27],
            [25, 21, 26, 24, 25, 27],
            [22, 23, 27, 23, 21, 24],
            [26, 24, 25, 24, 22, 27],
        ],
        "54d39f7ec4c531843a4f9677741687c2",
    ),
    "n5.cABE=3": (
        [
            [9, 8, 7, 6, 9, 8, 0],
            [6, 5, 7, 7, 8, 9, 3],
            [5, 8, 8, 6, 9, 9, 3],
            [6, 6, 5, 7, 8, 8, 1],
            [8, 8, 4, 6, 8, 7, 4],
        ],
        "6170ad6011eb2ab4e85b2b7137ce60c0",
    ),
    "n5.cABE=2": (
        [
            [9, 9, 9, 7, 1, 9, 10],
            [7, 10, 10, 7, 4, 7, 9],
            [9, 9, 11, 5, 5, 7, 10],
            [9, 11, 11, 8, 3, 10, 8],
            [10, 9, 9, 8, 4, 7, 10],
        ],
        "3a8e254248d16050f4d2b97ddb673f04",
    ),
    "n5.cAE=2a": (
        [
            [2, 1, 4, 2, 2, 3, 3, 3],
            [3, 5, 4, 4, 1, 3, 5, 3],
            [3, 1, 1, 3, 3, 1, 3, 2],
            [3, 4, 2, 3, 5, 3, 3, 2],
            [4, 4, 4, 3, 1, 5, 2, 2],
        ],
        "f66eda40ba47118e950404c854bc8bac",
    ),
    "n5.cAE=2b": (
        [
            [6, 4, 10, 4, 6, 10, 8, 9],
            [10, 1, 10, 6, 6, 7, 7, 8],
            [7, 1, 10, 7, 6, 9, 10, 8],
            [9, 4, 12, 7, 10, 8, 9, 9],
            [8, 3, 9, 7, 9, 6, 6, 10],
        ],
        "1f35041e076b981c32ff5e76dbc286ac",
    ),
    "n5.cAE=2c": (
        [
            [5, 6, 2, 10, 9, 9, 5, 9],
            [6, 5, 1, 8, 7, 7, 4, 9],
            [9, 5, 0, 6, 9, 6, 7, 5],
            [7, 7, 0, 6, 8, 5, 7, 8],
            [9, 8, 0, 10, 6, 9, 4, 5],
        ],
        "dfcffd4111ff0857bc812253c7e298e7",
    ),
    "n5.cAE=1": (
        [
            [28, 26, 27, 9, 20, 24, 11],
            [28, 24, 28, 12, 21, 22, 8],
            [28, 27, 26, 9, 22, 23, 10],
            [25, 24, 29, 12, 22, 22, 12],
            [27, 23, 27, 13, 20, 25, 9],
        ],
        "69dc7ca4dd39a653caf2352a0bc516cc",
    ),
    "n5.cAE=0a": (
        [
            [4, 1, 2, 2, 3, 2, 1, 1, 4],
            [1, 5, 3, 5, 5, 3, 1, 4, 0],
            [5, 0, 5, 1, 4, 0, 5, 3, 3],
            [4, 3, 4, 4, 3, 3, 1, 1, 5],
            [2, 0, 5, 5, 4, 5, 0, 3, 2],
        ],
        "8139ba96776e025c58d9608620c959a2",
    ),
    "n5.cAE=0b": (
        [
            [4, 5, 5, 3, 7, 3, 3, 5],
            [3, 4, 4, 5, 4, 4, 4, 3],
            [6, 7, 5, 6, 5, 4, 7, 2],
            [4, 4, 5, 7, 5, 3, 4, 5],
            [6, 5, 3, 6, 4, 5, 3, 3],
        ],
        "0d11a53b900c7d42bbd307061d2c6389",
    ),
    "n5.cAE=4.cABE=0": (
        [
            [5, 6, 0, 4, 5, 6, 7, 3],
            [7, 6, 3, 3, 8, 7, 9, 5],
            [8, 3, 4, 5, 6, 3, 8, 3],
            [8, 5, 1, 7, 7, 4, 8, 5],
            [8, 4, 1, 7, 5, 4, 6, 5],
        ],
        "c4f52e973a8e6b63c2396b833b6ebe4e",
    ),
    "n5.cAE=4.cABE=1": (
        [
            [7, 7, 7, 8, 5, 6, 4],
            [8, 6, 9, 8, 8, 7, 7],
            [6, 6, 9, 10, 7, 6, 7],
            [7, 9, 10, 9, 8, 9, 5],
            [7, 5, 9, 9, 9, 7, 4],
        ],
        "58b109d2c5d485b8697fadc2e88168e1",
    ),
    "n5.cAE=3.cABE=0": (
        [
            [6, 4, 8, 6, 8, 5, 2, 6],
            [5, 6, 5, 5, 9, 6, 5, 7],
            [5, 7, 5, 3, 7, 2, 6, 4],
            [6, 6, 6, 3, 8, 3, 5, 7],
            [5, 6, 5, 4, 7, 5, 3, 6],
        ],
        "a333e1bc8446a39d663f6e800f3cff7b",
    ),
    "n5.cAE=3.cABE=1a": (
        [
            [10, 6, 9, 6, 8, 7, 7, 4, 4],
            [7, 4, 11, 7, 8, 6, 8, 6, 5],
            [8, 5, 7, 5, 5, 8, 4, 6, 5],
            [10, 2, 7, 7, 8, 6, 5, 6, 1],
            [7, 6, 9, 7, 6, 4, 7, 4, 1],
        ],
        "3b258b9e94c902427dbcbe9176fea9db",
    ),
    "n5.cAE=3.cABE=1b": (
        [
            [15, 11, 20, 26, 19, 25, 18],
            [17, 11, 18, 25, 16, 26, 18],
            [17, 15, 17, 23, 19, 26, 20],
            [15, 12, 17, 26, 19, 23, 19],
            [15, 13, 20, 26, 19, 25, 21],
        ],
        "7e535e7c4eba42a9243cde9fc17ccc11",
    ),
}


@pytest.mark.parametrize("lemma", list(KNOWN_LEMMAS))
def test_certificates_are_pinned(lemma):
    rows, digest = _PINNED[lemma]
    inst = Instance.of(rows)
    _, certificate = _assert_solved(inst, solve_propm(inst))
    assert lemma in _lemmas(certificate)
    text = json.dumps(certificate_to_json_dict(certificate), sort_keys=True)
    assert hashlib.blake2b(text.encode(), digest_size=16).hexdigest() == digest


@pytest.mark.parametrize("lemma", list(_PINNED))
def test_pinned_certificates_round_trip_through_json(lemma):
    _, certificate = solve_propm(Instance.of(_PINNED[lemma][0]))
    text = json.dumps(certificate_to_json_dict(certificate))
    assert certificate_from_json_dict(json.loads(text)) == certificate


# The blake2b digest of the certificate JSON with its keys in emitted order,
# as `propm solve --json` and `--certificate-out` print it: between them the
# two certificates hold every step type.
_KEY_ORDER_PINNED = {
    "n1.take_all": "c5b22e0812582ff74c2148ac01c2e41e",
    "n4.c=2": "b4cbbb56aa7a694f7a078c2d657b1b85",
}


@pytest.mark.parametrize("lemma", list(_KEY_ORDER_PINNED))
def test_certificate_key_order_is_pinned(lemma):
    _, certificate = solve_propm(Instance.of(_PINNED[lemma][0]))
    text = json.dumps(certificate_to_json_dict(certificate))
    digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
    assert digest == _KEY_ORDER_PINNED[lemma]


@pytest.mark.parametrize("case", ["no-reduction", "reduction", "one-agent"])
def test_solver_checks_its_allocation_once(monkeypatch, i_eps, case):
    from propm import solver

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(solver, "check", spy)
    inst = {
        "no-reduction": Instance.of(_PINNED["n5.cAE=1"][0]),
        "reduction": i_eps,
        "one-agent": Instance.of([[3, 4]]),
    }[case]
    assert bool(reduce_big_items(inst).steps) == (case == "reduction")
    allocation, _ = solve_propm(inst)
    assert calls == [(inst, allocation, Notion.PROPM)]


def test_solver_names_the_agents_its_allocation_fails(monkeypatch):
    from propm import InvariantViolationError, solver

    def divider_takes_all(lv, *rungs):
        lv.assignment[lv.agents[0]] = lv.pool
        return "n2.cut_and_choose"

    monkeypatch.setitem(solver._CASES, 2, divider_takes_all)
    # Agent 0 is reduced away with item 0; agent 1 divides and takes items 1-3,
    # which leaves agent 2 (residual agent 1) with nothing and below its PROPm bound.
    inst = Instance.of([[10, 0, 0, 0], [0, 1, 1, 1], [1, 5, 5, 5]])
    assert reduce_big_items(inst).steps == (BigItemReduction(0, 0),)
    with pytest.raises(InvariantViolationError, match=r"for agents \[2\];"):
        solve_propm(inst)


def test_solver_handles_zero_valuations():
    inst = Instance.of([[0, 0, 0], [5, 5, 5], [1, 2, 3]])
    _assert_solved(inst, _solve_cases(inst))


def test_solve_propm_large_n_with_reductions():
    # six agents, each with one personal over-share item, reduce to nothing
    rows = []
    for i in range(6):
        row = [1] * 6
        row[i] = 100
        rows.append(row)
    inst = Instance.of(rows)
    _assert_solved(inst, solve_propm(inst))


def test_solve_propm_unsupported_size():
    inst = Instance.of([[1] * 8] * 8)
    from propm import UnsupportedSizeError

    with pytest.raises(UnsupportedSizeError):
        solve_propm(inst)


def test_solve_propm_single_agent():
    inst = Instance.of([[3, 4]])
    allocation, certificate = solve_propm(inst)
    assert allocation.bundles[0].items == (0, 1)
    assert verify_certificate(inst, allocation, certificate)


def test_solve_propm_zero_items():
    inst = Instance.of([[], [], []])
    allocation, certificate = solve_propm(inst)
    assert all(not b for b in allocation.bundles)
    assert verify_certificate(inst, allocation, certificate)


def test_solve_propm_past_int64_matches_the_unscaled_solve(monkeypatch):
    # Every comparison and every CP cap is homogeneous in the values, so
    # scaling an instance by 2^64 changes no choice. The scaled caps are past
    # the DP limit and the scaled sums past int64, so every CP bundle runs
    # meet-in-the-middle on Python-int sums.
    mitm_totals = []
    kernel = _kernels.cp_mitm

    def counted(vals, cap):
        mitm_totals.append(sum(vals))
        return kernel(vals, cap)

    monkeypatch.setattr(_kernels, "cp_mitm", counted)
    for s in range(7):
        inst = random_instance(2 + s % 4, 6 + s % 7, 100, seed=3000 + s)
        scaled = Instance(tuple(tuple(v << 64 for v in row) for row in inst.values))
        allocation, certificate = solve_propm(inst)
        assert any(isinstance(step, CpLadder) for step in certificate_steps(certificate)), s
        got, _ = _assert_solved(scaled, solve_propm(scaled))
        assert got == allocation, s
    assert mitm_totals and min(mitm_totals) >= 1 << 63


def test_metabundle_bounds_on_ladders():
    for s in range(40):
        n = 4 + s % 2
        inst = random_instance(n, 9, 100, seed=2600 + s)
        _, certificate = solve_propm(inst)
        _check_metabundles(inst, certificate)


def _check_metabundles(inst, certificate):
    for step in certificate_steps(certificate):
        if isinstance(step, CpLadder):
            rungs = step.rungs
            base = [j for rung in rungs for j in rung]
            divider = step.divider
            base_v = sum(inst.values[divider][j] for j in base)
            if len(rungs) == 4:
                ad = sum(inst.values[divider][j] for rung in (rungs[2], rungs[3]) for j in rung)
                assert 2 * ad >= base_v
            if len(rungs) == 5:
                ae = sum(inst.values[divider][j] for rung in (rungs[3], rungs[4]) for j in rung)
                abe = sum(
                    inst.values[divider][j]
                    for rung in (rungs[2], rungs[3], rungs[4])
                    for j in rung
                )
                assert 5 * ae >= 2 * base_v
                assert 5 * abe >= 3 * base_v


def test_ladder_discipline_holds():
    for s in range(60):
        n = 3 + s % 3
        inst = random_instance(n, 8, 100, seed=3300 + s)
        allocation, certificate = solve_propm(inst)
        assert verify_certificate(inst, allocation, certificate)


def test_ladder_discipline_catches_a_bundle_mixing_rungs():
    """A forged certificate that breaks the rung-mixing rule.

    The divider takes the middle rung A = (2, 3) of the ladder B, A, C =
    (0, 5), (2, 3), (1, 4), and agents 1 and 2 split B and C between them,
    so agent 2's bundle (0, 1, 5) holds items of the rung above A and of the
    rung below it. The allocation happens to be PROPm, but the certificate's
    argument for the divider fails, so it does not replay or verify.
    """
    inst = random_instance(3, 6, 20, 0)
    agents, pool = (0, 1, 2), tuple(range(6))
    ladder = cp_ladder(inst, 0, 3, Bundle(pool))
    assert ladder.rungs == ((0, 5), (2, 3), (1, 4))
    case = CaseApplied(lemma="n3.one_bundle", assignments=((0, (2, 3)),))
    split_agents, split_items = (1, 2), (0, 1, 4, 5)
    assignment, steps = _solve_level(inst, split_agents, split_items)
    split = SubSplit(Certificate(agents=split_agents, items=split_items, steps=tuple(steps)))
    forged = Certificate(agents=agents, items=pool, steps=(ladder, case, split))
    allocation = Allocation.of([[2, 3], [4], [0, 1, 5]])
    assert assignment == {1: (4,), 2: (0, 1, 5)}
    with pytest.raises(CertificateError, match="rung-mixing rule"):
        _replay(inst, forged)
    assert check(inst, allocation, Notion.PROPM).all_satisfied
    assert not verify_certificate(inst, allocation, forged)


def test_ladder_discipline_catches_rung_mixing_inside_a_sub_split():
    """The same forgery one level down, under an outer level that keeps the rule.

    The outer divider takes its last rung D = (0,) and agents 1 to 3 split
    the rest. In that sub-split, divider 1 takes the middle rung A = (2, 4)
    of the ladder B, A, C = (3, 5, 7), (2, 4), (1, 6), and agent 3's bundle
    (1, 5, 7) holds items of the rungs above and below it.
    """
    inst = random_instance(4, 8, 20, 13)
    agents, pool = (0, 1, 2, 3), tuple(range(8))
    ladder = cp_ladder(inst, 0, 4, Bundle(pool))
    assert ladder.rungs[-1] == (0,)
    case = CaseApplied(lemma="n4.c=0a", assignments=((0, (0,)),))
    inner_agents, inner_pool = (1, 2, 3), pool[1:]
    inner_ladder = cp_ladder(inst, 1, 3, Bundle(inner_pool))
    assert inner_ladder.rungs == ((3, 5, 7), (2, 4), (1, 6))
    inner_case = CaseApplied(lemma="n3.one_bundle", assignments=((1, (2, 4)),))
    split_agents, split_items = (2, 3), (1, 3, 5, 6, 7)
    _, steps = _solve_level(inst, split_agents, split_items)
    inner_split = SubSplit(
        Certificate(agents=split_agents, items=split_items, steps=tuple(steps))
    )
    inner = Certificate(
        agents=inner_agents, items=inner_pool, steps=(inner_ladder, inner_case, inner_split)
    )
    forged = Certificate(agents=agents, items=pool, steps=(ladder, case, SubSplit(inner)))
    allocation = Allocation.of([[0], [2, 4], [3, 6], [1, 5, 7]])
    with pytest.raises(CertificateError, match="rung-mixing rule"):
        _replay(inst, forged)
    assert not verify_certificate(inst, allocation, forged)
    # Under the same outer level, the solver's own sub-split keeps the rule.
    _, steps = _solve_level(inst, inner_agents, inner_pool)
    solved = SubSplit(dataclasses.replace(inner, steps=tuple(steps)))
    kept = dataclasses.replace(forged, steps=(ladder, case, solved))
    assert verify_certificate(inst, _replayed(inst, kept), kept)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_json_round_trip(i_2a):
    _, certificate = solve_propm(i_2a)
    data = certificate_to_json_dict(certificate)
    assert certificate_from_json_dict(data) == certificate


def _ladder_levels(certificate):
    """(ladder step, agents left, pool left) for every level that builds a ladder."""
    agents, items = set(certificate.agents), set(certificate.items)
    for step in certificate.steps:
        if isinstance(step, BigItemReduction):
            agents.discard(step.agent)
            items.discard(step.item)
        elif isinstance(step, SubSplit):
            yield from _ladder_levels(step.certificate)
        elif not isinstance(step, CaseApplied):
            yield step, tuple(sorted(agents)), tuple(sorted(items))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_ladder_steps_are_cp_ladders(n):
    # A ladder step is cp_ladder's own result, not a copy of it.
    levels = 0
    for s in range(6):
        inst = random_instance(n, 9, 100, seed=4400 + 10 * n + s)
        for step, agents, pool in _ladder_levels(solve_propm(inst)[1]):
            assert type(step) is CpLadder
            assert step == cp_ladder(inst, min(agents), len(agents), Bundle(pool))
            levels += 1
    assert levels, "no ladder was built"


def test_replay_reproduces_allocation():
    inst = random_instance(5, 9, 100, seed=123)
    allocation, certificate = solve_propm(inst)
    assert _replayed(inst, certificate) == allocation


def test_certificate_rejects_wrong_allocation(i_2a):
    allocation, certificate = solve_propm(i_2a)
    other = Allocation.of([[1], [0]])
    assert not verify_certificate(i_2a, other, certificate)


def test_certificate_rejects_mutated_subsplit():
    inst = random_instance(4, 7, 100, seed=1)
    allocation, certificate = solve_propm(inst)
    steps = list(certificate.steps)
    for idx, step in enumerate(steps):
        if isinstance(step, SubSplit):
            inner = step.certificate
            steps[idx] = SubSplit(dataclasses.replace(inner, agents=inner.agents[:-1]))
            mutated = dataclasses.replace(certificate, steps=tuple(steps))
            assert not verify_certificate(inst, allocation, mutated)
            return
    raise AssertionError("expected at least one sub-split")


def test_certificate_shape_must_match(i_2a, i_eps):
    allocation, certificate = solve_propm(i_2a)
    assert not verify_certificate(i_eps, Allocation.of([[0], [1], [2, 3, 4, 5, 6]]), certificate)


def _tamper_top_rung(cert):
    """Move the last item of the first ladder's top rung into the next rung."""
    steps = list(cert.steps)
    for idx, step in enumerate(steps):
        if isinstance(step, CpLadder) and step.rungs[0]:
            top, below = step.rungs[0], step.rungs[1]
            rungs = (top[:-1], tuple(sorted(below + top[-1:]))) + step.rungs[2:]
            steps[idx] = dataclasses.replace(step, rungs=rungs)
            return dataclasses.replace(cert, steps=tuple(steps))
    raise AssertionError("expected a ladder with a non-empty top rung")


def test_solve_and_verify_build_each_cp_table_once(monkeypatch):
    tables = []
    for name in ("cp_bits", "cp_table", "cp_mitm"):

        def counted(vals, cap, name=name, kernel=getattr(_kernels, name)):
            tables.append((name, tuple(vals), cap))
            return kernel(vals, cap)

        monkeypatch.setattr(_kernels, name, counted)
    # The first instance's smaller tables go to the bitset; the second's
    # (values up to 10^4, 32 items) are past its bound and go to the numpy DP.
    for inst, kernel in [
        (random_instance(5, 24, 1000, seed=11), "cp_bits"),
        (random_instance(4, 32, 10**4, seed=11), "cp_table"),
    ]:
        _best_subset.cache_clear()
        tables.clear()
        allocation, certificate = solve_propm(inst)
        built = len(tables)
        assert built == len(set(tables)) > 0
        assert kernel in {name for name, _, _ in tables}
        assert verify_certificate(inst, allocation, certificate)
        assert len(tables) == built


def test_tampered_rung_rejected_after_the_solve_warmed_the_memo():
    inst = random_instance(4, 12, 100, seed=5)
    allocation, certificate = solve_propm(inst)
    assert _best_subset.cache_info().currsize > 0
    tampered = _tamper_top_rung(certificate)
    with pytest.raises(CertificateError, match="CP recomputation"):
        _replay(inst, tampered)
    assert not verify_certificate(inst, allocation, tampered)


_LADDER_TAMPERS = {
    "duplicate-item": lambda rungs: (rungs[0] + rungs[0][-1:],) + rungs[1:],
    "swapped-rungs": lambda rungs: (rungs[1], rungs[0]) + rungs[2:],
    "leftover-drops-item": lambda rungs: rungs[:-1] + (rungs[-1][:-1],),
    "extra-empty-rung": lambda rungs: rungs + ((),),
    "unsorted-rung": lambda rungs: (rungs[0][::-1],) + rungs[1:],
}


@pytest.mark.parametrize("tamper", list(_LADDER_TAMPERS.values()), ids=list(_LADDER_TAMPERS))
def test_tampered_ladders_are_rejected(tamper):
    inst = random_instance(4, 12, 100, seed=5)
    allocation, certificate = solve_propm(inst)
    steps = list(certificate.steps)
    idx = next(i for i, step in enumerate(steps) if isinstance(step, CpLadder))
    rungs = steps[idx].rungs
    assert len(rungs) == 4 and all(len(rung) >= 2 for rung in rungs)
    steps[idx] = dataclasses.replace(steps[idx], rungs=tamper(rungs))
    tampered = dataclasses.replace(certificate, steps=tuple(steps))
    with pytest.raises(CertificateError):
        _replay(inst, tampered)
    assert not verify_certificate(inst, allocation, tampered)


def test_verdicts_do_not_depend_on_the_memo():
    for s in range(12):
        inst = random_instance(3 + s % 3, 8 + s % 5, 100, seed=600 + s)
        allocation, certificate = solve_propm(inst)
        rotated = Allocation(allocation.bundles[1:] + allocation.bundles[:1])
        cases = [
            (allocation, certificate, True),
            (allocation, _tamper_top_rung(certificate), False),
            (rotated, certificate, False),
        ]
        for alloc, cert, expected in cases:
            warm = verify_certificate(inst, alloc, cert)
            _best_subset.cache_clear()
            cold = verify_certificate(inst, alloc, cert)
            assert warm == cold == expected, s


_MISSING = object()  # deletes the key at the path


@pytest.mark.parametrize(
    "path, value, parses",
    [
        (("steps", 2, "certificate", "items"), ["x"], False),
        (("steps", 2, "certificate", "agents", 0), "0", False),
        (("steps", 1, "assignments", 0, 0), [0], False),
        (("agents",), 5, False),
        (("steps",), None, False),
        (("steps", 1), ["case"], False),
        (("steps", 1, "assignments", 0, 1), None, False),
        (("steps", 1, "assignments", 0), [0, [1], 2], False),
        (("steps", 1, "type"), "bogus", False),
        (("steps", 2, "certificate", "items"), _MISSING, False),
    ],
    ids=[
        "item-not-int",
        "agent-not-int",
        "assignment-agent-not-int",
        "agents-not-list",
        "steps-null",
        "step-is-list",
        "assignment-items-null",
        "assignment-three-entries",
        "unknown-step-type",
        "split-certificate-without-items",
    ],
)
def test_malformed_certificate_json(path, value, parses):
    # a certificate whose case has direct assignments and that has a sub-split
    inst = Instance.of(_PINNED["n4.c=2"][0])
    allocation, certificate = solve_propm(inst)
    data = certificate_to_json_dict(certificate)
    assert [step["type"] for step in data["steps"]] == ["ladder", "case", "split"]
    target = data
    for key in path[:-1]:
        target = target[key]
    if value is _MISSING:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    if not parses:
        with pytest.raises(InputError):
            certificate_from_json_dict(data)
        return
    assert not verify_certificate(inst, allocation, certificate_from_json_dict(data))


def _replace_entries(field, mutate):
    return lambda cert: dataclasses.replace(cert, **{field: mutate(getattr(cert, field))})


_ENTRY_MUTATIONS = {
    "item-str": _replace_entries("items", lambda t: t[:-1] + ("x",)),
    "extra-item-str": _replace_entries("items", lambda t: t + ("x",)),
    "item-bool": _replace_entries("items", lambda t: t[:1] + (True,) + t[2:]),
    "item-float": _replace_entries("items", lambda t: t[:-1] + (float(t[-1]),)),
    "agent-str": _replace_entries("agents", lambda t: t[:-1] + ("x",)),
    "agent-bool": _replace_entries("agents", lambda t: (False,) + t[1:]),
}


@pytest.mark.parametrize("mutate", list(_ENTRY_MUTATIONS.values()), ids=list(_ENTRY_MUTATIONS))
def test_non_int_agents_and_items_are_rejected(mutate):
    inst = Instance.of(_PINNED["n4.c=2"][0])
    allocation, certificate = solve_propm(inst)
    mutated = mutate(certificate)
    with pytest.raises(CertificateError, match="must be ints"):
        _replay(inst, mutated)
    assert not verify_certificate(inst, allocation, mutated)


def test_verify_refuses_an_allocation_of_bare_tuples():
    # Bare tuples never equal the replayed Bundles, so verification would
    # wrongly answer False for the solver's own allocation.
    inst = Instance.of([[3, 1, 2], [2, 2, 2]])
    allocation, cert = solve_propm(inst)
    bare = tuple(bundle.items for bundle in allocation.bundles)
    with pytest.raises(InputError, match=r"must be a Bundle, not tuple; use Allocation\.of"):
        verify_certificate(inst, Allocation(bare), cert)
    assert verify_certificate(inst, Allocation.of(bare), cert)


def test_verify_rejects_a_subsplit_without_a_certificate():
    inst = Instance.of(_PINNED["n4.c=1"][0])
    allocation, certificate = solve_propm(inst)
    steps = list(certificate.steps)
    idx = next(i for i, step in enumerate(steps) if isinstance(step, SubSplit))
    steps[idx] = dataclasses.replace(steps[idx], certificate=None)
    mutated = dataclasses.replace(certificate, steps=tuple(steps))
    assert not verify_certificate(inst, allocation, mutated)


# Two big-item reductions, then a three-agent level that splits part of its
# pool between two agents, so replay derives two share bounds for its sub-split.
_REDUCED_THEN_SPLIT = random_instance(5, 7, 30, seed=1)


def _replace_step(kind, **changes):
    """Apply ``changes`` (values or functions of the old field) to the first step of ``kind``."""

    def apply(cert):
        steps = list(cert.steps)
        idx = next(i for i, step in enumerate(steps) if isinstance(step, kind))
        old = steps[idx]
        fields = {k: v(getattr(old, k)) if callable(v) else v for k, v in changes.items()}
        steps[idx] = dataclasses.replace(old, **fields)
        return dataclasses.replace(cert, steps=tuple(steps))

    return apply


def _replace_split(field, mutate):
    """Apply ``mutate`` to ``field`` of the first sub-split's nested certificate."""
    return _replace_step(SubSplit, certificate=_replace_entries(field, mutate))


# Replay derives a sub-split's share bounds from its members and sub-pool (the
# nested certificate's agents and items), so the bound-* cases tamper those.
_DERIVED_STEP_MUTATIONS = {
    "bounds-dropped": _replace_split("agents", lambda t: ()),
    "last-bound-dropped": _replace_split("agents", lambda t: t[:-1]),
    "bounds-reordered": _replace_split("agents", lambda t: t[::-1]),
    "bound-repeated": _replace_split("agents", lambda t: t + t[:1]),
    "bound-lhs": _replace_split("items", lambda t: t[:-1]),
    "bound-agent-str": _replace_split("agents", lambda t: (str(t[0]),) + t[1:]),
    "bound-item-str": _replace_split("items", lambda t: ("x",) + t[1:]),
    "split-items-reordered": _replace_split("items", lambda t: t[::-1]),
    # Item 1 went to agent 1 by the first reduction.
    "split-item-unavailable": _replace_split("items", lambda t: (1,) + t),
    "reduction-agent": _replace_step(BigItemReduction, agent=lambda a: a + 1),
    "reduction-item": _replace_step(BigItemReduction, item=lambda j: j + 1),
    "reduction-dropped": lambda cert: dataclasses.replace(cert, steps=cert.steps[1:]),
    "reductions-swapped": lambda cert: dataclasses.replace(
        cert, steps=(cert.steps[1], cert.steps[0], *cert.steps[2:])
    ),
}


@pytest.mark.parametrize(
    "mutate", list(_DERIVED_STEP_MUTATIONS.values()), ids=list(_DERIVED_STEP_MUTATIONS)
)
def test_share_bounds_and_reductions_are_rebuilt_whole(mutate):
    inst = _REDUCED_THEN_SPLIT
    allocation, certificate = solve_propm(inst)
    kinds = [type(step) for step in certificate.steps]
    assert kinds == [BigItemReduction, BigItemReduction, CpLadder, CaseApplied, SubSplit]
    assert certificate.steps[-1].certificate.agents == (3, 4)
    mutated = mutate(certificate)
    assert mutated != certificate
    with pytest.raises(CertificateError):
        _replay(inst, mutated)
    assert not verify_certificate(inst, allocation, mutated)


def _nested_bundle_reuses_a_reduced_item():
    """Agent 4's bundle in the sub-split gains item 1, which agent 1 took by reduction."""
    inst = _REDUCED_THEN_SPLIT
    _, certificate = solve_propm(inst)
    nested = certificate.steps[-1].certificate
    assert nested.steps[1].assignments == ((3, (5,)), (4, (4, 6)))
    forge = _replace_step(CaseApplied, assignments=((3, (5,)), (4, (1, 4, 6))))
    forged = _replace_step(SubSplit, certificate=forge)(certificate)
    return inst, forged, Allocation.of([[0, 3], [1], [2], [5], [1, 4, 6]])


def _sub_split_reuses_a_reduced_item():
    """Agents 3 and 4 split (1, 4, 5, 6), item 1 included, with the steps that pool solves to."""
    inst = _REDUCED_THEN_SPLIT
    _, certificate = solve_propm(inst)
    _, steps = _solve_level(inst, (3, 4), (1, 4, 5, 6))
    nested = Certificate(agents=(3, 4), items=(1, 4, 5, 6), steps=tuple(steps))
    forged = _replace_step(SubSplit, certificate=nested)(certificate)
    return inst, forged, Allocation.of([[0, 3], [1], [2], [4, 6], [1, 5]])


def _sub_split_reuses_a_reduced_agent():
    """Agent 0 took item 0 by reduction; a lone sub-split then serves it again, with nothing.

    Agent 0 values the level's pool at 0, so its share bound (2*0 >= 1*0)
    holds and only the free-agent rule stands in the way. On
    _REDUCED_THEN_SPLIT every value is positive, and no such forgery meets
    its share bounds there.
    """
    inst = Instance.of([[1, 0, 0], [0, 1, 1], [0, 1, 1]])
    _, certificate = solve_propm(inst)
    assert certificate.steps[0] == BigItemReduction(0, 0)
    lone = Certificate(agents=(0,), items=(), steps=(CaseApplied("n1.take_all", ((0, ()),)),))
    forged = dataclasses.replace(certificate, steps=(*certificate.steps, SubSplit(lone)))
    return inst, forged, Allocation.of([[], [2], [1]])


_FREE_SET_FORGERIES = {
    "nested-bundle-item": _nested_bundle_reuses_a_reduced_item,
    "sub-split-item": _sub_split_reuses_a_reduced_item,
    "sub-split-agent": _sub_split_reuses_a_reduced_agent,
}


@pytest.mark.parametrize(
    "forge", list(_FREE_SET_FORGERIES.values()), ids=list(_FREE_SET_FORGERIES)
)
def test_every_level_draws_from_what_its_parent_left_free(forge):
    """Each forgery meets every other obligation; only the free-set rule rejects it.

    Accepted, it would verify an allocation that is not a partition.
    """
    inst, forged, allocation = forge()
    with pytest.raises(InputError):
        allocation.validate_for(inst)
    with pytest.raises(CertificateError, match="unavailable"):
        _replay(inst, forged)
    assert not verify_certificate(inst, allocation, forged)


@pytest.mark.parametrize(
    "path, value",
    [
        (("steps", 0, "item"), 1.0),
        (("steps", 4, "certificate", "items", 0), 4.0),
        (("steps", 0, "agent"), True),
    ],
    ids=["reduction-item-float", "split-item-float", "reduction-agent-bool"],
)
def test_certificate_json_numbers_must_be_ints(path, value):
    """A float or a bool equal in value to the int the solver wrote does not load."""
    inst = _REDUCED_THEN_SPLIT
    _, certificate = solve_propm(inst)
    data = certificate_to_json_dict(certificate)
    assert certificate_from_json_dict(data) == certificate
    target = data
    for key in path[:-1]:
        target = target[key]
    assert target[path[-1]] == value and type(target[path[-1]]) is int
    target[path[-1]] = value
    with pytest.raises(InputError, match="must be int"):
        certificate_from_json_dict(data)


_WRONG_TYPE_MUTATIONS = {
    "lemma-list": _replace_step(CaseApplied, lemma=["n4.c=1"]),
    "split-certificate-none": _replace_step(SubSplit, certificate=None),
    "split-agents-none": _replace_split("agents", lambda t: None),
    "split-items-none": _replace_split("items", lambda t: None),
    "split-steps-none": _replace_split("steps", lambda t: None),
    "steps-none": lambda cert: dataclasses.replace(cert, steps=None),
    "assignments-none": _replace_step(CaseApplied, assignments=None),
    "assignment-items-none": _replace_step(CaseApplied, assignments=((0, None),)),
    "assignment-agent-str": _replace_step(CaseApplied, assignments=(("0", ()),)),
    "rungs-none": _replace_step(CpLadder, rungs=None),
    # Each of these equals the solver's step (True == 1, 1.0 == 1, False == 0),
    # so only a type test rejects it.
    "reduction-agent-bool": _replace_step(BigItemReduction, agent=True),
    "reduction-item-float": _replace_step(BigItemReduction, item=float),
    "ladder-divider-bool": _replace_step(CpLadder, divider=False),
    "assignment-agent-bool": _replace_step(
        CaseApplied, assignments=lambda a: ((False, a[0][1]), *a[1:])
    ),
    "ladder-rung-items-float": _replace_step(
        CpLadder, rungs=lambda rungs: tuple(tuple(map(float, rung)) for rung in rungs)
    ),
}


@pytest.mark.parametrize(
    "mutate", list(_WRONG_TYPE_MUTATIONS.values()), ids=list(_WRONG_TYPE_MUTATIONS)
)
def test_wrongly_typed_fields_fail_replay_cleanly(mutate):
    inst = _REDUCED_THEN_SPLIT
    allocation, certificate = solve_propm(inst)
    assert certificate.steps[0] == BigItemReduction(1, 1)
    assert certificate.steps[2].divider == 0
    mutated = mutate(certificate)
    with pytest.raises(CertificateError):
        _replay(inst, mutated)
    assert not verify_certificate(inst, allocation, mutated)


def test_a_step_of_unknown_type_fails_replay():
    inst = Instance.of(_PINNED["n4.c=1"][0])
    allocation, certificate = solve_propm(inst)
    inner = next(step for step in certificate.steps if isinstance(step, SubSplit)).certificate
    mutated = dataclasses.replace(certificate, steps=(*certificate.steps, inner))
    with pytest.raises(CertificateError, match="is Certificate, expected SubSplit"):
        _replay(inst, mutated)
    assert not verify_certificate(inst, allocation, mutated)


def test_bool_items_in_an_assignment_fail_replay():
    # True == 1, so only a type test tells (True, 2) from (1, 2).
    inst = random_instance(2, 3, 20, 0)
    allocation, certificate = _solve_cases(inst)
    assert certificate.steps[1].assignments == ((0, (0,)), (1, (1, 2)))
    mutated = _replace_step(CaseApplied, assignments=((0, (0,)), (1, (True, 2))))(certificate)
    with pytest.raises(CertificateError, match="must be ints"):
        _replay(inst, mutated)
    assert not verify_certificate(inst, allocation, mutated)


# Each list holds the same values as the tuple it replaces.
_LIST_CONTAINERS = {
    "steps": lambda cert: dataclasses.replace(cert, steps=list(cert.steps)),
    "assignments": _replace_step(CaseApplied, assignments=list),
    "assignment-pair": _replace_step(CaseApplied, assignments=lambda a: (list(a[0]), *a[1:])),
    "assignment-bundle": _replace_step(
        CaseApplied, assignments=lambda a: ((a[0][0], list(a[0][1])), *a[1:])
    ),
}


@pytest.mark.parametrize("level", ["top", "nested"])
@pytest.mark.parametrize("mutate", list(_LIST_CONTAINERS.values()), ids=list(_LIST_CONTAINERS))
def test_list_containers_fail_replay(mutate, level):
    """A list where a certificate field declares a tuple does not replay, at any depth."""
    if level == "top":
        inst = random_instance(3, 7, 100, 5)
    else:
        inst, mutate = _REDUCED_THEN_SPLIT, _replace_step(SubSplit, certificate=mutate)
    allocation, certificate = solve_propm(inst)
    mutated = mutate(certificate)
    with pytest.raises(CertificateError, match="must be a"):
        _replay(inst, mutated)
    assert not verify_certificate(inst, allocation, mutated)



# ---------------------------------------------------------------------------
# accepted certificates prove PROPm
# ---------------------------------------------------------------------------


def _swapped_cut_and_choose():
    """random_instance(2, 7, 50, 0) with its two cut-and-choose bundles swapped.

    The ladder and the label still recompute, but the chooser now holds a
    rung worth less than half of the pool to it, and the allocation is not
    PROPm.
    """
    inst = random_instance(2, 7, 50, 0)
    _, certificate = solve_propm(inst)
    assert [type(step) for step in certificate.steps] == [CpLadder, CaseApplied]
    (a, x), (b, y) = certificate.steps[1].assignments
    swapped = _replace_step(CaseApplied, assignments=((a, y), (b, x)))(certificate)
    allocation = Allocation.of([y, x])
    assert not check(inst, allocation, Notion.PROPM).all_satisfied
    return inst, allocation, swapped


def test_swapped_direct_assignments_are_rejected():
    inst, allocation, swapped = _swapped_cut_and_choose()
    with pytest.raises(CertificateError, match="less than 1/n"):
        _replay(inst, swapped)
    assert not verify_certificate(inst, allocation, swapped)


def test_a_divider_served_directly_takes_a_whole_rung():
    # Item 0 moves from the divider's rung to the chooser, who keeps at least
    # half of the pool; the divider falls short of its PROPm bound.
    inst = random_instance(2, 7, 50, 0)
    _, certificate = solve_propm(inst)
    assert certificate.steps[1].assignments == ((0, (0, 4, 5)), (1, (1, 2, 3, 6)))
    moved = _replace_step(CaseApplied, assignments=((0, (4, 5)), (1, (0, 1, 2, 3, 6))))(certificate)
    allocation = Allocation.of([(4, 5), (0, 1, 2, 3, 6)])
    assert not check(inst, allocation, Notion.PROPM).all_satisfied
    with pytest.raises(CertificateError, match="not one whole rung"):
        _replay(inst, moved)
    assert not verify_certificate(inst, allocation, moved)


def test_a_level_of_several_agents_needs_its_ladder():
    # Without the ladder no step says who divides or what the rungs are.
    inst, allocation, swapped = _swapped_cut_and_choose()
    dropped = dataclasses.replace(swapped, steps=swapped.steps[1:])
    with pytest.raises(CertificateError, match="step 0 is CaseApplied, expected CpLadder"):
        _replay(inst, dropped)
    assert not verify_certificate(inst, allocation, dropped)


def test_only_sub_splits_follow_a_case():
    """A second ladder and case inside one level would skip the share bound.

    The divider of random_instance(3, 8, 50, 2) takes its rung (0, 4, 7).
    Agents 1 and 2 then cut and choose the rest under a ladder of their own,
    written into the same step list instead of a SubSplit. Each case meets
    its obligations at its own ladder, but agent 2 values the rest below 2/3
    of the pool, so without a share bound the allocation is not PROPm.
    """
    inst = random_instance(3, 8, 50, 2)
    pool, rung = tuple(range(8)), (0, 4, 7)
    ladder = cp_ladder(inst, 0, 3, Bundle(pool))
    assert rung in ladder.rungs
    rest = tuple(j for j in pool if j not in rung)
    second = cp_ladder(inst, 1, 2, Bundle(rest))
    assert second.rungs == ((1, 2, 5, 6), (3,))
    values = inst.values[2]
    assert 2 * sum(values[j] for j in (1, 2, 5, 6)) >= sum(values[j] for j in rest)
    assert 3 * sum(values[j] for j in rest) < 2 * sum(values)
    forged = Certificate(
        agents=(0, 1, 2),
        items=pool,
        steps=(
            ladder,
            CaseApplied(lemma="n3.one_bundle", assignments=((0, rung),)),
            second,
            CaseApplied(lemma="n2.cut_and_choose", assignments=((1, (3,)), (2, (1, 2, 5, 6)))),
        ),
    )
    allocation = Allocation.of([rung, (3,), (1, 2, 5, 6)])
    assert not check(inst, allocation, Notion.PROPM).all_satisfied
    with pytest.raises(CertificateError, match="step 2 is CpLadder, expected SubSplit"):
        _replay(inst, forged)
    assert not verify_certificate(inst, allocation, forged)


def test_a_sub_split_below_its_share_fails_replay():
    """The forgery above, with agents 1 and 2 in a well-formed SubSplit.

    The steps are in order and every field has its type, but agent 2 values
    the sub-pool below 2/3 of the level's pool, so the share bound replay
    derives for it fails.
    """
    inst = random_instance(3, 8, 50, 2)
    pool, rung = tuple(range(8)), (0, 4, 7)
    rest = tuple(j for j in pool if j not in rung)
    assert 3 * sum(inst.values[2][j] for j in rest) < 2 * sum(inst.values[2])
    _, steps = _solve_level(inst, (1, 2), rest)
    forged = Certificate(
        agents=(0, 1, 2),
        items=pool,
        steps=(
            cp_ladder(inst, 0, 3, Bundle(pool)),
            CaseApplied(lemma="n3.one_bundle", assignments=((0, rung),)),
            SubSplit(Certificate(agents=(1, 2), items=rest, steps=tuple(steps))),
        ),
    )
    allocation = Allocation.of([rung, (3,), (1, 2, 5, 6)])
    assert not check(inst, allocation, Notion.PROPM).all_satisfied
    with pytest.raises(CertificateError, match="a share bound does not hold"):
        _replay(inst, forged)
    assert not verify_certificate(inst, allocation, forged)


def _level_paths(cert, path=()):
    """The step-index path to every level of a certificate, the top one first."""
    yield path
    for idx, step in enumerate(cert.steps):
        if isinstance(step, SubSplit):
            yield from _level_paths(step.certificate, (*path, idx))


def _edit_level(cert, path, edit):
    """``cert`` with the step list of the level at ``path`` replaced by ``edit(steps)``."""
    if not path:
        return dataclasses.replace(cert, steps=tuple(edit(list(cert.steps))))
    idx, *rest = path
    steps = list(cert.steps)
    inner = _edit_level(steps[idx].certificate, rest, edit)
    steps[idx] = dataclasses.replace(steps[idx], certificate=inner)
    return dataclasses.replace(cert, steps=tuple(steps))


def _forge_case(data, steps, kind):
    """Permute a case's direct bundles among its agents, or move one item between them."""
    cases = [k for k, step in enumerate(steps) if isinstance(step, CaseApplied)]
    k = data.draw(st.sampled_from(cases))
    agents = [agent for agent, _ in steps[k].assignments]
    bundles = [bundle for _, bundle in steps[k].assignments]
    if kind == "permute":
        bundles = data.draw(st.permutations(bundles))
    else:
        sources = [p for p, bundle in enumerate(bundles) if bundle]
        if len(bundles) < 2 or not sources:
            return steps
        src = data.draw(st.sampled_from(sources))
        dst = data.draw(st.sampled_from([p for p in range(len(bundles)) if p != src]))
        item = data.draw(st.sampled_from(bundles[src]))
        bundles[src] = tuple(j for j in bundles[src] if j != item)
        bundles[dst] = tuple(sorted((*bundles[dst], item)))
    steps[k] = dataclasses.replace(steps[k], assignments=tuple(zip(agents, bundles)))
    return steps


def _forge_ladder(data, steps, kind):
    """Drop or duplicate the level's ladder."""
    k = next((k for k, step in enumerate(steps) if isinstance(step, CpLadder)), None)
    if k is not None:
        steps[k : k + 1] = [] if kind == "drop-ladder" else [steps[k]] * 2
    return steps


def _forge_extra_level(data, steps, kind):
    """Write a sub-split's own steps into this level in place of the SubSplit."""
    splits = [k for k, step in enumerate(steps) if isinstance(step, SubSplit)]
    if splits:
        k = data.draw(st.sampled_from(splits))
        steps[k : k + 1] = steps[k].certificate.steps
    return steps


def _forge_foreign_item(data, steps, kind):
    """Add an item the level does not hold to one direct bundle or one sub-split's items.

    The item comes from 0..9, the property test's largest m. Each item of
    the instance is already held elsewhere (or is past m), so a forgery of
    this kind that verified would not be a partition, and the reference
    check would refuse it.
    """
    held, targets = set(), []
    for k, step in enumerate(steps):
        if isinstance(step, BigItemReduction):
            held.add(step.item)
        elif isinstance(step, CaseApplied):
            held.update(j for _, bundle in step.assignments for j in bundle)
            targets += [(k, p) for p in range(len(step.assignments))]
        elif isinstance(step, SubSplit):
            held.update(step.certificate.items)
            targets.append((k, None))
    outside = [j for j in range(10) if j not in held]
    if not targets or not outside:
        return steps
    k, p = data.draw(st.sampled_from(targets))
    item = data.draw(st.sampled_from(outside))
    if p is None:
        nested = steps[k].certificate
        items = tuple(sorted((*nested.items, item)))
        steps[k] = SubSplit(dataclasses.replace(nested, items=items))
    else:
        pairs = list(steps[k].assignments)
        agent, bundle = pairs[p]
        pairs[p] = (agent, tuple(sorted((*bundle, item))))
        steps[k] = dataclasses.replace(steps[k], assignments=tuple(pairs))
    return steps


_FORGERIES = {
    "permute": _forge_case,
    "move-item": _forge_case,
    "drop-ladder": _forge_ladder,
    "duplicate-ladder": _forge_ladder,
    "extra-level": _forge_extra_level,
    "foreign-item": _forge_foreign_item,
}


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 5),
    m=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_every_certificate_that_verifies_is_propm(n, m, seed, data):
    # One or two forgeries at any depth, so an extra level can also carry
    # forged assignments; whatever verifies must pass the reference check.
    inst = random_instance(n, m, 50, seed)
    _, forged = solve_propm(inst)
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_level_paths(forged))))
        kind = data.draw(st.sampled_from(list(_FORGERIES)))
        forged = _edit_level(forged, path, lambda steps: _FORGERIES[kind](data, steps, kind))
    try:
        allocation = _replayed(inst, forged)
    except CertificateError:
        return
    if verify_certificate(inst, allocation, forged):
        assert check(inst, allocation, Notion.PROPM).all_satisfied


# ---------------------------------------------------------------------------
# an inclusion-maximal CP rule in place of the value-maximal one
# ---------------------------------------------------------------------------


def _largest_first(vals, cap):
    """``_best_subset``'s answer shape for the largest-first inclusion-maximal rule.

    Items are taken by value, largest first (the lower position on ties),
    each while the sum stays at most ``cap``. Every item left out would then
    break the cap, but the sum need not be the largest that fits.
    """
    m = len(vals)
    total = count = mask = 0
    for p in sorted(range(m), key=lambda p: -vals[p]):
        if total + vals[p] <= cap:
            total, count, mask = total + vals[p], count + 1, mask | 1 << (m - 1 - p)
    return total, count, mask


_VALUE_FAMILIES = {
    "0..3": lambda rng, m: [rng.randint(0, 3) for _ in range(m)],
    "powers-of-two": lambda rng, m: [2 ** rng.randint(0, 30) for _ in range(m)],
    "one-big-item": lambda rng, m: [rng.randint(0, 100) for _ in range(m - 1)]
    + [rng.randint(0, 10**6)],
    "three-values": lambda rng, m: rng.choices(rng.sample(range(1, 10**9), 3), k=m),
    "up-to-1e9": lambda rng, m: [rng.randint(0, 10**9) for _ in range(m)],
}


def _inclusion_maximal_sample(count=300):
    """A fixed sample: n = 2..5, m = n..16, each value family in turn.

    Each agent is, with probability 1/2, a near-copy of the first agent's
    row (one entry moved by one), else a fresh row of the family.
    """
    rng = random.Random(17)
    families = list(_VALUE_FAMILIES.values())
    sample = []
    for s in range(count):
        n = rng.randint(2, 5)
        m = rng.randint(n, 16)
        draw = families[s % len(families)]
        rows = [draw(rng, m)]
        for _ in range(n - 1):
            if rng.random() < 0.5:
                row = list(rows[0])
                row[rng.randrange(m)] += 1
            else:
                row = draw(rng, m)
            rows.append(row)
        sample.append(Instance.of(rows))
    return sample


def test_largest_first_ladders_solve_and_only_the_ladder_check_rejects_them(monkeypatch):
    """Stage 1 evidence for solving with inclusion-maximal CP bundles (no output change).

    With the largest-first rule in place of the value-maximal one, every
    solve of the sample passes the solver's own PROPm check and share
    bounds (no InvariantViolationError). Under the real rule, each such
    certificate whose ladders all equal the real ones verifies, and each
    other one is rejected at a ladder and nowhere else.
    """
    sample = _inclusion_maximal_sample()
    monkeypatch.setattr(cpsets, "_best_subset", _largest_first)
    solved = [solve_propm(inst) for inst in sample]
    monkeypatch.undo()
    differ = 0
    for inst, (allocation, certificate) in zip(sample, solved):
        ladders = [step for step in certificate_steps(certificate) if isinstance(step, CpLadder)]
        real = [
            cp_ladder(inst, ladder.divider, len(ladder.rungs), Bundle.of(sum(ladder.rungs, ())))
            for ladder in ladders
        ]
        if real == ladders:
            assert verify_certificate(inst, allocation, certificate)
            continue
        differ += 1
        with pytest.raises(CertificateError, match="ladder differs from its CP recomputation"):
            _replay(inst, certificate)
        assert not verify_certificate(inst, allocation, certificate)
    assert 0 < differ < len(sample)
