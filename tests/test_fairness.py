import hashlib
import json
import random
from fractions import Fraction

import pytest

from propm import (
    Allocation,
    InputError,
    Instance,
    Notion,
    ResourceBudgetError,
    adjusted_profile,
    check,
    envy_graph,
    exists,
    make_counterexample,
    mms_value,
    parse_notion,
)
from propm.oracle import allocation_from_index, random_instance
from reference import brute_mms_window

EPS_SPLIT = Allocation.of([[0], [1, 2, 3], [4, 5, 6]])


def test_check_propm_eps(i_eps):
    report = check(i_eps, EPS_SPLIT, Notion.PROPM)
    assert report.all_satisfied
    # agent 1: value 3, bonus 94, threshold 100/3
    assert report.per_agent[1].slack == Fraction(3 + 94) - Fraction(100, 3)


def test_check_alt_median_eps(i_eps):
    report = check(i_eps, EPS_SPLIT, Notion.ALT_MEDIAN)
    assert not report.per_agent[1].satisfied
    # lower median of {94, 1, 1, 1} is 1
    assert report.per_agent[1].slack == Fraction(4) - Fraction(100, 3)


def test_check_aefx_eps(i_eps):
    report = check(i_eps, EPS_SPLIT, Notion.AEFX)
    assert report.all_satisfied
    # agent 1: 3 + (94+1)/3 against 100/3
    assert report.per_agent[1].slack == Fraction(3) + Fraction(95, 3) - Fraction(100, 3)


def test_check_rejects_incomplete(i_eps):
    with pytest.raises(InputError):
        check(i_eps, Allocation.of([[0], [1], [2]]), Notion.PROPM)


@pytest.mark.parametrize("agent", [-1, 3])
def test_mms_value_refuses_an_agent_out_of_range(i_eps, agent):
    with pytest.raises(InputError, match=f"agent index {agent} out of range for n=3"):
        mms_value(i_eps, agent)


def test_mms_value_eps(i_eps):
    # best partition: {94} | {1,1,1} | {1,1,1}
    assert mms_value(i_eps, 0) == 3


def test_mms_single_agent():
    inst = Instance.of([[7, 5, 1]])
    assert mms_value(inst, 0) == 13


def test_mms_two_items_two_agents():
    inst = Instance.of([[10, 10], [10, 10]])
    assert mms_value(inst, 0) == 10


def test_mms_fewer_items_than_agents():
    inst = Instance.of([[9], [9], [9]])
    assert mms_value(inst, 0) == 0


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("m", range(7))
def test_mms_matches_brute_force_over_all_partitions(n, m):
    """The scan fixes the last item to bundle 0; every n^m partition must agree."""
    rng = random.Random(1000 * n + m)
    kinds = [
        [rng.randint(0, 30) for _ in range(m)],
        [rng.choice((0, 0, 2, 5)) for _ in range(m)],  # zeros and ties
        [7] * m,
        [0] * m,
        [rng.randint(0, 30) for _ in range(m - 1)] + [100] if m else [],
    ]
    expected = [brute_mms_window(row, n, 0, n**m) for row in kinds]
    for shift in range(len(kinds)):
        picks = [(shift + a) % len(kinds) for a in range(n)]
        inst = Instance.of([kinds[k] for k in picks])
        for agent, k in enumerate(picks):
            assert mms_value(inst, agent) == expected[k], (agent, kinds[k])


def test_a_lone_agent_mms_past_int64_is_exact():
    # mms_value answers n = 1 from the total; the scan kernels refuse values
    # past int64, so that branch is the only MMS answer at this size.
    inst = Instance.of([[10**30, 5]])
    assert mms_value(inst, 0) == 10**30 + 5
    assert check(inst, Allocation.of([[0, 1]]), Notion.MMS).all_satisfied
    with pytest.raises(ResourceBudgetError, match="int64"):
        exists(inst, Notion.MMS)


def test_check_mms_verdict(i_eps):
    report = check(i_eps, EPS_SPLIT, Notion.MMS)
    assert [v.satisfied for v in report.per_agent] == [True, True, True]


def test_mms_budget_error(i_eps):
    from propm import ResourceBudgetError

    with pytest.raises(ResourceBudgetError):
        mms_value(i_eps, 0, budget=5)


def test_zero_total_agent_vacuously_satisfied():
    inst = Instance.of([[0, 0], [3, 4]])
    allocation = Allocation.of([[], [0, 1]])
    for notion in Notion:
        assert check(inst, allocation, notion).per_agent[0].satisfied, notion


def test_propx_prop1_empty_rivals_bonus_zero():
    inst = Instance.of([[4, 6], [1, 1]])
    allocation = Allocation.of([[0, 1], []])
    # agent 0 holds everything: bonus pools are empty, own value carries it
    assert check(inst, allocation, Notion.PROPX).per_agent[0].satisfied
    assert check(inst, allocation, Notion.PROP1).per_agent[0].satisfied


def test_minimax_empty_rival_caps_bonus():
    # one rival empty, one rich: the empty rival pins the minimax bonus at 0
    inst = Instance.of([[50, 50], [1, 1], [1, 1]])
    allocation = Allocation.of([[], [], [0, 1]])
    report = check(inst, allocation, Notion.ALT_MINIMAX)
    assert not report.per_agent[0].satisfied
    assert report.per_agent[0].slack == Fraction(0) - Fraction(100, 3)


@pytest.mark.parametrize(
    "call",
    [lambda inst: check(inst, EPS_SPLIT, "prop"), lambda inst: exists(inst, "prop")],
    ids=["check", "exists"],
)
def test_notion_must_be_a_notion(call):
    # Only parse_notion reads names: check would fall through to the alt-mode
    # slacks for a name, and exists would fail on its missing scan code.
    with pytest.raises(InputError, match="notion must be a Notion, got 'prop'"):
        call(make_counterexample(100))


def test_parse_notion_round_trip():
    for notion in Notion:
        assert parse_notion(notion.value) is notion
    with pytest.raises(InputError):
        parse_notion("nope")


def test_scaling_invariance():
    base = random_instance(3, 5, 20, seed=11)
    scaled_rows = [list(base.values[0]), [7 * v for v in base.values[1]], list(base.values[2])]
    scaled = Instance.of(scaled_rows)
    for allocation in (allocation_from_index(3, 5, k) for k in range(3**5)):
        for notion in Notion:
            got = check(base, allocation, notion)
            want = check(scaled, allocation, notion)
            assert [v.satisfied for v in got.per_agent] == [
                v.satisfied for v in want.per_agent
            ], (notion, allocation)


def test_report_json_slacks_are_fractions(i_eps):
    data = check(i_eps, EPS_SPLIT, Notion.PROPM).to_json_dict()
    assert data["per_agent"][1]["slack"] == "191/3"


def _report_corpus():
    """Seeded (instance, allocation) pairs: n = 1..5, m = 0..7, zeros, ties, empty bundles."""
    rng = random.Random(20090950)
    for n in range(1, 6):
        for m in range(8):
            rows = [
                [rng.randint(0, 9) for _ in range(m)],
                [rng.choice((0, 0, 3, 3, 7)) for _ in range(m)],
                [4] * m,
                [0] * m,
            ]
            for _ in range(4):
                inst = Instance.of([rng.choice(rows) for _ in range(n)])
                for _ in range(6):
                    # Owners come from a random subset, so some bundles stay empty.
                    holders = rng.sample(range(n), rng.randint(1, n))
                    owners = [rng.choice(holders) for _ in range(m)]
                    yield inst, Allocation.of(
                        [[j for j in range(m) if owners[j] == i] for i in range(n)]
                    )


def test_check_reports_are_pinned():
    records = []
    for inst, allocation in _report_corpus():
        records.append([check(inst, allocation, notion).to_json_dict() for notion in Notion])
        records.append(adjusted_profile(inst, allocation).to_json_dict())
        records.append(envy_graph(inst, allocation).to_json_dict())
    text = json.dumps(records, sort_keys=True)
    assert len(records) == 3 * 5 * 8 * 4 * 6
    assert hashlib.blake2b(text.encode(), digest_size=16).hexdigest() == "4bc7bb4c77f6e2f223e88afb3eeb978c"
