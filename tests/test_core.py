import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propm import (
    Allocation,
    Bundle,
    InputError,
    Instance,
    Notion,
    ResourceBudgetError,
    check,
    exists,
    implication_audit,
    leximin_max,
    mms_value,
    value_of,
)


def test_value_of_direct_sum(i_cp):
    assert value_of(i_cp, 0, Bundle.of({0, 3})) == 50


def test_value_of_empty_bundle(i_cp):
    assert value_of(i_cp, 0, Bundle()) == 0


def test_value_of_eps_ones(i_eps):
    assert value_of(i_eps, 1, Bundle.of({1, 2, 3})) == 3


def test_value_of_bad_agent(i_cp):
    with pytest.raises(InputError):
        value_of(i_cp, 1, Bundle())


def test_value_of_bad_item(i_cp):
    with pytest.raises(InputError):
        value_of(i_cp, 0, Bundle.of({4}))


def test_bundle_rejects_duplicates_and_disorder():
    with pytest.raises(InputError):
        Bundle((2, 1))
    with pytest.raises(InputError):
        Bundle((1, 1))
    assert Bundle.of([3, 1, 1]).items == (1, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Bundle((-2, 1)),
        lambda: Bundle((-1,)),
        lambda: Allocation.from_json_dict({"bundles": [[-2, 1], [0]]}),
    ],
    ids=["bundle", "lone-item", "allocation-json"],
)
def test_negative_item_indices_are_refused_as_negative(build):
    with pytest.raises(InputError, match="item indices must be non-negative"):
        build()


def test_check_refuses_an_item_past_m(i_2a):
    with pytest.raises(InputError, match="item index 5 out of range for m=2"):
        check(i_2a, Allocation.of([[0, 5], [1]]), Notion.PROPM)


def test_allocation_completeness(i_2a):
    Allocation.of([[0], [1]]).validate_for(i_2a)
    with pytest.raises(InputError):
        Allocation.of([[0], []]).validate_for(i_2a)  # item 1 missing
    with pytest.raises(InputError):
        Allocation.of([[0, 1], [1]]).validate_for(i_2a)  # item 1 twice
    with pytest.raises(InputError):
        Allocation.of([[0, 1]]).validate_for(i_2a)  # wrong bundle count


def test_instance_validation():
    with pytest.raises(InputError):
        Instance.of([])
    with pytest.raises(InputError):
        Instance.of([[1, 2], [3]])
    with pytest.raises(InputError):
        Instance(((1, -2),))


_NON_INT_CELLS = [1.9, 2.0, "2", True, float("nan"), float("inf")]


@pytest.mark.parametrize("cell", _NON_INT_CELLS, ids=repr)
def test_instance_cells_are_not_coerced(cell):
    with pytest.raises(InputError, match="must be integers"):
        Instance.of([[1, 1, 1], [1, cell, 1]])
    with pytest.raises(InputError, match="must be integers"):
        Instance.from_json_dict({"n": 1, "m": 2, "values": [[cell, 1]]})


@pytest.mark.parametrize("rows", [None, 5, [1, 2], [[1], None]], ids=repr)
def test_instance_rows_must_be_lists(rows):
    with pytest.raises(InputError):
        Instance.of(rows)


@pytest.mark.parametrize(
    "bundles",
    [[[[0]], [1, 2]], [[0], 1], [[0, "a"], [1]], [[0, 0], [1]], [[0], [2, 1, 2]], [{}, [0, 1]], ["", [0, 1]]],
    ids=repr,
)
def test_bundles_must_be_lists_of_indices(bundles):
    with pytest.raises(InputError):
        Allocation.from_json_dict({"bundles": bundles})


@pytest.mark.parametrize("n, m", [(True, 2), (1.0, 2.0), (1, 2.0)], ids=repr)
def test_instance_header_must_be_ints(n, m):
    with pytest.raises(InputError, match="'n' and 'm' must be integers"):
        Instance.from_json_dict({"n": n, "m": m, "values": [[1, 2]]})


def test_totals_cached(i_eps):
    assert i_eps.totals == (100, 100, 100)


# n^m = 8: every allocation-budget guard passes at budget 8 and refuses at 7.
_SCANS = {
    "exists": lambda inst, b: exists(inst, Notion.PROPM, budget=b),
    "implication_audit": lambda inst, b: implication_audit(inst, budget=b),
    "leximin_max": lambda inst, b: leximin_max(inst, budget=b),
    "mms_value": lambda inst, b: mms_value(inst, 0, budget=b),
}


@pytest.mark.parametrize("scan", sorted(_SCANS))
def test_allocation_budget_boundary(scan):
    inst = Instance.of([[3, 1, 2], [1, 2, 3]])
    _SCANS[scan](inst, inst.n**inst.m)
    with pytest.raises(ResourceBudgetError, match="needs 8 allocations, budget is 7"):
        _SCANS[scan](inst, inst.n**inst.m - 1)


@pytest.mark.parametrize("budget", [True, False, 2.5, 8.0, "8", 0, -1], ids=repr)
@pytest.mark.parametrize("scan", sorted(_SCANS))
def test_budget_must_be_a_positive_int(scan, budget):
    # A bool is not a budget (True would allow one allocation), nor is a float.
    with pytest.raises(InputError, match="budget must be a positive int"):
        _SCANS[scan](Instance.of([[3, 1, 2], [1, 2, 3]]), budget)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Bundle([0]),
        lambda: Allocation([Bundle((0,))]),
        lambda: Instance([(3, 1, 2)]),
        lambda: Instance(([3, 1, 2], [2, 2, 2])),
    ],
    ids=["bundle-list", "allocation-list", "instance-list", "instance-list-rows"],
)
def test_data_classes_refuse_lists(build):
    # A list-built Bundle never equals its tuple twin, and list rows are unhashable.
    with pytest.raises(InputError, match=r"must be a tuple, not list; use \w+\.of"):
        build()


@pytest.mark.parametrize("bundle", [(1, 2), [1, 2], None], ids=["tuple", "list", "none"])
def test_allocation_refuses_elements_that_are_not_bundles(bundle):
    # Anything but a Bundle would fail later, on a missing attribute inside check.
    inst = Instance.of([[3, 1, 2], [2, 2, 2]])
    kind = type(bundle).__name__
    with pytest.raises(InputError, match=rf"must be a Bundle, not {kind}; use Allocation\.of"):
        check(inst, Allocation((Bundle((0,)), bundle)), Notion.PROPM)
    assert check(inst, Allocation.of([[0], [1, 2]]), Notion.PROPM).all_satisfied


def test_instance_json_round_trip(i_eps):
    assert Instance.from_json_dict(i_eps.to_json_dict()) == i_eps
    with pytest.raises(InputError):
        Instance.from_json_dict({"n": 2, "m": 7, "values": i_eps.to_json_dict()["values"]})


def test_allocation_json_round_trip():
    allocation = Allocation.of([[0, 2], [], [1]])
    assert Allocation.from_json_dict(allocation.to_json_dict()) == allocation


@settings(max_examples=60)
@given(data=st.data())
def test_additivity_over_disjoint_bundles(data):
    m = data.draw(st.integers(min_value=0, max_value=8))
    row = data.draw(st.lists(st.integers(0, 50), min_size=m, max_size=m))
    inst = Instance.of([row])
    items = list(range(m))
    left = set(data.draw(st.lists(st.sampled_from(items), unique=True))) if m else set()
    rest = [j for j in items if j not in left]
    right = set(data.draw(st.lists(st.sampled_from(rest), unique=True))) if rest else set()
    a, b = Bundle.of(left), Bundle.of(right)
    union = Bundle.of(a.items + b.items)
    assert value_of(inst, 0, union) == value_of(inst, 0, a) + value_of(inst, 0, b)
