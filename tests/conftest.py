import pytest

from propm import Instance, make_counterexample
from propm.cpsets import _best_subset


@pytest.fixture(autouse=True)
def cold_cp_memo():
    """Start and end every test with an empty CP memo.

    Tests that patch the kernel or the strategy limits then never see a
    result computed before the patch.
    """
    _best_subset.cache_clear()
    yield
    _best_subset.cache_clear()


@pytest.fixture(scope="session")
def i_cp() -> Instance:
    """Single agent, values 40/30/20/10: the classic CP tie-break example."""
    return Instance.of([[40, 30, 20, 10]])


@pytest.fixture(scope="session")
def i_eps() -> Instance:
    """Three identical agents, one item worth 94 and six worth 1 (total 100)."""
    return make_counterexample(100)


@pytest.fixture(scope="session")
def i_2a() -> Instance:
    """Two agents with opposed preferences over two items."""
    return Instance.of([[60, 40], [10, 90]])
