import pytest
from hypothesis import settings

from hashbound import optimize, presets
from hashbound.combiner import full_bound

settings.register_profile("repro", deadline=None, derandomize=True)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def partition_report():
    """Memoized default pipeline runs for the preset (b,k) pairs.

    The heavy engine runs are shared across acceptance criteria and module
    tests; everything downstream (cell grids, combined form bounds, rates)
    reads from the same report.
    """
    cache: dict[tuple[int, int], object] = {}

    def get(b, k):
        if (b, k) not in cache:
            pre = presets.PARTITION_PRESETS[(b, k)]
            cache[(b, k)] = full_bound(b, k, pre.j, pre.spec())
        return cache[(b, k)]

    return get


@pytest.fixture(autouse=True)
def fresh_global_maxima(monkeypatch):
    """Each test starts with an empty memo of global maxima, so a test that
    counts searches does not depend on which tests ran before it."""
    monkeypatch.setattr(optimize, "_GLOBAL_MAXIMA", {})
