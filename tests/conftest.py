import sys
from pathlib import Path

import pytest
from hypothesis import configuration, settings

sys.path.insert(0, str(Path(__file__).parent))

from matlift import minors
from matlift.enumeration import enumerate_matroids

from helpers import mk

# no example database: a test run leaves nothing behind to replay
settings.register_profile("matlift", database=None)
settings.load_profile("matlift")


def pytest_sessionstart(session):
    # Hypothesis caches source constants under its home directory, ./.hypothesis
    # by default, already during collection, where fixtures have not run yet;
    # keep it in pytest's temp area, the one tmp_path_factory hands out
    factory = session.config._tmp_path_factory
    configuration.set_hypothesis_home_dir(factory.mktemp("hypothesis"))


@pytest.fixture(scope="session", autouse=True)
def _cross_checked_minors():
    # run the whole suite with the dual-route contraction check enabled
    old = minors.CROSS_CHECK
    minors.CROSS_CHECK = True
    yield
    minors.CROSS_CHECK = old


@pytest.fixture(scope="session")
def basis_catalogs():
    """All labelled matroids on 1..5 elements, basis route."""
    return {n: enumerate_matroids(n, "basis") for n in range(1, 6)}


@pytest.fixture(scope="session")
def circuit_catalogs():
    """All labelled matroids on 1..5 elements, circuit route."""
    return {n: enumerate_matroids(n, "circuit") for n in range(1, 6)}


@pytest.fixture
def u13():
    return mk(3, "ab", "ac", "bc")


@pytest.fixture
def u23():
    return mk(3, "abc")


@pytest.fixture
def f3():
    return mk(3)


@pytest.fixture
def loops2():
    return mk(2, "a", "b")
