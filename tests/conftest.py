import random
import sys

# no bytecode from the package or the test helpers: a test run leaves the
# source tree as it found it
sys.dont_write_bytecode = True

from pathlib import Path

import pytest
from hypothesis import configuration, settings

sys.path.insert(0, str(Path(__file__).parent))

from matlift import minors, quotient
from matlift.enumeration import enumerate_matroids, random_matroid
from matlift.sets import SetFamily

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
def catalogs():
    """All labelled matroids on 1..5 elements, extension route."""
    return {n: enumerate_matroids(n) for n in range(1, 6)}


@pytest.fixture(scope="session")
def catalog_6():
    """All 3,807 labelled matroids on 6 elements, extension route."""
    return enumerate_matroids(6)


@pytest.fixture(scope="session")
def catalog_7():
    """All 75,164 labelled matroids on 7 elements, extension route."""
    return enumerate_matroids(7)


@pytest.fixture(scope="session")
def circuit_catalogs():
    """All labelled matroids on 1..5 elements, circuit route."""
    return {n: enumerate_matroids(n, "circuit") for n in range(1, 6)}


@pytest.fixture(scope="session")
def draws():
    """200 seeded random matroids on 6-10 elements, past the catalogs."""
    rng = random.Random(19)
    return [random_matroid(rng, 6 + k % 5) for k in range(200)]


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
def skewed_stage_two(monkeypatch):
    """The closed-form family at j = 2 comes out empty, so the formula route's
    stage 1 of a two-step pair is free, one rank too high."""
    family = quotient._remark_family

    def skewed(m, l, j):
        return SetFamily() if j == 2 else family(m, l, j)

    monkeypatch.setattr(quotient, "_remark_family", skewed)


@pytest.fixture
def stage_two_not_a_matroid(monkeypatch):
    """The closed-form family at j = 2 is {a,b}, {b,c}, which fails weak
    elimination at b, so stage 1 of a two-step pair on a, b, c is no matroid."""
    family = quotient._remark_family

    def broken(m, l, j):
        return SetFamily([0b011, 0b110]) if j == 2 else family(m, l, j)

    monkeypatch.setattr(quotient, "_remark_family", broken)


@pytest.fixture
def loops2():
    return mk(2, "a", "b")
