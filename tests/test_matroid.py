"""Matroid core: rank, duals, fundamental circuits, cyclic sets.

Rank and bases are cross-checked against the brute-force oracle in helpers,
which knows nothing about the greedy implementation.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matlift.errors import GroundTooLarge, NotAMatroid, PreconditionFailure
from matlift import matroid
from matlift.enumeration import enumerate_matroids, random_matroid
from matlift.matroid import (
    CYCLIC_ENUM_CAP,
    SUBSET_TABLE_CAP,
    Matroid,
    free_matroid,
    uniform_matroid,
)
from matlift.sets import GroundSet, SetFamily, default_ground

from helpers import (
    brute_bases,
    brute_cyclic_sets,
    brute_cyclic_sets_by_nullity,
    brute_dual,
    brute_independent,
    brute_rank,
    mk,
    submasks,
)

CAT4 = enumerate_matroids(4).entries


def test_constructor_rejects_non_matroids():
    # one error type for every failed axiom; it carries the checker's report
    # and says what check_circuit_axioms' report says
    g = default_ground(3)
    for circuits, axiom, message in (
        ([0], "AC0", "AC0 violated"),
        ([0b001, 0b011], "AC1", "AC1 violated at {a}, {a,b}"),
        ([0b011, 0b101], "AC2", "AC2 violated at {a,b}, {a,c}, element a"),
    ):
        with pytest.raises(NotAMatroid) as info:
            Matroid(g, circuits)
        assert info.value.report.violation.axiom == axiom
        assert str(info.value) == message


def test_trusted_takes_the_family_unchecked(u13):
    m = Matroid._trusted(u13.ground, u13.circuits)
    assert m == u13 and m.circuits is u13.circuits
    assert m.rank() == 1
    # no check runs: a family that fails elimination goes through
    bad = SetFamily([0b011, 0b101])
    assert Matroid._trusted(u13.ground, bad).circuits is bad


def test_rank_against_oracle_everywhere():
    for m in enumerate_matroids(3).entries:
        for a in range(8):
            assert m.rank(a) == brute_rank(m, a)
        assert m.rank() == brute_rank(m)


@given(st.sampled_from(CAT4), st.integers(0, 15))
@settings(max_examples=200)
def test_rank_against_oracle_sampled(m, a):
    assert m.rank(a) == brute_rank(m, a)


def test_greedy_extends_every_independent_start(catalogs):
    # every independent start inside a grows to a basis of a, judged by the
    # brute-force oracle
    for n in range(1, 5):
        for m in catalogs[n].entries:
            for a in range(1 << n):
                rank = brute_rank(m, a)
                for start in submasks(a):
                    if not brute_independent(m.circuits, start):
                        continue
                    picked = m.max_independent(a, start)
                    assert picked & start == start and picked & ~a == 0
                    assert brute_independent(m.circuits, picked)
                    assert picked.bit_count() == rank


def test_independence_kernel_against_oracles_past_the_catalogs():
    # 48 seeded draws on 6-8 elements, the densest with 29 circuits and one
    # element on 20 of them; every answer of the rank layer is judged by the
    # brute-force oracles
    rng = random.Random(22)
    for k in range(48):
        m = random_matroid(rng, 6 + k % 3)
        n = len(m.ground)
        cyclic = brute_cyclic_sets(m)
        for a in range(1 << n):
            rank = brute_rank(m, a)
            assert m.rank(a) == rank
            assert m.is_dependent(a) is not brute_independent(m.circuits, a)
            assert m.is_cyclic(a) is (a in cyclic)
            assert m.cyclic_part(a) == SetFamily(c for c in cyclic if c & ~a == 0).union_mask
            for start in submasks(a):
                if brute_independent(m.circuits, start):
                    picked = m.max_independent(a, start)
                    assert picked & start == start and picked & ~a == 0
                    assert brute_independent(m.circuits, picked)
                    assert picked.bit_count() == rank
        bases = brute_bases(m)
        assert sorted(m.bases()) == sorted(bases)
        for b in bases:
            for x in range(n):
                if b >> x & 1 == 0:
                    grown = b | 1 << x
                    exchanged = (1 << f for f in range(n) if b >> f & 1
                                 and brute_independent(m.circuits, grown & ~(1 << f)))
                    assert m.fundamental_circuit(b, x) == sum(exchanged, 1 << x)


def test_dual_involution_and_rank_formula(catalogs):
    for n in range(1, 6):
        for m in catalogs[n].entries:
            d = m.dual()
            assert d.dual() == m
            assert d.rank() == len(m.ground) - m.rank()


def test_dual_does_not_point_back(catalogs):
    for m in catalogs[4].entries:
        d = m.dual()
        assert d.dual() == m
        assert d.dual() is not m


def test_dual_bases_are_complements(catalogs):
    for n in range(1, 6):
        for m in catalogs[n].entries:
            full = m.ground.full_mask
            assert sorted(b ^ full for b in brute_bases(m)) == sorted(brute_bases(m.dual()))


def test_dual_against_oracle_past_the_catalogs(draws):
    g = default_ground(8)
    for m in draws + [uniform_matroid(g, 0), free_matroid(g)]:
        assert m.dual().circuits == brute_dual(m)


def test_bases_against_oracle():
    for m in enumerate_matroids(3).entries:
        assert sorted(m.bases()) == sorted(brute_bases(m))


def test_fundamental_circuit_is_unique_and_contains_x(u13):
    c = u13.fundamental_circuit(0b001, 1)  # add b to {a}
    assert c == 0b011
    with pytest.raises(PreconditionFailure, match=r"^\{a,b\} is not independent$"):
        u13.fundamental_circuit(0b011, 2)
    with pytest.raises(PreconditionFailure, match="^element a is already in the set$"):
        u13.fundamental_circuit(0b001, 0)
    f = free_matroid(default_ground(2))
    with pytest.raises(PreconditionFailure, match=r"^\{a\} stays independent with b$"):
        f.fundamental_circuit(0b01, 1)


def test_fundamental_family_partitions_roots(u23):
    assert u23.fundamental_family(0b011, 0b100) == {2: 0b111}
    with pytest.raises(PreconditionFailure):
        u23.fundamental_family(0b011, 0b110)  # root b lies in {a,b}


@pytest.fixture(scope="module")
def cyclic_draws():
    """30 seeded random matroids on 7-9 elements."""
    return [random_matroid(random.Random(seed), 7 + seed % 3) for seed in range(30)]


def test_cyclic_sets_match_union_closure(catalogs, cyclic_draws):
    entries = [m for n in range(1, 6) for m in catalogs[n].entries]
    for m in entries + cyclic_draws:
        assert set(m.cyclic_sets()) == brute_cyclic_sets(m), m


def test_cyclic_nullity_filter(u13):
    assert set(u13.cyclic_sets(nullity=0)) == {0}
    assert set(u13.cyclic_sets(nullity=1)) == {0b011, 0b101, 0b110}
    assert set(u13.cyclic_sets(nullity=2)) == {0b111}
    assert set(u13.cyclic_sets(nullity=3)) == set()


def _assert_cyclic_sets_by_nullity(m):
    expected = brute_cyclic_sets_by_nullity(m)
    levels = [set(m.cyclic_sets(nullity=k)) for k in range(len(m.ground) + 1)]
    for k, level in enumerate(levels):
        assert level == expected.get(k, set()), (m, k)
    # the levels are kept once grown; a fresh copy asked from the top level
    # down, then unfiltered, must give the same sets in any fill order
    fresh = Matroid(m.ground, m.circuits)
    for k in reversed(range(len(m.ground) + 1)):
        assert set(fresh.cyclic_sets(nullity=k)) == levels[k], (m, k)
    if len(m.ground) <= CYCLIC_ENUM_CAP:
        assert set().union(*levels) == set(m.cyclic_sets()) == set(fresh.cyclic_sets()), m


def test_cyclic_nullity_filter_on_the_catalogs(catalogs):
    for n in range(1, 6):
        for m in catalogs[n].entries:
            _assert_cyclic_sets_by_nullity(m)


def test_cyclic_nullity_filter_on_random_matroids(cyclic_draws):
    for m in cyclic_draws:
        _assert_cyclic_sets_by_nullity(m)


def test_cyclic_nullity_filter_above_the_scan_cap():
    # U(1,3) + U(2,4) + U(1,2) + U(3,5) + three coloops: 17 elements, above
    # the cap of the unfiltered listing, which the filtered growth ignores
    m = mk(
        tuple("abcdefghijklmnopq"),
        "ab", "ac", "bc",
        "def", "deg", "dfg", "efg",
        "hi",
        "jklm", "jkln", "jkmn", "jlmn", "klmn",
    )
    _assert_cyclic_sets_by_nullity(m)


def test_cyclic_nullity_strictly_monotone(catalogs):
    # a proper subset of a cyclic set always has smaller nullity
    for n in range(1, 5):
        for m in catalogs[n].entries:
            for big in m.cyclic_sets():
                if big == 0:
                    continue
                cb = m.nullity(big)
                for small in m.cyclic_sets():
                    if small != big and small & ~big == 0:
                        assert m.nullity(small) < cb


def test_large_ground_requires_nullity_filter():
    g = GroundSet(tuple(f"e{i}" for i in range(17)))
    f = free_matroid(g)
    with pytest.raises(GroundTooLarge):
        f.cyclic_sets()
    assert set(f.cyclic_sets(nullity=0)) == {0}
    assert set(f.cyclic_sets(nullity=1)) == set()


def test_subset_tables_refuse_large_grounds(monkeypatch):
    g = GroundSet(tuple(f"e{i}" for i in range(SUBSET_TABLE_CAP + 1)))
    f = free_matroid(g)

    def no_work(*args, **kwargs):
        raise AssertionError("the cap must be checked before any work starts")

    monkeypatch.setattr(matroid, "masks_of_size", no_work)
    with pytest.raises(GroundTooLarge):
        f.bases()
    with pytest.raises(GroundTooLarge):
        f.dual()
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(GroundTooLarge):
        random_matroid(rng, g)
    assert rng.getstate() == state


def test_loops_and_nullity(loops2):
    assert loops2.rank() == 0
    assert loops2.nullity(0b11) == 2


def test_from_bases_round_trip(catalogs, draws):
    for m in [m for n in range(1, 6) for m in catalogs[n].entries] + draws:
        assert Matroid.from_bases(m.ground, brute_bases(m)) == m
    for n, bases, message in (
        (4, [0b0011, 0b1100], "AB2 violated at {a,b}, {c,d}, element a"),
        (3, [], "AB0 violated"),
        (3, [0b001, 0b011], "AB1 violated at {a}, {a,b}"),
    ):
        with pytest.raises(NotAMatroid) as info:
            Matroid.from_bases(default_ground(n), bases)
        assert str(info.value) == message


def test_from_bases_takes_the_largest_grounds():
    g = GroundSet(tuple(f"e{i}" for i in range(24)))
    assert Matroid.from_bases(g, [g.full_mask]) == free_matroid(g)
    assert Matroid.from_bases(g, [0]) == uniform_matroid(g, 0)


def test_uniform_and_free_constructors():
    g = default_ground(4)
    u = uniform_matroid(g, 2)
    assert u.rank() == 2
    assert all(c.bit_count() == 3 for c in u.circuits)
    assert free_matroid(g).circuits.members == ()
    assert uniform_matroid(g, 0).circuits.members == (1, 2, 4, 8)
    assert uniform_matroid(g, 4) == free_matroid(g)


def test_spanning_iff_complement_coindependent():
    for m in CAT4:
        dual = m.dual()
        for a in range(16):
            spanning = m.rank(a) == m.rank()
            assert spanning == dual.is_independent(m.ground.full_mask & ~a)
