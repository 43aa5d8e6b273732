"""Matroid core: rank, duals, fundamental circuits, cyclic sets.

Rank and bases are cross-checked against the brute-force oracle in helpers,
which knows nothing about the greedy implementation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matlift.errors import (
    EliminationFailure,
    ExchangeFailure,
    GroundTooLarge,
    NotClutter,
    NotIndependent,
    PreconditionFailure,
    StillIndependent,
)
from matlift.enumeration import enumerate_matroids
from matlift.matroid import Matroid, free_matroid, minimal_dependent_sets, uniform_matroid
from matlift.sets import GroundSet, SetFamily, default_ground

from helpers import (
    brute_bases,
    brute_cyclic_sets,
    brute_independent,
    brute_rank,
    mk,
)

CAT4 = enumerate_matroids(4).entries


def test_constructor_rejects_non_matroids():
    g = default_ground(3)
    with pytest.raises(NotClutter):
        Matroid(g, [0b001, 0b011])
    with pytest.raises(EliminationFailure):
        Matroid(g, [0b011, 0b101])


def test_rank_against_oracle_everywhere():
    for m in enumerate_matroids(3).entries:
        for a in range(8):
            assert m.rank(a) == brute_rank(m, a)
        assert m.rank() == brute_rank(m)


@given(st.sampled_from(CAT4), st.integers(0, 15))
@settings(max_examples=200)
def test_rank_against_oracle_sampled(m, a):
    assert m.rank(a) == brute_rank(m, a)


@given(st.sampled_from(CAT4), st.integers(0, 15), st.permutations(list(range(4))))
@settings(max_examples=200)
def test_greedy_order_never_changes_the_rank(m, a, order):
    picked = m.max_independent(a, order=order)
    assert m.is_independent(picked)
    assert picked.bit_count() == m.rank(a)


def test_dual_involution_and_rank_formula(basis_catalogs):
    for n in range(1, 6):
        for m in basis_catalogs[n].entries:
            d = m.dual()
            assert d.dual() == m
            assert d.rank() == len(m.ground) - m.rank()


def test_dual_bases_are_complements(basis_catalogs):
    for n in range(1, 6):
        for m in basis_catalogs[n].entries:
            full = m.ground.full_mask
            assert sorted(b ^ full for b in brute_bases(m)) == sorted(brute_bases(m.dual()))


def test_minimal_dependent_sets_are_the_circuits(basis_catalogs):
    for n in range(1, 5):
        for m in basis_catalogs[n].entries:
            assert minimal_dependent_sets(m.ground, m.is_dependent) == sorted(m.circuits)


def test_bases_against_oracle():
    for m in enumerate_matroids(3).entries:
        assert sorted(m.bases()) == sorted(brute_bases(m))


def test_fundamental_circuit_is_unique_and_contains_x(u13):
    c = u13.fundamental_circuit(0b001, 1)  # add b to {a}
    assert c == 0b011
    with pytest.raises(NotIndependent):
        u13.fundamental_circuit(0b011, 2)
    with pytest.raises(PreconditionFailure):
        u13.fundamental_circuit(0b001, 0)
    f = free_matroid(default_ground(2))
    with pytest.raises(StillIndependent):
        f.fundamental_circuit(0b01, 1)


def test_fundamental_family_partitions_roots(u23):
    fam = u23.fundamental_family(0b011, 0b100)
    assert fam.roots == 0b100
    assert fam.circuits[2] == 0b111
    assert fam.size == 1
    assert fam.union_mask == 0b111


def test_cyclic_sets_match_union_closure():
    for m in enumerate_matroids(3).entries:
        assert set(m.cyclic_sets()) == brute_cyclic_sets(m)


def test_cyclic_nullity_filter(u13):
    assert set(u13.cyclic_sets(nullity=0)) == {0}
    assert set(u13.cyclic_sets(nullity=1)) == {0b011, 0b101, 0b110}
    assert set(u13.cyclic_sets(nullity=2)) == {0b111}
    assert set(u13.cyclic_sets(nullity=3)) == set()


def test_cyclic_nullity_strictly_monotone(basis_catalogs):
    # a proper subset of a cyclic set always has smaller nullity
    for n in range(1, 5):
        for m in basis_catalogs[n].entries:
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


def test_loops_and_nullity(loops2):
    assert loops2.loops() == 0b11
    assert loops2.rank() == 0
    assert loops2.nullity(0b11) == 2


def test_from_bases_round_trip():
    for m in enumerate_matroids(3).entries:
        rebuilt = Matroid.from_bases(m.ground, m.bases())
        assert rebuilt == m
    with pytest.raises(ExchangeFailure):
        Matroid.from_bases(default_ground(4), [0b0011, 0b1100])


def test_uniform_and_free_constructors():
    g = default_ground(4)
    u = uniform_matroid(g, 2)
    assert u.rank() == 2
    assert all(c.bit_count() == 3 for c in u.circuits)
    assert free_matroid(g).circuits.members == ()
    assert uniform_matroid(g, 0).circuits.members == (1, 2, 4, 8)


def test_restriction_circuits(u13):
    sub = u13.restriction_circuits(0b011)
    assert sub.members == (0b011,)


def test_spanning_iff_complement_coindependent():
    for m in CAT4:
        dual = m.dual()
        for a in range(16):
            spanning = m.rank(a) == m.rank()
            assert spanning == dual.is_independent(m.ground.full_mask & ~a)
