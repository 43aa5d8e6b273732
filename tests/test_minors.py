"""Deletion and contraction against first-principles definitions."""

import random

import pytest

from matlift import matroid, minors
from matlift.axioms import check_circuit_axioms
from matlift.errors import PreconditionFailure
from matlift.matroid import Matroid
from matlift.minors import contract, delete
from matlift.sets import GroundSet, SetFamily, compress, minimal_members

from helpers import brute_rank, mk


def _brute_contract(m, z):
    """Contraction via the rank definition: independents of M/Z are the sets
    I disjoint from Z with rank(I + Z) = |I| + rank(Z)."""
    keep = m.ground.full_mask & ~z
    small = m.ground.restrict(keep)
    rz = brute_rank(m, z)
    independents = set()
    sub = keep
    while True:
        if brute_rank(m, sub | z) == sub.bit_count() + rz:
            independents.add(compress(sub, keep))
        if sub == 0:
            break
        sub = (sub - 1) & keep
    size = 1 << len(small)
    deps = [mask for mask in range(size) if mask not in independents]
    circuits = [
        d
        for d in deps
        if all(d & ~(1 << i) in independents for i in range(len(small)) if d >> i & 1)
    ]
    return Matroid(small, circuits)


def test_delete_keeps_inner_circuits(u13):
    d = delete(u13, 0b100)
    assert d.ground.labels == ("a", "b")
    assert d.circuits.members == (0b11,)


def test_contract_collapses_rank(u13):
    c = contract(u13, 0b100)
    assert c.rank() == 0
    assert c.circuits.members == (0b01, 0b10)


def test_contract_matches_rank_definition(catalogs):
    for n in range(2, 5):
        for m in catalogs[n].entries:
            for z in range(1, 1 << n):
                if z == m.ground.full_mask:
                    continue
                assert contract(m, z) == _brute_contract(m, z)


def test_minors_are_canonical_families(catalogs):
    # delete and minimal_members skip the sort, since filtering and compress
    # keep canonical order; the checking constructor must agree
    for n in range(1, 5):
        for m in catalogs[n].entries:
            assert minimal_members(m.circuits) == SetFamily(m.circuits.members)
            for z in range(1, m.ground.full_mask):
                keep = m.ground.full_mask & ~z
                traces = {compress(c & keep, keep) for c in m.circuits} - {0}
                least = SetFamily(
                    t for t in traces if not any(u != t and u & ~t == 0 for u in traces)
                )
                assert minimal_members(traces) == least
                for minor in (delete(m, z), contract(m, z)):
                    assert minor.circuits == SetFamily(minor.circuits.members)
                    assert minor.ground == GroundSet(m.ground.labels_of(keep))
                assert delete(m, z).circuits == SetFamily(
                    compress(c, keep) for c in m.circuits if c & z == 0
                )
                assert contract(m, z).circuits == least


def test_minor_rank_formulas(catalogs):
    for m in catalogs[4].entries:
        for z in range(1, 15):
            keep = m.ground.full_mask & ~z
            assert contract(m, z).rank() == m.rank() - m.rank(z)
            assert delete(m, z).rank() == m.rank(keep)


def test_delete_contract_commute_on_disjoint_parts(catalogs):
    for m in catalogs[4].entries:
        d_mask, c_mask = 0b0001, 0b0100
        a = contract(delete(m, d_mask), 0b010)  # c sits at bit 1 after deleting a
        b = delete(contract(m, c_mask), 0b001)  # a still at bit 0 after contracting c
        assert a == b


def test_duality_exchanges_the_two_minors(monkeypatch, catalogs, draws):
    # N/z = (N* \ z)* apart from the cross-check, and the circuit check that
    # minors and duals skip passes on each of them; the catalogs hold every
    # matroid on up to 4 elements, so every z is tried
    monkeypatch.setattr(minors, "CROSS_CHECK", False)
    rng = random.Random(21)
    cases = [(m, z) for n in range(1, 5) for m in catalogs[n].entries
             for z in range(1, m.ground.full_mask)]
    cases += [(m, rng.randrange(1, m.ground.full_mask)) for m in draws for _ in range(3)]
    assert len(cases) == 1058 + 600
    for m, z in cases:
        contracted, deleted, dual = contract(m, z), delete(m, z), m.dual()
        for minor in (contracted, deleted, dual):
            assert check_circuit_axioms(minor.ground, minor.circuits).passed
        assert contracted == delete(dual, z).dual()


def test_minors_and_duals_run_no_circuit_check(monkeypatch, catalogs):
    # a minor or dual of a matroid is one, so neither is checked again
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return check_circuit_axioms(*args, **kwargs)

    monkeypatch.setattr(matroid, "check_circuit_axioms", counted)
    for m in catalogs[3].entries:
        for z in range(1, m.ground.full_mask):
            delete(m, z), contract(m, z), m.dual()
    assert calls == []
    Matroid(m.ground, m.circuits)  # the constructor still checks its input
    assert len(calls) == 1


def test_cross_check_disagrees_on_a_wrong_basis_family(monkeypatch):
    # U(1,3) has bases a, b and c; with only a, the second route makes b a loop
    assert minors.CROSS_CHECK
    monkeypatch.setattr(Matroid, "bases", lambda self: SetFamily([0b001]))
    with pytest.raises(AssertionError, match="contraction routes disagree"):
        contract(mk(3, "ab", "ac", "bc"), 0b100)


def test_cannot_remove_the_whole_ground(u13):
    with pytest.raises(PreconditionFailure, match="a minor must keep at least one element"):
        delete(u13, 0b111)
    with pytest.raises(PreconditionFailure, match="a minor must keep at least one element"):
        contract(u13, 0b111)
