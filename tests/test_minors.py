"""Deletion and contraction against first-principles definitions."""

import pytest

from matlift import minors
from matlift.errors import DeletesEverything
from matlift.matroid import Matroid
from matlift.minors import contract, delete
from matlift.sets import compress

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


def test_duality_exchanges_the_two_minors():
    minors.CROSS_CHECK = False
    try:
        for m in (mk(3, "ab", "ac", "bc"), mk(3, "abc"), mk(3, "a", "bc")):
            for z in (0b001, 0b010, 0b110):
                via_dual = delete(m.dual(), z).dual()
                assert contract(m, z) == via_dual
    finally:
        minors.CROSS_CHECK = True


def test_cross_check_reads_the_kept_dual():
    # a wrong dual planted in the slot must make the second route disagree
    assert minors.CROSS_CHECK
    m = mk(3, "ab", "ac", "bc")
    m._dual = mk(3, "ab")  # the true dual has the one circuit abc
    with pytest.raises(AssertionError, match="contraction routes disagree"):
        contract(m, 0b100)


def test_cannot_remove_the_whole_ground(u13):
    with pytest.raises(DeletesEverything):
        delete(u13, 0b111)
    with pytest.raises(DeletesEverything):
        contract(u13, 0b111)
