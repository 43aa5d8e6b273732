"""Catalogs, brute-force witness search, pair records, random instances.

The labelled counts 2, 5, 16, 68, 406 act as a fixed point: two unrelated
enumeration routes must reproduce them exactly.
"""

import random

import pytest

from matlift.enumeration import (
    MatroidCatalog,
    all_witnesses,
    enumerate_matroids,
    pair_records,
    random_matroid,
    random_quotient_pair,
    witness_search,
)
from matlift.errors import GroundTooLarge, LabelClash
from matlift.quotient import certify_quotient, lift_witness
from matlift.textio import parse_pair_line

from helpers import mk

KNOWN_COUNTS = {1: 2, 2: 5, 3: 16, 4: 68, 5: 406}


def test_basis_route_counts(basis_catalogs):
    for n, want in KNOWN_COUNTS.items():
        assert len(basis_catalogs[n]) == want


def test_circuit_route_counts(circuit_catalogs):
    for n in range(1, 5):
        assert len(circuit_catalogs[n]) == KNOWN_COUNTS[n]


def test_routes_agree(basis_catalogs, circuit_catalogs):
    for n in range(1, 5):
        assert [m.circuits for m in basis_catalogs[n].entries] == [
            m.circuits for m in circuit_catalogs[n].entries
        ]


def test_catalog_order_is_stable_and_indexable(basis_catalogs):
    cat = basis_catalogs[3]
    again = enumerate_matroids(3)
    assert [m.circuits for m in cat.entries] == [m.circuits for m in again.entries]
    for i, m in enumerate(cat.entries):
        assert cat.index_of(m) == i


def test_enumeration_caps():
    with pytest.raises(GroundTooLarge):
        enumerate_matroids(7, "basis")
    with pytest.raises(GroundTooLarge):
        enumerate_matroids(5, "circuit")
    with pytest.raises(ValueError):
        enumerate_matroids(3, "magic")
    with pytest.raises(GroundTooLarge):
        pair_records(6)


def test_witness_search_finds_the_constructed_witness(u13, u23):
    found = witness_search(u13, u23)
    built = lift_witness(u13, u23, ("x",)).n
    assert found == built
    assert all_witnesses(u13, u23) == [built]


def test_witness_search_direction_matters(u13, u23):
    assert witness_search(u23, u13) is None
    assert all_witnesses(u23, u13) == []


def test_witness_search_label_hygiene(u13, u23):
    with pytest.raises(LabelClash):
        witness_search(u13, u23, x_label="a")
    with pytest.raises(LabelClash):
        witness_search(u13, mk(2, "ab"))


def test_pair_records_shape(basis_catalogs):
    cat = basis_catalogs[2]
    records = pair_records(cat)
    assert len(records) == 25
    certified = [r for r in records if r.quotient]
    assert len(certified) == 12
    for r in records:
        m, l = cat.entries[r.idx_m], cat.entries[r.idx_l]
        assert r.quotient == certify_quotient(m, l).holds
        assert r.s == l.rank() - m.rank()
        if r.quotient and r.s >= 1:
            assert r.witness == "ok"
        else:
            assert r.witness == "na"
        parse_pair_line(r.line())


def test_diagonal_records_are_step_zero(basis_catalogs):
    cat = basis_catalogs[3]
    records = pair_records(cat)
    k = len(cat)
    for i in range(k):
        r = records[i * k + i]
        assert r.quotient and r.s == 0 and r.witness == "na"


def test_pair_catalog_writes_parseable_lines(tmp_path):
    path = tmp_path / "pairs.txt"
    records = pair_records(2)
    path.write_text("\n".join(r.line() for r in records) + "\n")
    lines = path.read_text().splitlines()
    assert len(lines) == len(records) == 25
    for line, r in zip(lines, records):
        assert parse_pair_line(line) == parse_pair_line(r.line())
    with pytest.raises(GroundTooLarge):
        pair_records(6)


def test_certified_table_matches_certify(basis_catalogs):
    for n in range(1, 4):
        cat = basis_catalogs[n]
        table = cat.certified
        for i, m in enumerate(cat.entries):
            for j, l in enumerate(cat.entries):
                cert = certify_quotient(m, l)
                if cert.holds:
                    assert table[(i, j)] == cert.step_s
                else:
                    assert (i, j) not in table
        assert cat.certified is table
    assert len(basis_catalogs[2].certified) == 12


def test_random_matroids_are_valid_and_reproducible():
    rng = random.Random(7)
    draws = [random_matroid(rng, 5) for _ in range(30)]
    assert all(m.rank() <= 5 for m in draws)
    again = [random_matroid(random.Random(7), 5) for _ in range(1)]
    assert draws[0] == again[0]
    # the distribution is not degenerate
    assert len({m.circuits for m in draws}) > 5


def test_random_pairs_always_certify():
    rng = random.Random(11)
    for _ in range(20):
        m, l = random_quotient_pair(rng, 5, rng.choice((1, 2)))
        cert = certify_quotient(m, l)
        assert cert.holds
        assert 0 <= cert.step_s <= 2
