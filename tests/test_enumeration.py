"""Catalogs, their witness table and one-element lifts, pair records,
random instances.

The labelled counts 2, 5, 16, 68, 406 act as a fixed point: two unrelated
enumeration routes must reproduce them exactly.
"""

import random
from itertools import permutations

import pytest

from matlift.axioms import check_circuit_axioms
from matlift.enumeration import (
    enumerate_matroids,
    lift_buckets,
    pair_records,
    random_matroid,
    random_quotient_pair,
)
from matlift.errors import GroundTooLarge
from matlift.matroid import minimal_dependent_sets
from matlift.quotient import certify_quotient, lift_witness
from matlift.sets import SetFamily, fresh_labels
from matlift.textio import parse_pair_line

from helpers import gf_rank

KNOWN_COUNTS = {1: 2, 2: 5, 3: 16, 4: 68, 5: 406}


def test_basis_route_counts(basis_catalogs):
    for n, want in KNOWN_COUNTS.items():
        assert len(basis_catalogs[n]) == want


def test_circuit_route_counts(circuit_catalogs):
    for n in range(1, 6):
        assert len(circuit_catalogs[n]) == KNOWN_COUNTS[n]


def test_circuit_route_checks_only_antichains(monkeypatch):
    # the antichains of non-empty subsets, the empty family included, number
    # the Dedekind numbers minus one (OEIS A000372)
    checked = []

    def counting(ground, family, strong=False):
        checked.append(family)
        return check_circuit_axioms(ground, family, strong)

    monkeypatch.setattr("matlift.enumeration.check_circuit_axioms", counting)
    for n, want in zip(range(1, 6), (2, 5, 19, 167, 7580)):
        checked.clear()
        enumerate_matroids(n, "circuit")
        assert len(checked) == len(set(checked)) == want


def test_routes_agree(basis_catalogs, circuit_catalogs):
    for n in range(1, 6):
        assert [m.circuits for m in basis_catalogs[n].entries] == [
            m.circuits for m in circuit_catalogs[n].entries
        ]


def test_catalog_order_is_stable_and_indexable(basis_catalogs):
    cat = basis_catalogs[3]
    again = enumerate_matroids(3)
    assert [m.circuits for m in cat.entries] == [m.circuits for m in again.entries]
    for i, m in enumerate(cat.entries):
        assert cat.entries.index(m) == i


def test_enumeration_caps():
    with pytest.raises(GroundTooLarge):
        enumerate_matroids(7, "basis")
    with pytest.raises(GroundTooLarge):
        enumerate_matroids(6, "circuit")
    with pytest.raises(ValueError):
        enumerate_matroids(3, "magic")
    with pytest.raises(GroundTooLarge):
        pair_records(6)


def test_lift_buckets_hold_the_constructed_witness(u13, u23):
    cat = enumerate_matroids(3)
    i, j = cat.entries.index(u13), cat.entries.index(u23)
    built = lift_witness(u13, u23, fresh_labels(u13.ground, 1)).n
    assert lift_buckets(cat)[(i, j)] == [built]
    assert cat.witnesses[(i, j)].n == built


def test_lift_buckets_direction_matters(u13, u23):
    cat = enumerate_matroids(3)
    i, j = cat.entries.index(u13), cat.entries.index(u23)
    assert (j, i) not in lift_buckets(cat)


def test_lift_buckets_use_a_fresh_label(basis_catalogs):
    for n in range(1, 4):
        cat = basis_catalogs[n]
        big = cat.ground.extend(fresh_labels(cat.ground, 1))
        for lifts in lift_buckets(cat).values():
            assert all(lift.ground == big for lift in lifts)


def test_lift_bucket_keys_are_the_certified_pairs_up_to_step_one(basis_catalogs):
    # both directions of the lift theorem at k = 1: every key certifies with
    # step <= 1, and every such certified pair has a lift
    for n in range(1, 4):
        cat = basis_catalogs[n]
        buckets = lift_buckets(cat)
        for key in buckets:
            assert key in cat.certified and cat.certified[key] <= 1
        assert len(buckets) == sum(1 for s in cat.certified.values() if s <= 1)
        assert sum(map(len, buckets.values())) == len(enumerate_matroids(n + 1))


def test_witness_table_covers_positive_steps(basis_catalogs):
    for n in range(1, 4):
        cat = basis_catalogs[n]
        table = cat.witnesses
        assert list(table) == [p for p, s in cat.certified.items() if s >= 1]
        for (i, j), w in table.items():
            assert (w.m, w.l) == (cat.entries[i], cat.entries[j])
            assert w.x_labels == fresh_labels(cat.ground, cat.certified[(i, j)])
        assert cat.witnesses is table


def test_witness_family_is_symmetric_in_the_new_labels(basis_catalogs):
    # the z-parts of the constructed circuits are all subsets of each size,
    # so permuting the new labels maps the family onto itself
    for n in range(1, 5):
        for w in basis_catalogs[n].witnesses.values():
            e, s = n, len(w.x_labels)
            for order in permutations(range(s)):
                moved = SetFamily(
                    c & ((1 << e) - 1)
                    | sum(1 << (e + order[k]) for k in range(s) if c >> (e + k) & 1)
                    for c in w.n.circuits
                )
                assert moved == w.n.circuits


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


def test_random_matroids_match_full_elimination():
    # replay each draw and rebuild the circuits with a full GF(q) elimination
    # per subset; the draw must leave the rng where the replay does
    for seed in range(40):
        rng, replay = random.Random(seed), random.Random(seed)
        n = 5 + seed % 4
        m = random_matroid(rng, n)
        q = replay.choice((2, 3, 5))
        r = replay.randint(0, n)
        cols = [tuple(replay.randrange(q) for _ in range(r)) for _ in range(n)]

        def dependent(mask):
            chosen = [cols[i] for i in range(n) if mask >> i & 1]
            return gf_rank(chosen, q) < len(chosen)

        assert m.circuits == SetFamily(minimal_dependent_sets(m.ground, dependent))
        assert rng.getstate() == replay.getstate()


def test_random_pairs_always_certify():
    rng = random.Random(11)
    for _ in range(20):
        m, l = random_quotient_pair(rng, 5, rng.choice((1, 2)))
        cert = certify_quotient(m, l)
        assert cert.holds
        assert 0 <= cert.step_s <= 2
