"""Catalogs, their witness table and one-element lifts, pair records,
random instances.

The labelled counts 2, 5, 16, 68, 406 act as a fixed point: two unrelated
enumeration routes and the brute-force basis oracle must reproduce them
exactly.
"""

import random
import time
from collections import Counter
from itertools import permutations

import pytest

from matlift import enumeration
from matlift.axioms import AxiomReport, Violation, check_circuit_axioms
from matlift.enumeration import (
    CIRCUIT_ENUM_CAP,
    EXTENSION_ENUM_CAP,
    enumerate_matroids,
    lift_buckets,
    pair_records,
    random_matroid,
    random_quotient_pair,
)
from matlift.errors import ConstructionFailure, GroundTooLarge
from matlift.matroid import Matroid, free_matroid
from matlift.minors import contract, delete
from matlift.quotient import certify_quotient, lift_witness
from matlift.sets import SetFamily, fresh_labels
from matlift.textio import parse_pair_line

from helpers import (
    brute_minimal_dependent,
    brute_rank,
    circuit_bitmaps,
    enumerate_by_bases,
    gf_rank,
    mk,
    orbit_representatives,
    quotients_by_circuit_union,
    quotients_by_flats,
    replay_dump,
    subset_bitmaps,
    upset_extensions,
)

KNOWN_COUNTS = {1: 2, 2: 5, 3: 16, 4: 68, 5: 406}


def test_basis_route_counts():
    # the brute-force basis oracle of the helpers
    for n, want in KNOWN_COUNTS.items():
        assert len(enumerate_by_bases(n)) == want


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


def test_routes_agree(catalogs, circuit_catalogs):
    # extension against circuit, and both against the basis oracle
    for n in range(1, 6):
        want = [m.circuits for m in catalogs[n].entries]
        assert [m.circuits for m in circuit_catalogs[n].entries] == want
        assert [m.circuits for m in enumerate_by_bases(n)] == want


@pytest.mark.parametrize("n, want", [
    (1, 5), (2, 16), (3, 68), (4, 406), pytest.param(5, 3807, marks=pytest.mark.slow),
])
def test_modular_cut_search_matches_the_upset_scan(catalogs, n, want):
    # order included: the catalogs and lift_buckets file extensions in this order
    cat = catalogs[n]
    big = cat.ground.extend(fresh_labels(cat.ground, 1))
    got = 0
    for l in cat.entries:
        fast = enumeration._extensions(l, big)
        assert fast == upset_extensions(l, big)
        got += len(fast)
    assert got == want


def test_failed_extension_family_raises_with_a_replayable_dump(u13, monkeypatch):
    # U(1,3) extends U(1,2) on {a,b} by c parallel to both; pretend its
    # family fails the circuit check
    def failing(ground, family, strong=False):
        if family == u13.circuits:
            return AxiomReport(ground, Violation("AC0", (0,)))
        return check_circuit_axioms(ground, family, strong)

    monkeypatch.setattr(enumeration, "check_circuit_axioms", failing)
    with pytest.raises(ConstructionFailure) as info:
        enumerate_matroids(3)
    assert str(info.value).splitlines()[0] == (
        "modular cut family fails circuit axioms: AC0 violated"
    )
    assert replay_dump(info.value.dump) == (
        {"L": mk(2, "ab")}, ["labels c", "{{a,b}, {a,c}, {b,c}}"]
    )


def test_extension_route_at_six(catalog_6):
    # the labelled matroids on 6 elements number 3,807 (OEIS A058673); every
    # one deletes to an entry of the n = 5 catalog
    assert len(catalog_6) == 3807
    assert len(set(catalog_6.entries)) == 3807
    five = set(enumerate_matroids(5).entries)
    assert all(delete(m, 1 << 5) in five for m in catalog_6.entries)


@pytest.mark.slow
def test_extension_route_at_seven(catalog_6, catalog_7):
    # 75,164 labelled matroids on 7 elements (OEIS A058673), each deleting to
    # an entry of the n = 6 catalog
    assert len(catalog_7) == 75164
    assert len(set(catalog_7.entries)) == 75164
    six = set(catalog_6.entries)
    assert all(delete(m, 1 << 6) in six for m in catalog_7.entries)


@pytest.mark.slow
def test_lift_buckets_at_six(catalog_6):
    # the 75,164 one-element lifts key every certified pair with step <= 1:
    # 3,807 with step 0 and 67,550 with step 1, as counted by the independent
    # flats route (M is a quotient of L iff every flat of M is a flat of L)
    buckets = lift_buckets(catalog_6)
    assert sum(map(len, buckets.values())) == 75164
    assert len(buckets) == 71357
    steps = [0, 0]
    for i, j in buckets:
        cert = certify_quotient(catalog_6.entries[i], catalog_6.entries[j])
        assert cert.holds and cert.step_s <= 1
        steps[cert.step_s] += 1
    assert steps == [3807, 67550]


@pytest.fixture(scope="module")
def bitmaps_6(catalog_6):
    """``subset_bitmaps`` of every n = 6 entry, in catalog order."""
    return [subset_bitmaps(m) for m in catalog_6.entries]


def _decided(catalog, quotients):
    """Rank step of every pair (i, j) that a ``quotients_by_*`` kernel lists."""
    ranks = [brute_rank(m) for m in catalog.entries]
    return {(i, j): ranks[j] - ranks[i] for j, lower in enumerate(quotients) for i in lower}


def test_decide_gate_at_six(catalog_6, bitmaps_6):
    # both kernels decide all 14,493,249 ordered pairs and agree on each
    quotients = quotients_by_circuit_union(bitmaps_6)
    assert quotients == quotients_by_flats(bitmaps_6)
    decided = _decided(catalog_6, quotients)
    assert len(decided) == 239_858
    assert Counter(decided.values()) == {
        0: 3807, 1: 67_550, 2: 122_079, 3: 42_158, 4: 4137, 5: 126, 6: 1
    }


def test_circuit_bitmaps_equal_the_subset_scans_at_six(catalog_6, bitmaps_6):
    # the tables the n = 7 gate reads off the circuits, against the scans
    assert [circuit_bitmaps(m) for m in catalog_6.entries] == bitmaps_6


@pytest.mark.slow
def test_decide_gate_up_to_isomorphism_at_seven(catalog_7):
    # both kernels decide (rep, L) for the 306 representatives and all 75,164
    # entries, 23,000,184 pairs, on tables read off the circuits, and agree
    entries = catalog_7.entries
    reps = orbit_representatives(entries)
    assert len(reps) * len(entries) == 23_000_184
    tables = [circuit_bitmaps(m) for m in entries]
    quotients = quotients_by_circuit_union(tables, reps)
    assert quotients == quotients_by_flats(tables, reps)
    ranks = [m.rank() for m in entries]
    steps = Counter(ranks[j] - ranks[i] for j, lower in enumerate(quotients) for i in lower)
    assert sum(steps.values()) == 505_304
    assert steps == {
        0: 306, 1: 61_030, 2: 222_866, 3: 165_482, 4: 50_794, 5: 4691, 6: 134, 7: 1
    }


@pytest.mark.slow
def test_certify_agrees_with_the_decide_gate_at_six(catalog_6, bitmaps_6):
    # certify_quotient on every ordered pair certifies exactly the gate's
    # pairs, with the same rank steps
    assert catalog_6.certified == _decided(catalog_6, quotients_by_circuit_union(bitmaps_6))


def test_orbit_representatives_count_the_isomorphism_classes(catalogs, catalog_6):
    # one representative per isomorphism class: 2, 4, 8, 17, 38, 98 matroids
    # on 1-6 elements up to isomorphism (OEIS A055545)
    counts = [len(orbit_representatives(catalogs[n].entries)) for n in range(1, 6)]
    assert counts + [len(orbit_representatives(catalog_6.entries))] == [2, 4, 8, 17, 38, 98]


@pytest.mark.slow
def test_orbit_representatives_at_seven(catalog_7):
    # 306 matroids on 7 elements up to isomorphism (OEIS A055545)
    assert len(orbit_representatives(catalog_7.entries)) == 306


def test_certify_decides_every_pair_up_to_isomorphism_at_six(catalog_6, bitmaps_6):
    # the circuit-union test commutes with relabelling, so (rep, L) for the
    # 98 representatives and all 3,807 entries covers every ordered pair up
    # to isomorphism: certify_quotient on those 373,086 pairs certifies
    # exactly the pairs the flats kernel lists, with the brute-force steps
    entries = catalog_6.entries
    reps = orbit_representatives(entries)
    rep_set = set(reps)
    got = {}
    for i in reps:
        for j, l in enumerate(entries):
            cert = certify_quotient(entries[i], l)
            if cert.holds:
                got[i, j] = cert.step_s
    decided = _decided(catalog_6, quotients_by_flats(bitmaps_6))
    assert got == {(i, j): s for (i, j), s in decided.items() if i in rep_set}
    assert len(got) == 16_012
    assert Counter(got.values()) == {
        0: 98, 1: 2680, 2: 7183, 3: 4887, 4: 1094, 5: 69, 6: 1
    }


def test_catalog_order_is_stable_and_indexable(catalogs):
    cat = catalogs[3]
    again = enumerate_matroids(3)
    assert [m.circuits for m in cat.entries] == [m.circuits for m in again.entries]
    for i, m in enumerate(cat.entries):
        assert cat.entries.index(m) == i


def test_enumeration_caps(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the cap must be checked before any work starts")

    monkeypatch.setattr(enumeration, "_extensions", no_work)
    with pytest.raises(GroundTooLarge):
        enumerate_matroids(EXTENSION_ENUM_CAP + 1)
    with pytest.raises(GroundTooLarge):
        enumerate_matroids(CIRCUIT_ENUM_CAP + 1, "circuit")
    for method in ("magic", "basis"):
        with pytest.raises(ValueError):
            enumerate_matroids(3, method)
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


def test_lift_buckets_use_a_fresh_label(catalogs):
    for n in range(1, 4):
        cat = catalogs[n]
        big = cat.ground.extend(fresh_labels(cat.ground, 1))
        for lifts in lift_buckets(cat).values():
            assert all(lift.ground == big for lift in lifts)


def test_lift_bucket_keys_are_the_certified_pairs_up_to_step_one(catalogs):
    # both directions of the lift theorem at k = 1: every key certifies with
    # step <= 1, and every such certified pair has a lift
    for n in range(1, 4):
        cat = catalogs[n]
        buckets = lift_buckets(cat)
        for key in buckets:
            assert key in cat.certified and cat.certified[key] <= 1
        assert len(buckets) == sum(1 for s in cat.certified.values() if s <= 1)
        assert sum(map(len, buckets.values())) == len(enumerate_matroids(n + 1))


def test_lift_buckets_file_the_next_catalog(catalogs, circuit_catalogs):
    # file every N of the circuit route's catalog on one more element, the
    # new one relabelled, under (N/x, N\x)
    for n in range(1, 5):
        cat = catalogs[n]
        big = cat.ground.extend(fresh_labels(cat.ground, 1))
        index = {m: i for i, m in enumerate(cat.entries)}
        filed = {}
        for m in circuit_catalogs[n + 1].entries:
            lift = Matroid(big, m.circuits)
            key = (index[contract(lift, 1 << n)], index[delete(lift, 1 << n)])
            filed.setdefault(key, set()).add(lift)
        assert {p: set(lifts) for p, lifts in lift_buckets(cat).items()} == filed


def lift_theorem_keys(cat, big_cat, k):
    """Key every N of ``big_cat`` by the indices in ``cat`` of (N/X, N\\X),
    X its last k labels. The keys must be the certified pairs with step <= k,
    and the pair of each step s holds its s-element lift plus k - s coloops
    (M plus k coloops at s = 0). Returns the number of keys."""
    x = big_cat.ground.full_mask & ~cat.ground.full_mask
    index = {m: i for i, m in enumerate(cat.entries)}
    keys = {}
    for big in big_cat.entries:
        keys.setdefault((index[contract(big, x)], index[delete(big, x)]), set()).add(big)
    assert set(keys) == {p for p, s in cat.certified.items() if s <= k}
    for (i, j), s in cat.certified.items():
        if s <= k:
            lifted = cat.witnesses[(i, j)].n if s else cat.entries[i]
            assert Matroid(big_cat.ground, lifted.circuits) in keys[(i, j)]
    return len(keys)


def test_lift_theorem_beyond_one_element(catalogs):
    got = {(n, k): lift_theorem_keys(catalogs[n], catalogs[n + k], k)
           for n in range(1, 5) for k in range(1, 6 - n)}
    assert got == {(1, 1): 3, (1, 2): 3, (1, 3): 3, (1, 4): 3, (2, 1): 11, (2, 2): 12,
                   (2, 3): 12, (3, 1): 52, (3, 2): 66, (4, 1): 338}


def test_lift_theorem_beyond_one_element_at_six(catalogs, catalog_6):
    got = {(n, 6 - n): lift_theorem_keys(catalogs[n], catalog_6, 6 - n) for n in range(1, 6)}
    assert got == {(1, 5): 3, (2, 4): 12, (3, 3): 67, (4, 2): 527, (5, 1): 3401}


@pytest.mark.slow
def test_lift_theorem_beyond_one_element_at_seven(catalogs, catalog_7):
    got = {(n, 7 - n): lift_theorem_keys(catalogs[n], catalog_7, 7 - n) for n in range(1, 6)}
    assert got == {(1, 6): 3, (2, 5): 12, (3, 4): 67, (4, 3): 557, (5, 2): 6845}


def test_witness_table_covers_positive_steps(catalogs):
    for n in range(1, 4):
        cat = catalogs[n]
        table = cat.witnesses
        assert list(table) == [p for p, s in cat.certified.items() if s >= 1]
        for (i, j), w in table.items():
            assert (w.m, w.l) == (cat.entries[i], cat.entries[j])
            assert w.x_labels == fresh_labels(cat.ground, cat.certified[(i, j)])
        assert cat.witnesses is table


def test_witness_family_is_symmetric_in_the_new_labels(catalogs):
    # the z-parts of the constructed circuits are all subsets of each size,
    # so permuting the new labels maps the family onto itself
    for n in range(1, 5):
        for w in catalogs[n].witnesses.values():
            e, s = n, len(w.x_labels)
            for order in permutations(range(s)):
                moved = SetFamily(
                    c & ((1 << e) - 1)
                    | sum(1 << (e + order[k]) for k in range(s) if c >> (e + k) & 1)
                    for c in w.n.circuits
                )
                assert moved == w.n.circuits


def test_pair_records_shape(catalogs):
    cat = catalogs[2]
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


def test_diagonal_records_are_step_zero(catalogs):
    cat = catalogs[3]
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


def test_certified_table_matches_certify(catalogs):
    for n in range(1, 4):
        cat = catalogs[n]
        table = cat.certified
        for i, m in enumerate(cat.entries):
            for j, l in enumerate(cat.entries):
                cert = certify_quotient(m, l)
                if cert.holds:
                    assert table[(i, j)] == cert.step_s
                else:
                    assert (i, j) not in table
        assert cat.certified is table
    assert len(catalogs[2].certified) == 12


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
    # seeds 0-39 draw on 5-8 elements, seeds 40-47 on 9-12
    for seed in range(48):
        rng, replay = random.Random(seed), random.Random(seed)
        n = 5 + seed % 4 if seed < 40 else 9 + seed % 4
        m = random_matroid(rng, n)
        q = replay.choice((2, 3, 5))
        r = replay.randint(0, n)
        cols = [tuple(replay.randrange(q) for _ in range(r)) for _ in range(n)]

        def dependent(mask):
            chosen = [cols[i] for i in range(n) if mask >> i & 1]
            return gf_rank(chosen, q) < len(chosen)

        assert m.circuits == brute_minimal_dependent(n, dependent)
        assert rng.getstate() == replay.getstate()


def test_full_rank_draws_return_the_free_matroid_at_once():
    # these seeds draw r = n and a non-singular matrix, so the walk starts and
    # ends at the one basis, with no table over the 2^n subsets
    for n, seed in ((16, 40), (20, 118)):
        rng, replay = random.Random(seed), random.Random(seed)
        start = time.perf_counter()
        m = random_matroid(rng, n)
        assert time.perf_counter() - start < 0.5
        assert m == free_matroid(m.ground)
        q = replay.choice((2, 3, 5))
        assert replay.randint(0, n) == n
        cols = [tuple(replay.randrange(q) for _ in range(n)) for _ in range(n)]
        assert gf_rank(cols, q) == n
        assert rng.getstate() == replay.getstate()


def test_random_pairs_always_certify():
    rng = random.Random(11)
    for _ in range(20):
        m, l = random_quotient_pair(rng, 5, rng.choice((1, 2)))
        cert = certify_quotient(m, l)
        assert cert.holds
        assert 0 <= cert.step_s <= 2
