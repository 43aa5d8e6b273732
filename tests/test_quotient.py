"""Certification, witness construction, factorization, stage families,
and the per-matroid checked statements, on hand-worked instances."""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from matlift import quotient, sweeps
from matlift.cli import run_command
from matlift.enumeration import random_matroid, random_quotient_pair
from matlift.errors import (
    ConstructionFailure,
    DeletesEverything,
    FactorizationFailure,
    GroundMismatch,
    LabelClash,
    LemmaCounterexample,
    PreconditionFailure,
    QuotientViolation,
    RankMismatch,
)
from matlift.quotient import (
    base_family_witness,
    bigcyclo_check,
    certify_quotient,
    cyclic_elimination,
    cyclic_extension,
    factor_homotopy,
    lemma_span_witness,
    lift_witness,
    remark_circuits,
    remark_comparison,
    verify_pair,
)
from matlift.matroid import Matroid, uniform_matroid
from matlift.minors import contract, delete
from matlift.sets import GroundSet, SetFamily, fresh_labels, masks_of_size
from matlift.textio import parse_matroid_text, serialize_matroid_text
from matlift.sweeps import catalog_witnesses, homotopy_sweep, lattice_stages

from helpers import (
    brute_cyclic_sets_by_nullity,
    brute_flats,
    brute_higgs_rank,
    brute_independent,
    brute_lift_rank,
    brute_rank,
    lift,
    mk,
    replay_dump,
    scan_cyclic_elimination,
)


# --------------------------------------------------------------- certifying


def test_certify_holds_with_covering(u13, u23):
    cert = certify_quotient(u13, u23)
    assert cert.holds and cert.step_s == 1
    assert cert.coverings[0b111] == (0b011, 0b101, 0b110)
    text = cert.describe()
    assert "rank step 1" in text and "{a,b,c}" in text


def test_certify_refuses_with_counterexample(u13, u23):
    ref = certify_quotient(u23, u13)
    assert not ref.holds
    assert ref.circuit == 0b011
    assert ref.uncovered == 0b011
    assert "{a,b}" in ref.describe()


def test_certify_requires_common_ground(u13):
    with pytest.raises(GroundMismatch):
        certify_quotient(u13, mk(2, "ab"))


def test_self_pair_certifies_at_step_zero(u13):
    cert = certify_quotient(u13, u13)
    assert cert.holds and cert.step_s == 0


def test_loops_must_be_covered():
    lower = mk(2, "ab")
    upper = mk(2, "a")  # a is a loop upstairs but not a lower circuit union
    ref = certify_quotient(lower, upper)
    assert not ref.holds and ref.circuit == 0b01


def test_certify_agrees_with_flat_inclusion(catalogs):
    # M is a quotient of L iff every flat of M is a flat of L (Oxley, Matroid
    # Theory, 2nd ed., Prop. 7.3.6): on every pair with n <= 5, then on
    # seeded pairs at n = 6..8, lifted minor pairs and independent draws.
    # On the catalogs with n <= 4, a certificate's coverings list, in L's
    # circuit order, every circuit of M inside each circuit of L, and they
    # union to it; a refusal names L's first circuit they do not cover, and
    # what they miss. A catalog's entries share one ground object; copies on
    # ground objects of their own take the label comparison instead, and give
    # an equal outcome: the same type, rank step or circuit and uncovered part
    pairs = certified = 0
    for n in range(1, 5):
        entries = catalogs[n].entries
        assert all(m.ground is catalogs[n].ground for m in entries)
        copies = [Matroid._trusted(GroundSet(m.ground.labels), m.circuits) for m in entries]
        flats = [brute_flats(m) for m in entries]
        for i, m in enumerate(entries):
            for j, l in enumerate(entries):
                outcome = certify_quotient(m, l)
                assert outcome.holds == (flats[i] <= flats[j])
                assert certify_quotient(copies[i], copies[j]) == outcome
                pairs += 1
                inside = {d: SetFamily(c for c in m.circuits if c & ~d == 0) for d in l.circuits}
                missed = [d for d, fam in inside.items() if fam.union_mask != d]
                if outcome.holds:
                    certified += 1
                    assert not missed
                    assert list(outcome.coverings.items()) == [
                        (d, fam.members) for d, fam in inside.items()
                    ]
                else:
                    d = missed[0]
                    assert (outcome.circuit, outcome.uncovered) == (d, d & ~inside[d].union_mask)
    assert (pairs, certified) == (4909, 640)
    entries = catalogs[5].entries
    flats = [brute_flats(m) for m in entries]
    pairs = certified = 0
    for i, m in enumerate(entries):
        for j, l in enumerate(entries):
            holds = certify_quotient(m, l).holds
            assert holds == (flats[i] <= flats[j])
            pairs += 1
            certified += holds
    assert (pairs, certified) == (164_836, 7_806)
    rng = random.Random(20261019)
    held = Counter()
    for k in range(60):
        n = 6 + k % 3
        for m, l in (random_quotient_pair(rng, n, 1 + k % 2),
                     (random_matroid(rng, n), random_matroid(rng, n))):
            holds = certify_quotient(m, l).holds
            assert holds == (brute_flats(m) <= brute_flats(l))
            held[holds] += 1
    assert held == {True: 86, False: 34}


# ------------------------------------------------------------ witness build


def test_single_step_witness_matches_worked_instance(u13, u23):
    w = lift_witness(u13, u23, ("x",))
    assert w.n.ground.labels == ("a", "b", "c", "x")
    assert w.n.circuits == SetFamily([0b0111, 0b1011, 0b1101, 0b1110])
    assert w.x_labels == ("x",)


def test_two_step_witness_matches_worked_instance(u13, f3):
    w = lift_witness(u13, f3, ("x1", "x2"))
    assert w.n.circuits == SetFamily(
        [0b01111, 0b10111, 0b11011, 0b11101, 0b11110]
    )


def test_witness_new_elements_are_never_loops_or_coloops(u13, u23, f3):
    for m, l, labels in ((u13, u23, ("x",)), (u13, f3, ("x1", "x2"))):
        w = lift_witness(m, l, labels)
        x = w.n.ground.mask_of(labels)
        assert not any(c.bit_count() == 1 and c & x for c in w.n.circuits)
        assert all(w.n.rank(w.n.ground.full_mask & ~(1 << i)) == w.n.rank()
                   for i in range(len(m.ground), len(w.n.ground)))


def test_witness_refuses_non_quotient(u13, u23):
    with pytest.raises(QuotientViolation) as info:
        lift_witness(u23, u13, ("x",))
    assert info.value.refusal == certify_quotient(u23, u13)
    assert str(info.value) == info.value.refusal.describe()


def test_witness_label_count_must_match_step(u13, u23, f3):
    with pytest.raises(RankMismatch):
        lift_witness(u13, u23, ("x", "y"))
    with pytest.raises(RankMismatch):
        lift_witness(u13, f3, ("x",))
    with pytest.raises(RankMismatch):
        lift_witness(u13, u13, ())


def test_witness_labels_must_be_fresh_and_distinct(u13, u23, f3):
    with pytest.raises(LabelClash):
        lift_witness(u13, u23, ("a",))
    with pytest.raises(LabelClash):
        lift_witness(u13, f3, ("x", "x"))


@pytest.mark.parametrize("tamper", ["drop one", "add one", "drop all"])
def test_wrong_candidate_family_is_caught(u13, u23, monkeypatch, tamper):
    # N is built from the strong report without a second axiom scan; a wrong
    # family must still fail that report (drop one, add one) or the minor
    # comparison (drop all), with a dump whose inputs replay
    cyclic_sets = Matroid.cyclic_sets

    def tampered(self, nullity=None):
        fam = cyclic_sets(self, nullity)
        if tamper == "drop one":
            return SetFamily(fam.members[1:])
        if tamper == "add one":
            return SetFamily(fam.members + (0b001,))  # {a} is not cyclic in u13
        return SetFamily()

    monkeypatch.setattr(Matroid, "cyclic_sets", tampered)
    with pytest.raises(ConstructionFailure) as info:
        lift_witness(u13, u23, ("x",))
    monkeypatch.undo()
    m_text, l_text, rest = info.value.dump.split("end\n", 2)
    m, l = parse_matroid_text(m_text + "end\n"), parse_matroid_text(l_text + "end\n")
    assert (m, l) == (u13, u23)
    labels = tuple(rest.split("\n")[1].split()[1:])
    assert labels == ("x",)
    assert lift_witness(m, l, labels).n == lift_witness(u13, u23, ("x",)).n
    if tamper == "drop all":
        # the minor comparison is verify_pair's; the dump ends with N
        assert "mismatch" in str(info.value).splitlines()[0]
        docs, _ = replay_dump(info.value.dump)
        assert set(docs) == {"M", "L", "N"}
        assert docs["N"].ground.labels == ("a", "b", "c", "x")
        assert docs["N"] == Matroid(docs["N"].ground, l.circuits)


def test_witness_family_matches_the_brute_force_construction(catalogs):
    # N's circuits are L's circuits plus A + Z for every cyclic set A of M of
    # nullity c that L leaves independent and every s+1-c new elements Z; the
    # cyclic sets come from the brute-force oracle, and the expected N goes
    # through the checking constructor
    for w in catalog_witnesses(catalogs, 4):
        e, s = len(w.m.ground), len(w.x_labels)
        by_nullity = brute_cyclic_sets_by_nullity(w.m)
        expected = list(w.l.circuits)
        for c in range(1, s + 1):
            for a in by_nullity.get(c, ()):
                if brute_independent(w.l.circuits, a):
                    for z in combinations(range(e, e + s), s + 1 - c):
                        expected.append(a | sum(1 << i for i in z))
        assert w.n == Matroid(w.n.ground, expected)


def test_witness_rank_is_the_closed_form(catalogs):
    # r_N(A + Y) = min(r_L(A) + |Y|, r_M(A) + s) for every A on the ground
    # and every set Y of new elements
    checks = 0
    for w in catalog_witnesses(catalogs, 4):
        e, s = len(w.m.ground), len(w.x_labels)
        for a in range(1 << e):
            for y in range(1 << s):
                assert w.n.rank(a | y << e) == brute_lift_rank(w.m, w.l, s, a, y.bit_count())
                checks += 1
    assert checks == 25988


# ------------------------------------------------------------- verification


def test_verify_pair_accepts_the_witness(u13, u23):
    w = lift_witness(u13, u23, ("x",))
    report = verify_pair(w.n, 0b1000, u13, u23)
    assert report.ok and report.contract_ok and report.delete_ok


def test_verify_pair_reports_both_mismatches(u13, u23):
    w = lift_witness(u13, u23, ("x",))
    report = verify_pair(w.n, 0b1000, u23, u13)
    assert not report.ok
    assert not report.contract_ok and not report.delete_ok
    assert "mismatch" in report.describe()


def test_verify_pair_preconditions(u13, u23):
    w = lift_witness(u13, u23, ("x",))
    with pytest.raises(PreconditionFailure):
        verify_pair(w.n, 0, u13, u23)
    with pytest.raises(GroundMismatch):
        verify_pair(w.n, 0b1000, mk(2, "ab"), u23)
    with pytest.raises(DeletesEverything, match="keep at least one element"):
        verify_pair(w.n, w.n.ground.full_mask, u13, u23)


# ------------------------------------------------------------ factorization


def test_factor_chain_matches_worked_instance(u13, u23, f3):
    chain = factor_homotopy(u13, f3, ("x1", "x2"))
    assert chain.steps == (u13, u23, f3)
    assert [m.rank() for m in chain.steps] == [1, 2, 3]


def test_factor_is_order_independent_here(u13, f3):
    a = factor_homotopy(u13, f3, ("x1", "x2"))
    b = factor_homotopy(u13, f3, ("x2", "x1"))
    assert a.steps == b.steps


def test_factor_reuses_a_supplied_witness(u13, u23, f3, monkeypatch):
    # a supplied witness stands for the label checks only; the chain is the
    # closed form all the same
    w = lift_witness(u13, f3, ("x1", "x2"))

    def refuse(*args):
        raise AssertionError("stage called")

    monkeypatch.setattr(quotient.LiftWitness, "stage", refuse)
    assert factor_homotopy(u13, f3, ("x2", "x1"), witness=w).steps == (u13, u23, f3)


def test_factor_single_step_is_the_pair(u13, u23):
    chain = factor_homotopy(u13, u23, ("x",))
    assert chain.steps == (u13, u23)


def test_factor_rejects_foreign_witness(u13, u23, f3):
    w = lift_witness(u13, u23, ("x1",))
    with pytest.raises(PreconditionFailure):
        factor_homotopy(u13, f3, ("x1", "x2"), witness=w)


def test_factor_compares_witness_labels_as_a_multiset(u13, u23):
    w = lift_witness(u13, u23, ("x1",))
    with pytest.raises(PreconditionFailure):
        factor_homotopy(u13, u23, ("x1", "x1"), witness=w)


def _prefix_stages(w, stages, order):
    """N's minors along ``order``, read off ``stages = lattice_stages(w)``:
    stage i deletes the first i labels of the order and contracts the rest."""
    return tuple(stages[sum(1 << w.x_labels.index(x) for x in order[:i])]
                 for i in range(len(order) + 1))


def test_factor_stages_are_witness_minors(catalogs):
    # the chain ends are the operands themselves; here they are checked
    # against the witness minors like every middle stage, and the lattice
    # stages are the minors taken directly
    for w in catalog_witnesses(catalogs, 3):
        stages = lattice_stages(w)
        assert len(stages) == 1 << len(w.x_labels)
        for order in permutations(w.x_labels):
            chain = factor_homotopy(w.m, w.l, order, witness=w)
            assert chain.steps == _prefix_stages(w, stages, order)
            for i, stage in enumerate(chain.steps):
                rest = contract(w.n, w.n.ground.mask_of(order[i:]))
                assert stage == delete(rest, rest.ground.mask_of(order[:i]))


def test_factor_without_a_witness_builds_none(u13, u23, f3, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lift_witness called")

    monkeypatch.setattr(quotient, "lift_witness", refuse)
    assert factor_homotopy(u13, f3, ("x2", "x1")).steps == (u13, u23, f3)


def test_formula_route_equals_witness_route_on_the_catalogs(catalogs):
    # every n <= 4 witness under every label order: the closed-form chain is
    # N's minors along that order
    chains = 0
    for w in catalog_witnesses(catalogs, 4):
        stages = lattice_stages(w)
        for order in permutations(w.x_labels):
            assert factor_homotopy(w.m, w.l, order).steps == _prefix_stages(w, stages, order)
            chains += 1
    assert chains == 931


def test_formula_route_equals_witness_route_on_sampled_n5_pairs(catalogs):
    # a seeded sample of the n = 5 pairs with step >= 2: every lattice stage
    # D of N is the closed-form chain's stage |D|
    cat = catalogs[5]
    pairs = sorted(p for p, s in cat.certified.items() if s >= 2)
    assert Counter(cat.certified[p] for p in pairs) == {2: 3444, 3: 898, 4: 62, 5: 1}
    stages = 0
    for i, j in random.Random(20261018).sample(pairs, 200):
        m, l = cat.entries[i], cat.entries[j]
        w = lift_witness(m, l, fresh_labels(cat.ground, cat.certified[(i, j)]))
        chain = factor_homotopy(m, l, w.x_labels, witness=w)
        for d, stage in enumerate(lattice_stages(w)):
            assert stage == chain.steps[d.bit_count()]
            stages += 1
    assert stages == 1012


def test_formula_route_is_the_higgs_factorization_on_random_pairs():
    # stage i has rank min(r_L(A), r_M(A) + i) on every A, and the chain is
    # N's minors along the reversed label order
    rng = random.Random(20261018)
    lifted = middle = 0
    for k in range(24):
        m, l = random_quotient_pair(rng, 6 + k % 2, 1 + k % 3)
        s = l.rank() - m.rank()
        if s < 1:
            continue
        lifted += 1
        labels = fresh_labels(m.ground, s)
        chain = factor_homotopy(m, l, labels)
        w = lift_witness(m, l, labels)
        assert chain.steps == _prefix_stages(w, lattice_stages(w), labels[::-1])
        for i, stage in enumerate(chain.steps[1:-1], start=1):
            middle += 1
            for a in range(1 << len(m.ground)):
                assert brute_rank(stage, a) == brute_higgs_rank(m, l, i, a)
    assert (lifted, middle) == (17, 15)


def _vamos() -> Matroid:
    """The Vamos matroid V on a-h, of rank 4 and representable over no
    field. Its circuit-hyperplanes are the unions of two of the pairs ab, cd,
    ef, gh except efgh; its other circuits are the 5-sets that hold none of
    them."""
    g = GroundSet("abcdefgh")
    planes = [g.mask_of(tuple(w)) for w in ("abcd", "abef", "abgh", "cdef", "cdgh")]
    fives = [sum(1 << i for i in c) for c in combinations(range(8), 5)]
    return Matroid(g, planes + [f for f in fives if all(p & ~f for p in planes)])


def test_the_vamos_matroid_lifts_and_factors():
    # the first matroid here that no field represents: both pairs certify,
    # each lift has the closed-form ranks, and the chain is N's minors
    v = _vamos()
    assert (v.rank(), len(v.circuits)) == (4, 41)
    u38, u88 = uniform_matroid(v.ground, 3), uniform_matroid(v.ground, 8)
    for m, l, step, members in ((u38, v, 1, 106), (v, u88, 4, 205)):
        assert certify_quotient(m, l).step_s == step
        w = lift(m, l)
        assert len(w.n.circuits) == members
        for a in range(1 << 8):
            for k in range(step + 1):
                want = brute_lift_rank(m, l, step, a, k)
                assert all(w.n.rank(a | y << 8) == want for y in masks_of_size(step, k))
        chain = factor_homotopy(m, l, w.x_labels, witness=w)
        for d, stage in enumerate(lattice_stages(w)):
            assert stage == chain.steps[d.bit_count()]


def test_homotopy_sweep_fails_on_a_stage_off_the_closed_form(catalogs, monkeypatch):
    # the chain factors, but its stage 1 is not N's minor at any one deleted label
    factor = quotient.factor_homotopy

    def skewed(m, l, labels, witness=None):
        steps = factor(m, l, labels, witness=witness).steps
        return quotient.HomotopySequence((m, Matroid(m.ground, []), *steps[2:]))

    monkeypatch.setattr(quotient, "factor_homotopy", skewed)
    out = homotopy_sweep(3, catalogs)
    assert not out.ok
    assert "stage 0b1 of" in out.details and "differs from chain stage 1" in out.details


def test_homotopy_sweep_fails_on_a_chain_that_does_not_factor(catalogs, monkeypatch):
    # every stage equals the closed form, and the one chain check still runs
    def refuse(m, l, labels, witness=None):
        raise FactorizationFailure("stage 1 has rank 3, expected 2")

    monkeypatch.setattr(quotient, "factor_homotopy", refuse)
    out = homotopy_sweep(3, catalogs)
    assert not out.ok
    assert "factorization failed for" in out.details and "stage 1 has rank 3" in out.details


# ----------------------------------------------------------- stage families


def test_remark_families_two_step(u13, f3):
    expects = {
        0: SetFamily([]),
        1: SetFamily([0b011, 0b101, 0b110]),
        2: SetFamily([0b111]),
        3: SetFamily([]),
    }
    for j, want in expects.items():
        fam, report = remark_circuits(u13, f3, j)
        assert fam == want, f"j={j}"
        assert report.passed


def test_remark_families_single_step(u13, u23):
    assert remark_circuits(u13, u23, 0)[0] == SetFamily([])
    assert remark_circuits(u13, u23, 1)[0] == SetFamily([0b011, 0b101, 0b110])
    assert remark_circuits(u13, u23, 2)[0] == SetFamily([0b111])


def test_remark_j_range_is_checked(u13, u23):
    with pytest.raises(PreconditionFailure):
        remark_circuits(u13, u23, -1)
    with pytest.raises(PreconditionFailure):
        remark_circuits(u13, u23, 3)
    with pytest.raises(QuotientViolation):
        remark_circuits(u23, u13, 0)


def test_remark_comparison_shifted_reading_wins(u13, u23, f3):
    for m, l in ((u13, u23), (u13, f3), (u23, f3)):
        rows = remark_comparison(lift(m, l))
        assert [r.i for r in rows] == list(range(len(rows)))
        for row in rows:
            assert row.shifted_agrees, f"stage {row.i} of {m!r} -> {l!r}"
            assert not row.literal_agrees
            assert row.minor_circuits == row.shifted


def test_remark_comparison_rows_are_the_closed_forms(catalogs):
    for w in catalog_witnesses(catalogs, 3):
        m, l = w.m, w.l
        rows = remark_comparison(w)
        assert [r.i for r in rows] == list(range(len(w.x_labels) + 1))
        for row in rows:
            assert row.minor_circuits == w.stage((1 << row.i) - 1).circuits
            assert row.shifted == remark_circuits(m, l, row.i + 1)[0]
            assert row.literal == remark_circuits(m, l, row.i)[0]


def test_remark_comparison_reads_the_witness_route(u13, f3, monkeypatch):
    # it compares N's minors with the closed form, not the closed-form route
    # of factor_homotopy with itself; the pair is certified once, by lift
    reads = []
    stage = quotient.LiftWitness.stage
    monkeypatch.setattr(quotient.LiftWitness, "stage", lambda w, d: reads.append(d) or stage(w, d))
    w = lift_witness(u13, f3, ("x1", "x2"))

    def refuse(*args):
        raise AssertionError("certify_quotient called")

    monkeypatch.setattr(quotient, "certify_quotient", refuse)
    rows = remark_comparison(w)
    assert reads == [0b00, 0b01, 0b11] and all(row.shifted_agrees for row in rows)


# ----------------------------------------------------- checked statements


def test_span_witness_on_a_circuit(u13):
    assert lemma_span_witness(u13, 0b011) == {1: 0b011}


def test_span_witness_counts_nullity(u13):
    fam = lemma_span_witness(u13, 0b111)
    assert len(fam) == u13.nullity(0b111) == 2
    assert fam == {1: 0b011, 2: 0b101}


def test_cyclic_extension_grows_nullity(u13):
    grown = cyclic_extension(u13, 0b011, 0b101)
    assert u13.is_cyclic(grown)
    assert u13.nullity(grown) == 2
    assert grown & ~0b111 == 0 and 0b011 & ~grown == 0


def test_cyclic_elimination_avoids_the_shared_element(u13):
    rebuilt = cyclic_elimination(u13, 0b011, 0b101, 0)
    assert rebuilt == 0b110
    assert u13.nullity(rebuilt) == u13.nullity(0b011)


def test_cyclic_elimination_matches_the_subset_scan(catalogs):
    # every cyclic pair and shared element of the catalogs with n <= 4 and of
    # seeded draws on 5-7 elements: the least cyclic set read off the level is
    # the first one the ascending subset scan over brute-force sets finds
    rng = random.Random(25)
    draws = [random_matroid(rng, 5 + k % 3) for k in range(12)]
    checked = 0
    for m in [m for n in range(1, 5) for m in catalogs[n].entries] + draws:
        by_nullity = brute_cyclic_sets_by_nullity(m)
        cyclic = set().union(*by_nullity.values())
        for a1 in cyclic:
            for a2 in cyclic:
                if a1 == a2 or a2 & ~a1 == 0:
                    continue
                for a in range(len(m.ground)):
                    if (a1 & a2) >> a & 1:
                        want = scan_cyclic_elimination(by_nullity, a1, a2, a)
                        assert cyclic_elimination(m, a1, a2, a) == want, (m, a1, a2, a)
                        checked += 1
    assert checked == 58_491


def test_base_family_witness_structure(u13):
    basis, fam = base_family_witness(u13, 0b111, 0b011, 0)
    assert basis == 0b010
    assert fam == {0: 0b011, 2: 0b110}
    assert len(fam) == u13.nullity(0b111)


def test_bigcyclo_families(u13, u23, f3):
    fam = bigcyclo_check(u13, u23, 1)
    assert fam == SetFamily([0b111])
    assert bigcyclo_check(u13, f3, 2) == SetFamily([])


# ----------------------------------------------------------- failure dumps


def test_lemma_counterexamples_dump_their_operands(u13, f3):
    # (u13, f3) has step 2; claiming step 0 asks the nullity-1 cyclic sets of
    # u13 to be dependent in f3, and the reversed pair loses {a,b} upstairs
    with pytest.raises(LemmaCounterexample) as info:
        bigcyclo_check(u13, f3, 0)
    assert str(info.value).splitlines()[0] == (
        "cyclic set {a,b} has nullity 1 but stays independent upstairs"
    )
    assert replay_dump(info.value.dump) == ({"M": u13, "L": f3}, [])
    with pytest.raises(LemmaCounterexample) as info:
        sweeps._pair_statements(f3, u13, 0, Counter())
    assert str(info.value).splitlines()[0] == "independent set {a,b} lost upstairs"
    assert replay_dump(info.value.dump) == ({"M": f3, "L": u13}, [])


def test_each_lemma_conclusion_check_dumps_its_matroid(u13):
    # the statements leave their preconditions to the caller but keep their
    # conclusion checks: on these inputs, each with a2 inside a1 or the
    # circuit outside the cyclic set, the conclusion fails with a dump of M
    for statement, args, message in (
        (cyclic_extension, (0b111, 0b011), "no root outside the first set"),
        (cyclic_elimination, (0b111, 0b011, 0), "no replacement cyclic set avoiding a in {a,b,c}"),
        (base_family_witness, (0b011, 0b101, 0),
         "rooted base family failed on {a,b}, circuit {a,c}, element a"),
    ):
        with pytest.raises(LemmaCounterexample) as info:
            statement(u13, *args)
        assert str(info.value).splitlines()[0] == message
        assert replay_dump(info.value.dump) == ({"M": u13}, [])


def test_factorization_failure_dumps_operands_and_labels(u13, f3, skewed_stage_two):
    with pytest.raises(FactorizationFailure) as info:
        factor_homotopy(u13, f3, ("x1", "x2"))
    assert str(info.value).splitlines()[0] == "stage 1 has rank 3, expected 2"
    assert replay_dump(info.value.dump) == ({"M": u13, "L": f3}, ["labels x1 x2"])


def test_a_stage_that_is_no_matroid_fails_with_its_family(u13, f3, stage_two_not_a_matroid):
    with pytest.raises(FactorizationFailure) as info:
        factor_homotopy(u13, f3, ("x1", "x2"))
    assert str(info.value).splitlines()[0] == (
        "stage 1 fails the circuit axioms: AC2 violated at {a,b}, {b,c}, element b"
    )
    docs, extra = replay_dump(info.value.dump)
    assert docs == {"M": u13, "L": f3}
    assert extra == ["labels x1 x2", "{{a,b}, {b,c}}"]


def test_stage_family_must_be_an_antichain(u13, f3, monkeypatch, tmp_path, capsys):
    # {a,b,c} at nullity 1 contains the nullity-1 cyclic sets {a,b}, ...; the
    # strong report refuses the family at AC1, and so does the remark command
    cyclic_sets = Matroid.cyclic_sets

    def tampered(self, nullity=None):
        fam = cyclic_sets(self, nullity)
        return SetFamily(fam.members + (0b111,)) if nullity == 1 else fam

    monkeypatch.setattr(Matroid, "cyclic_sets", tampered)
    fam, report = remark_circuits(u13, f3, 1)
    assert fam == SetFamily([0b011, 0b101, 0b110, 0b111])
    assert report.describe() == "AC1 violated at {a,b}, {a,b,c}"
    paths = []
    for name, m in (("u13", u13), ("f3", f3)):
        path = tmp_path / f"{name}.txt"
        path.write_text(serialize_matroid_text(m, name))
        paths.append(str(path))
    assert run_command(["remark", *paths, "--j", "1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "{a,b}", "{a,c}", "{b,c}", "{a,b,c}", "AC1 violated at {a,b}, {a,b,c}"
    ]
