"""Axiom checker tests.

The heavyweight check here plays the circuit checker against a brute-force
independence oracle over every clutter on a small ground set: a family of
incomparable nonempty sets passes the circuit axioms exactly when the sets
minimal-dependent under the induced independence system are the family
itself and that system satisfies the augmentation axiom.
"""

import random
from collections import Counter
from itertools import combinations

from matlift.axioms import check_basis_exchange, check_circuit_axioms
from matlift.sets import SetFamily, default_ground

from helpers import mk, per_element_circuit_axioms, submasks


def _families(n):
    masks = list(range(1, 1 << n))
    for r in range(len(masks) + 1):
        if r > 6:
            break
        for combo in combinations(masks, r):
            yield combo


def _is_clutter(combo):
    return all(
        not (a & ~b == 0 or b & ~a == 0) for a, b in combinations(combo, 2)
    )


def _induced_independents(n, combo):
    return [
        mask
        for mask in range(1 << n)
        if all(c & ~mask != 0 for c in combo)
    ]


def _augmentation_holds(independents, n):
    indep = set(independents)
    for a in indep:
        for b in indep:
            if b.bit_count() <= a.bit_count():
                continue
            if not any(
                b >> i & 1 and not a >> i & 1 and (a | 1 << i) in indep
                for i in range(n)
            ):
                return False
    return True


def test_circuit_checker_matches_independence_oracle_n3():
    # every antichain of nonempty subsets of a 3-set, both verdicts compared
    n = 3
    g = default_ground(n)
    agreements = 0
    for combo in _families(n):
        if not _is_clutter(combo):
            continue
        fam = SetFamily(combo)
        fast = check_circuit_axioms(g, fam).passed
        indep = _induced_independents(n, combo)
        slow = _augmentation_holds(indep, n)
        assert fast == slow, f"disagreement on {fam!r}"
        agreements += 1
    # 19 clutters on a 3-set, the empty family included
    assert agreements == 19


def test_circuit_checker_matches_independence_oracle_n4():
    n = 4
    g = default_ground(n)
    agreements = passed = 0
    for combo in _families(n):
        if not _is_clutter(combo):
            continue
        fam = SetFamily(combo)
        fast = check_circuit_axioms(g, fam).passed
        slow = _augmentation_holds(_induced_independents(n, combo), n)
        assert fast == slow, f"disagreement on {fam!r}"
        agreements += 1
        passed += fast
    # 167 clutters on a 4-set (no antichain there exceeds 6 members), and
    # the passing ones are exactly the 68 labelled matroids
    assert agreements == 167
    assert passed == 68


def test_strong_form_follows_from_weak(catalogs):
    for n in range(1, 6):
        for m in catalogs[n].entries:
            report = check_circuit_axioms(m.ground, m.circuits, strong=True)
            assert report.passed, report.describe()


def test_ac0_and_ac1_violations():
    g = default_ground(3)
    rep = check_circuit_axioms(g, SetFamily([0]))
    assert not rep.passed and rep.violation.axiom == "AC0"
    rep = check_circuit_axioms(g, SetFamily([0b1, 0b11]))
    assert not rep.passed and rep.violation.axiom == "AC1"


def test_ac2_violation_witness_is_replayable():
    g = default_ground(3)
    fam = SetFamily([0b011, 0b101])  # eliminating the shared bit finds nothing
    rep = check_circuit_axioms(g, fam)
    assert not rep.passed
    v = rep.violation
    assert v.axiom == "AC2"
    c1, c2, e = v.witness
    assert {c1, c2} == {0b011, 0b101} and e == 0
    assert "AC2" in rep.describe()


def test_strong_violation_names_the_missing_element():
    g = default_ground(5)
    fam = SetFamily([0b01110, 0b10011, 0b10101])
    # the first pair meets at 1, and 0b10101 eliminates it but misses d = 3 of
    # 0b01110; the weak scan passes both pairs through 0b01110 and fails on the
    # third, whose union holds no other member
    rep = check_circuit_axioms(g, fam, strong=True)
    assert _verdict(rep) == ("AC2!", (0b01110, 0b10011, 1, 3))
    rep_weak = check_circuit_axioms(g, fam)
    assert _verdict(rep_weak) == ("AC2", (0b10011, 0b10101, 0))


def _verdict(report):
    v = report.violation
    return v and (v.axiom, v.witness)


def _random_family(rng, n):
    """One to 8 random masks on n elements, the empty set now and then, and
    three times in four reduced to a clutter, so every axiom gets to fail."""
    masks = {rng.randrange(1 << n) for _ in range(rng.randint(1, 8))}
    if rng.random() < 0.75:
        masks.discard(0)
        masks = {a for a in masks if not any(b != a and b & ~a == 0 for b in masks)}
    return SetFamily(masks)


def test_circuit_checker_matches_per_element_oracle_on_random_families():
    rng = random.Random(24)
    seen = Counter()
    for k in range(20000):
        n = 2 + k % 6
        fam = _random_family(rng, n)
        g = default_ground(n)
        for strong in (False, True):
            verdict = _verdict(check_circuit_axioms(g, fam, strong=strong))
            assert verdict == per_element_circuit_axioms(fam, strong), (fam, strong)
            seen[verdict and verdict[0]] += 1
    assert {"AC0", "AC1", "AC2", "AC2!", None} <= set(seen), seen


def test_circuit_checker_matches_per_element_oracle_on_catalogs(catalogs):
    # every entry passes; dropping one circuit leaves clutters that mostly fail
    failed = 0
    for n in range(1, 6):
        for m in catalogs[n].entries:
            ms = m.circuits.members
            families = [m.circuits] + [SetFamily(ms[:i] + ms[i + 1:]) for i in range(len(ms))]
            for fam in families:
                for strong in (False, True):
                    verdict = _verdict(check_circuit_axioms(m.ground, fam, strong=strong))
                    assert verdict == per_element_circuit_axioms(fam, strong)
                    failed += verdict is not None
            assert per_element_circuit_axioms(m.circuits, True) is None
    assert failed > 0


def test_basis_exchange_axioms():
    g = default_ground(3)
    assert check_basis_exchange(g, SetFamily([0b011, 0b101, 0b110])).passed
    assert not check_basis_exchange(g, SetFamily([])).passed
    rep = check_basis_exchange(g, SetFamily([0b001, 0b011]))
    assert not rep.passed and rep.violation.axiom == "AB1"
    g4 = default_ground(4)
    rep = check_basis_exchange(g4, SetFamily([0b0011, 0b1100]))
    assert not rep.passed and rep.violation.axiom == "AB2"


def test_report_describe_names_elements(u13):
    rep = check_circuit_axioms(u13.ground, u13.circuits, strong=True)
    assert rep.passed
    assert rep.describe() == "all axioms hold"
