"""Quotient certification, explicit lift witnesses, and factorization.

The ordered pair (M, L) on one ground set "certifies" when every circuit of
L is a union of circuits of M. For a certified pair with rank step
s = rank(L) - rank(M) >= 1, an explicit witness matroid N on the ground set
extended by s fresh elements is constructed whose contraction by the new
elements is M and whose deletion is L. Its circuits are the circuits of L
plus every set A + Z where A is cyclic in M and independent in L, Z is a
non-empty set of new elements, and nullity(A) + |Z| = s + 1.

The construction is checked, not trusted: the candidate family must pass the
strong circuit axioms and both minors must come back equal to the operands,
otherwise ConstructionFailure carries a replayable dump. factor_homotopy
reads single-step quotients off a verified witness, one per new element;
the chain ends are the operands, which the witness verified as its minors.

The checked statements (span witness, cyclic extension and elimination, the
rooted base family, the high-nullity dependence check) power the sweep
harness; each validates its own conclusion and raises LemmaCounterexample
with a replayable instance if the conclusion ever fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .axioms import AxiomReport, check_circuit_axioms
from .errors import (
    ConstructionFailure,
    FactorizationFailure,
    GroundMismatch,
    LabelClash,
    LemmaCounterexample,
    NotDependent,
    PreconditionFailure,
    QuotientViolation,
    RankMismatch,
)
from .matroid import FundamentalFamily, Matroid
from .minors import contract, delete
from .sets import SetFamily, bit_indices, fresh_labels, masks_of_size, minimal_members, submasks
from .textio import serialize_matroid_text


# ------------------------------------------------------------- certification


@dataclass
class QuotientCertificate:
    """Positive outcome: every circuit of l is a union of circuits of m.

    ``coverings`` maps each circuit of l to the tuple of circuits of m lying
    inside it; their union is the circuit itself.
    """

    m: Matroid
    l: Matroid
    step_s: int
    coverings: dict[int, tuple[int, ...]] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return True

    def describe(self) -> str:
        g = self.m.ground
        lines = [f"quotient holds with rank step {self.step_s}"]
        for circuit, cover in self.coverings.items():
            lines.append(
                f"  {g.format_mask(circuit)} = union of {g.format_family(cover)}"
            )
        return "\n".join(lines)


@dataclass
class QuotientRefusal:
    """Negative outcome: the first offending circuit and what it misses."""

    m: Matroid
    l: Matroid
    circuit: int
    uncovered: int

    @property
    def holds(self) -> bool:
        return False

    def describe(self) -> str:
        g = self.m.ground
        return (
            f"quotient fails: circuit {g.format_mask(self.circuit)} of the upper "
            f"matroid is not a union of lower circuits "
            f"(uncovered part {g.format_mask(self.uncovered)})"
        )


def certify_quotient(
    m: Matroid, l: Matroid
) -> Union[QuotientCertificate, QuotientRefusal]:
    """Test the circuit-union criterion for the ordered pair (m, l).

    Scans the circuits of l in canonical order; the refusal carries the first
    circuit that is not a union of m's circuits. On success the rank step is
    non-negative, and zero only for equal matroids; a violation of that would
    contradict a checked statement and raises LemmaCounterexample.
    """
    if m.ground != l.ground:
        raise GroundMismatch(f"{m.ground!r} vs {l.ground!r}")
    coverings: dict[int, tuple[int, ...]] = {}
    for d in l.circuits:
        cover = tuple(c for c in m.circuits if c & ~d == 0)
        union = 0
        for c in cover:
            union |= c
        if union != d:
            return QuotientRefusal(m, l, d, d & ~union)
        coverings[d] = cover
    step = l.rank() - m.rank()
    if step < 0 or (step == 0 and m != l):
        raise LemmaCounterexample(
            "rank order violated on a certified pair:\n"
            + serialize_matroid_text(m, "M")
            + serialize_matroid_text(l, "L")
        )
    return QuotientCertificate(m, l, step, coverings)


def _certified(m: Matroid, l: Matroid) -> QuotientCertificate:
    """The certificate for (m, l); QuotientViolation when the pair is refused."""
    outcome = certify_quotient(m, l)
    if not outcome.holds:
        raise QuotientViolation(outcome.circuit, outcome.uncovered, outcome.describe())
    return outcome


# ------------------------------------------------------------- lift witness


@dataclass
class LiftWitness:
    """Verified extension matroid realizing a certified pair.

    ``n`` lives on the ground set of ``m`` extended by ``x_labels``;
    ``x_family`` is the constructed block of circuits that meet the new
    elements. ``verified`` records that both minors of ``n`` were checked
    against the operands and the circuit family is exactly the constructed
    one.
    """

    m: Matroid
    l: Matroid
    n: Matroid
    x_labels: tuple[str, ...]
    x_family: SetFamily
    certificate: QuotientCertificate
    verified: bool

    @property
    def x_mask(self) -> int:
        return self.n.ground.full_mask & ~self.m.ground.full_mask


def _dump(m: Matroid, l: Matroid, labels: Sequence[str], extra: str = "") -> str:
    parts = [
        serialize_matroid_text(m, "M"),
        serialize_matroid_text(l, "L"),
        "labels " + " ".join(labels),
    ]
    if extra:
        parts.append(extra)
    return "\n".join(parts)


def lift_witness(m: Matroid, l: Matroid, x_labels: Sequence[str]) -> LiftWitness:
    """Construct and verify the extension matroid for a certified pair.

    Requires rank step s >= 1 and exactly s fresh labels. Raises
    QuotientViolation when certification fails, RankMismatch on a label-count
    or zero-step mismatch, LabelClash on label collisions, and
    ConstructionFailure (with a replayable dump) if any verification step
    fails, which would contradict the existence theorem this implements.
    """
    outcome = _certified(m, l)
    s = outcome.step_s
    if s < 1:
        raise RankMismatch("lift construction needs rank step >= 1, got 0")
    labels = tuple(x_labels)
    if len(labels) != s:
        raise RankMismatch(f"rank step is {s} but {len(labels)} labels were given")
    if len(set(labels)) != len(labels):
        raise LabelClash(f"repeated lift labels in {labels}")
    clash = set(labels) & set(m.ground.labels)
    if clash:
        raise LabelClash(f"lift labels {sorted(clash)} already in the ground set")
    big = m.ground.extend(labels)
    e_size = len(m.ground)

    x_members = []
    for c in range(1, s + 1):
        z_masks = [zm << e_size for zm in masks_of_size(s, s + 1 - c)]
        for a_set in m.cyclic_sets(nullity=c):
            if not l.is_independent(a_set):
                continue
            for zm in z_masks:
                x_members.append(a_set | zm)

    candidate = SetFamily(l.circuits.members + tuple(x_members))
    report = check_circuit_axioms(big, candidate, strong=True)
    if not report.passed:
        raise ConstructionFailure(
            "constructed family fails circuit axioms: " + report.describe(),
            _dump(m, l, labels, big.format_family(candidate)),
        )
    n = Matroid(big, candidate)
    x_mask = big.full_mask & ~m.ground.full_mask
    if contract(n, x_mask) != m:
        raise ConstructionFailure(
            "contraction of the witness does not return the lower matroid",
            _dump(m, l, labels, serialize_matroid_text(n, "N")),
        )
    if delete(n, x_mask) != l:
        raise ConstructionFailure(
            "deletion of the witness does not return the upper matroid",
            _dump(m, l, labels, serialize_matroid_text(n, "N")),
        )
    return LiftWitness(m, l, n, labels, SetFamily(x_members), outcome, True)


# ---------------------------------------------------------------- verify_pair


@dataclass
class VerifyReport:
    """Outcome of checking whether (n, x) realizes the pair (m, l)."""

    ok: bool
    contract_ok: bool
    delete_ok: bool
    contracted: Matroid
    deleted: Matroid

    def describe(self) -> str:
        if self.ok:
            return "pair verified: contraction and deletion match"
        parts = []
        if not self.contract_ok:
            parts.append(f"contraction mismatch: got {self.contracted!r}")
        if not self.delete_ok:
            parts.append(f"deletion mismatch: got {self.deleted!r}")
        return "; ".join(parts)


def verify_pair(n: Matroid, x: int, m: Matroid, l: Matroid) -> VerifyReport:
    """Check that contracting/deleting ``x`` in ``n`` gives ``m`` and ``l``."""
    n.ground.check_mask(x)
    if x == 0:
        raise PreconditionFailure("the lifted element set must be non-empty")
    rest = n.ground.restrict(n.ground.full_mask & ~x)
    if m.ground != rest or l.ground != rest:
        raise GroundMismatch(
            f"operands must live on {rest!r}; got {m.ground!r} and {l.ground!r}"
        )
    contracted = contract(n, x)
    deleted = delete(n, x)
    c_ok = contracted == m
    d_ok = deleted == l
    return VerifyReport(c_ok and d_ok, c_ok, d_ok, contracted, deleted)


# ------------------------------------------------------------- composition


def compose_witnesses(w1: LiftWitness, w2: LiftWitness) -> LiftWitness:
    """Chain two witnesses sharing a middle matroid into one witness.

    The middle matroid of ``w1`` (its upper end) must equal the lower end of
    ``w2``; the label blocks must not collide. The result is the verified
    witness for the outer pair with the concatenated label block.
    """
    if w1.l != w2.m:
        raise PreconditionFailure(
            "witnesses do not chain: upper end of the first is not the "
            "lower end of the second"
        )
    clash = set(w1.x_labels) & set(w2.x_labels)
    if clash:
        raise LabelClash(f"label blocks share {sorted(clash)}")
    return lift_witness(w1.m, w2.l, w1.x_labels + w2.x_labels)


# ------------------------------------------------------------- factorization


@dataclass
class HomotopySequence:
    """Chain of single-step quotients from m up to l along one label order."""

    steps: tuple[Matroid, ...]
    x_order: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.steps)


def factor_homotopy(
    m: Matroid,
    l: Matroid,
    x_labels: Sequence[str],
    witness: Optional[LiftWitness] = None,
) -> HomotopySequence:
    """Split a certified pair into elementary quotient steps.

    Builds (or reuses) the lift witness N and reads the chain off it: the
    ends are m and l, which the witness verified as N's minors, and middle
    stage i contracts the last s-i new elements of N and deletes the first i.
    Every stage must gain one rank and every consecutive pair must certify;
    any violation raises FactorizationFailure.

    A prebuilt ``witness`` for the same operands may be supplied; its labels
    must be ``x_labels`` up to order, which then only fixes the processing order.
    """
    labels = tuple(x_labels)
    if witness is None:
        witness = lift_witness(m, l, labels)
    elif witness.m != m or witness.l != l:
        raise PreconditionFailure("witness endpoints do not match the operands")
    elif sorted(witness.x_labels) != sorted(labels):
        raise PreconditionFailure("witness labels do not match the given order")
    n = witness.n
    k = len(labels)
    middle = []
    for i in range(1, k):
        stage = contract(n, n.ground.mask_of(labels[i:]))
        middle.append(delete(stage, stage.ground.mask_of(labels[:i])))
    steps = (m, *middle, l)
    base = m.rank()
    for i, stage in enumerate(steps):
        if stage.rank() != base + i:
            raise FactorizationFailure(
                f"stage {i} has rank {stage.rank()}, expected {base + i}"
            )
    for i in range(k):
        outcome = certify_quotient(steps[i], steps[i + 1])
        if not outcome.holds:
            raise FactorizationFailure(
                f"consecutive stages {i}, {i + 1} do not certify: "
                + outcome.describe()
            )
    return HomotopySequence(steps, labels)


# ------------------------------------------------------------ remark families


def remark_circuits(m: Matroid, l: Matroid, j: int) -> tuple[SetFamily, AxiomReport]:
    """Closed-form candidate for the j-th stage circuit family.

    Returns the circuits of l with nullity (in m) at most j, together with
    the non-empty sets cyclic in m, independent in l, of nullity exactly j,
    plus the strong-mode axiom report of that family. The family is passed
    through a defensive minimality filter that is asserted to change nothing.
    """
    outcome = _certified(m, l)
    if j < 0 or j > outcome.step_s + 1:
        raise PreconditionFailure(
            f"stage index {j} outside 0..{outcome.step_s + 1}"
        )
    fam = _remark_family(m, l, j)
    return fam, check_circuit_axioms(m.ground, fam, strong=True)


def _remark_family(m: Matroid, l: Matroid, j: int) -> SetFamily:
    """The closed-form stage-j family, checked to be an antichain."""
    c_part = [c for c in l.circuits if m.nullity(c) <= j]
    a_part = [
        a for a in m.cyclic_sets(nullity=j) if a != 0 and l.is_independent(a)
    ]
    fam = SetFamily(c_part + a_part)
    if minimal_members(fam) != fam:
        raise ConstructionFailure(
            f"stage-{j} family is not an antichain",
            _dump(m, l, (), m.ground.format_family(fam)),
        )
    return fam


@dataclass
class RemarkRow:
    """Stage-by-stage comparison of the closed form against the true minors."""

    i: int
    minor_circuits: SetFamily
    shifted: SetFamily
    shifted_agrees: bool
    literal: SetFamily
    literal_agrees: bool


def remark_comparison(m: Matroid, l: Matroid) -> list[RemarkRow]:
    """Compare both index readings of the closed form with the factor chain.

    For every stage i the circuits of the i-th chain matroid, whose ends are
    m and l, are compared against the closed-form family at index i+1 (the
    shifted reading) and at index i (the literal reading). Nothing is
    asserted here; callers decide what agreement to require.
    """
    s = _certified(m, l).step_s
    if s < 1:
        raise RankMismatch("comparison needs rank step >= 1")
    chain = factor_homotopy(m, l, fresh_labels(m.ground, s))
    families = [_remark_family(m, l, j) for j in range(s + 2)]
    rows = []
    for i, stage in enumerate(chain.steps):
        actual = stage.circuits
        shifted = families[i + 1]
        literal = families[i]
        rows.append(
            RemarkRow(i, actual, shifted, shifted == actual, literal, literal == actual)
        )
    return rows


# ---------------------------------------------------------- checked lemmas


def lemma_span_witness(m: Matroid, a: int) -> FundamentalFamily:
    """Fundamental-circuit witness for the span of a dependent set.

    Grows a maximal independent subset I of ``a`` and returns the fundamental
    circuits of the leftover elements over I. Checks that their union equals
    the union of all circuits inside ``a`` and that there are exactly
    nullity(a) of them; failure raises LemmaCounterexample.
    """
    m.ground.check_mask(a)
    if m.is_independent(a):
        raise NotDependent(m.ground.format_mask(a))
    independent = m.max_independent(a)
    fam = m.fundamental_family(independent, a & ~independent)
    inside = m.restriction_circuits(a)
    union_inside = 0
    for c in inside:
        union_inside |= c
    if fam.union_mask != union_inside or fam.size != m.nullity(a):
        raise LemmaCounterexample(
            "span witness failed on " + m.ground.format_mask(a) + "\n"
            + serialize_matroid_text(m, "M")
        )
    return fam


def cyclic_extension(m: Matroid, a1: int, a2: int) -> int:
    """Grow a cyclic set by one unit of nullity inside a cyclic union.

    Preconditions: both sets cyclic, distinct, and ``a2`` not contained in
    ``a1`` (the containment-free direction is the one that admits a fresh
    circuit to pull in). Returns a cyclic subset of the union with nullity
    exactly one more than ``a1``'s, built by extending a maximal independent
    set of ``a1`` across the union and adding one fundamental circuit rooted
    outside ``a1``.
    """
    m.ground.check_mask(a1 | a2)
    if not (m.is_cyclic(a1) and m.is_cyclic(a2)):
        raise PreconditionFailure("both arguments must be cyclic")
    if a1 == a2:
        raise PreconditionFailure("arguments must be distinct")
    if a2 & ~a1 == 0:
        raise PreconditionFailure(
            "second argument must not be contained in the first"
        )
    i1 = m.max_independent(a1)
    union = a1 | a2
    grown = i1
    for b in bit_indices(union & ~a1 & ~i1):
        cand = grown | (1 << b)
        if m.is_independent(cand):
            grown = cand
    roots = union & ~grown & ~a1
    if not roots:
        raise LemmaCounterexample(
            "no root outside the first set\n" + serialize_matroid_text(m, "M")
        )
    q = next(bit_indices(roots))
    result = a1 | m.fundamental_circuit(grown, q)
    target = m.nullity(a1) + 1
    if not (m.is_cyclic(result) and result & ~union == 0 and m.nullity(result) == target):
        raise LemmaCounterexample(
            "extension result invalid on "
            + m.ground.format_mask(a1)
            + ", "
            + m.ground.format_mask(a2)
            + "\n"
            + serialize_matroid_text(m, "M")
        )
    return result


def cyclic_elimination(m: Matroid, a1: int, a2: int, a: int) -> int:
    """Rebuild a cyclic set of the same nullity avoiding one shared element.

    Preconditions: both sets cyclic, distinct, ``a2`` not contained in
    ``a1``, and element ``a`` common to both. Returns a cyclic subset of the
    union avoiding ``a`` with nullity equal to ``a1``'s. Decided by an
    exhaustive scan over subsets of the union minus ``a``, so a miss is a
    genuine counterexample and raises LemmaCounterexample.
    """
    m.ground.check_mask(a1 | a2)
    if not (m.is_cyclic(a1) and m.is_cyclic(a2)):
        raise PreconditionFailure("both arguments must be cyclic")
    if a1 == a2:
        raise PreconditionFailure("arguments must be distinct")
    if a2 & ~a1 == 0:
        raise PreconditionFailure(
            "second argument must not be contained in the first"
        )
    bit = 1 << a
    if not (a1 & bit and a2 & bit):
        raise PreconditionFailure("element must belong to both sets")
    target_nullity = m.nullity(a1)
    region = (a1 | a2) & ~bit
    for cand in submasks(region):
        if m.nullity(cand) == target_nullity and m.is_cyclic(cand):
            return cand
    raise LemmaCounterexample(
        "no replacement cyclic set avoiding "
        + m.ground.labels[a]
        + " in "
        + m.ground.format_mask(a1 | a2)
        + "\n"
        + serialize_matroid_text(m, "M")
    )


def base_family_witness(
    m: Matroid, a: int, d_circuit: int, d: int
) -> tuple[int, FundamentalFamily]:
    """Basis avoiding a chosen element whose fundamental family spans ``a``.

    Preconditions: ``a`` cyclic, ``d_circuit`` a circuit inside ``a``, and
    ``d`` an element of that circuit. Builds a basis B with d outside it such
    that the fundamental circuits of a's leftover elements over B number
    nullity(a), include ``d_circuit`` (rooted at d), and union to ``a``.
    """
    m.ground.check_mask(a)
    if not m.is_cyclic(a):
        raise PreconditionFailure("first argument must be cyclic")
    if d_circuit not in m.circuits:
        raise PreconditionFailure("second argument must be a circuit")
    if d_circuit & ~a:
        raise PreconditionFailure("the circuit must lie inside the cyclic set")
    if not d_circuit >> d & 1:
        raise PreconditionFailure("the element must belong to the circuit")
    seed = d_circuit & ~(1 << d)
    independent = seed
    for b in bit_indices(a & ~seed):
        cand = independent | (1 << b)
        if m.is_independent(cand):
            independent = cand
    basis = independent
    for b in bit_indices(m.ground.full_mask & ~a & ~independent):
        cand = basis | (1 << b)
        if m.is_independent(cand):
            basis = cand
    roots = a & ~independent
    fam = m.fundamental_family(basis, roots)
    ok = (
        basis >> d & 1 == 0
        and fam.circuits.get(d) == d_circuit
        and fam.union_mask == a
        and fam.size == m.nullity(a)
        and basis.bit_count() == m.rank()
    )
    if not ok:
        raise LemmaCounterexample(
            "rooted base family failed on "
            + m.ground.format_mask(a)
            + ", circuit "
            + m.ground.format_mask(d_circuit)
            + ", element "
            + m.ground.labels[d]
            + "\n"
            + serialize_matroid_text(m, "M")
        )
    return basis, fam


def bigcyclo_check(m: Matroid, l: Matroid) -> SetFamily:
    """Check that every cyclic set of m one nullity above the step is
    dependent in l.

    Requires a certified pair; returns the family of checked sets. A cyclic
    set of nullity step+1 that is independent in l would contradict the
    construction's minimality and raises LemmaCounterexample.
    """
    outcome = _certified(m, l)
    s = outcome.step_s
    checked = m.cyclic_sets(nullity=s + 1)
    for a in checked:
        if l.is_independent(a):
            raise LemmaCounterexample(
                "cyclic set "
                + m.ground.format_mask(a)
                + f" has nullity {s + 1} but stays independent upstairs\n"
                + serialize_matroid_text(m, "M")
                + serialize_matroid_text(l, "L")
            )
    return checked
