"""Quotient certification, explicit lift witnesses, and factorization.

The ordered pair (M, L) on one ground set "certifies" when every circuit of
L is a union of circuits of M. For a certified pair with rank step
s = rank(L) - rank(M) >= 1, an explicit witness matroid N on the ground set
extended by s fresh elements is constructed whose contraction by the new
elements is M and whose deletion is L. Its circuits are the circuits of L
plus every set A + Z where A is cyclic in M and independent in L, Z is a
non-empty set of new elements, and nullity(A) + |Z| = s + 1.

The construction is checked, not trusted: the candidate family must pass the
strong circuit axioms and verify_pair must find both minors equal to the
operands, otherwise ConstructionFailure is raised. factor_homotopy builds
its chain of single-step quotients from the closed-form stage families (the
Higgs factorization), never from N; FactorizationFailure is raised if a
middle family fails its circuit check or a stage its rank or certify check.
remark_comparison checks it against N's minors, ``LiftWitness.stage``.

The checked statements (span witness, cyclic extension and elimination, the
rooted base family, the high-nullity check) are sweep bodies whose callers
meet their preconditions; each checks its conclusion and raises
LemmaCounterexample if it fails. All three failures are CheckFailures whose
``dump`` (``textio.dump_text``) replays their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Optional, Sequence, Union

from .axioms import AxiomReport, check_circuit_axioms
from .errors import (
    ConstructionFailure,
    FactorizationFailure,
    GroundMismatch,
    LabelClash,
    LemmaCounterexample,
    PreconditionFailure,
    QuotientViolation,
    RankMismatch,
)
from .matroid import Matroid, union_inside
from .minors import contract, delete
from .sets import GroundSet, SetFamily, bit_indices, masks_of_size
from .textio import dump_text


# ------------------------------------------------------------- certification


@dataclass(slots=True)
class QuotientCertificate:
    """Positive outcome: every circuit of l is a union of circuits of m.

    Only the operands and the rank step are stored; ``holds`` is a class
    constant. ``coverings`` is computed when read: it maps each circuit of l,
    in family order, to the circuits of m inside it, whose union it is.
    """

    holds = True
    m: Matroid
    l: Matroid
    step_s: int

    @property
    def coverings(self) -> dict[int, tuple[int, ...]]:
        inner = self.m.circuits.members
        return {d: tuple(c for c in inner if c & ~d == 0) for d in self.l.circuits}

    def describe(self) -> str:
        g = self.m.ground
        lines = [f"quotient holds with rank step {self.step_s}"]
        for circuit, cover in self.coverings.items():
            lines.append(
                f"  {g.format_mask(circuit)} = union of {g.format_family(cover)}"
            )
        return "\n".join(lines)


@dataclass(slots=True)
class QuotientRefusal:
    """Negative outcome: the first offending circuit and what it misses;
    ``holds`` is a class constant."""

    holds = False
    m: Matroid
    l: Matroid
    circuit: int
    uncovered: int

    def describe(self) -> str:
        g = self.m.ground
        return (
            f"quotient fails: circuit {g.format_mask(self.circuit)} of the upper "
            f"matroid is not a union of lower circuits "
            f"(uncovered part {g.format_mask(self.uncovered)})"
        )


def certify_quotient(m: Matroid, l: Matroid) -> Union[QuotientCertificate, QuotientRefusal]:
    """Test the circuit-union criterion for the ordered pair (m, l).

    Scans the circuits of l in canonical order; the refusal carries the first
    circuit d that is not a union of m's circuits, and the part of d outside
    their union. A certificate lists its covers only when read. On success the
    rank step is non-negative, and zero only for equal matroids; a violation
    would contradict a checked statement and raises LemmaCounterexample.
    Operands sharing one ``GroundSet`` object skip the label comparison. No
    circuit of l is mask-checked: it is a mask on l's ground, equal to m's.
    """
    if m.ground is not l.ground and m.ground != l.ground:
        raise GroundMismatch(f"{m.ground!r} vs {l.ground!r}")
    inner = m.circuits.members
    for d in l.circuits.members:
        covered = union_inside(inner, d)
        if covered != d:
            return QuotientRefusal(m, l, d, d & ~covered)
    step = l.rank() - m.rank()
    if step < 0 or (step == 0 and m != l):
        raise LemmaCounterexample(
            "rank order violated on a certified pair:", dump_text(("M", m), ("L", l))
        )
    return QuotientCertificate(m, l, step)


def _certified(m: Matroid, l: Matroid) -> QuotientCertificate:
    """The certificate for (m, l); QuotientViolation when the pair is refused."""
    outcome = certify_quotient(m, l)
    if not outcome.holds:
        raise QuotientViolation(outcome)
    return outcome


# ------------------------------------------------------------- lift witness


@dataclass
class LiftWitness:
    """Extension matroid ``n`` realizing the certified pair (``m``, ``l``).

    ``n`` lives on the ground set of ``m`` extended by ``x_labels``, which
    follow the ground in order. A witness exists only once ``lift_witness``
    has checked that contracting the new elements gives ``m`` and deleting
    them gives ``l``; the rank step is ``len(x_labels)``.
    """

    m: Matroid
    l: Matroid
    n: Matroid
    x_labels: tuple[str, ...]

    def stage(self, deleted: int) -> Matroid:
        """``n`` minus the new elements in ``deleted``, contracted by the others.

        Bit k of ``deleted`` stands for ``x_labels[k]``; ``stage(0)`` returns
        ``m`` and the full mask ``l``. Minors on disjoint sets commute, and
        deleting first leaves a smaller matroid to contract.
        """
        if deleted == 0:
            return self.m
        if deleted == (1 << len(self.x_labels)) - 1:
            return self.l
        e = len(self.m.ground)
        rest = delete(self.n, deleted << e)
        return contract(rest, rest.ground.full_mask >> e << e)


def _dump(m: Matroid, l: Matroid, labels: Sequence[str], *extra: str) -> str:
    """Failure dump of the operands and lift labels, then ``extra`` lines."""
    return dump_text(("M", m), ("L", l), extra=("labels " + " ".join(labels), *extra))


def _lift_inputs(
    m: Matroid, l: Matroid, x_labels: Sequence[str]
) -> tuple[QuotientCertificate, tuple[str, ...], GroundSet]:
    """Certificate, labels and extended ground; raises what lift_witness documents."""
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
    return outcome, labels, m.ground.extend(labels)  # InvalidGroundSet on a bad label


def lift_witness(m: Matroid, l: Matroid, x_labels: Sequence[str]) -> LiftWitness:
    """Construct and verify the extension matroid for a certified pair.

    Requires rank step s >= 1 and exactly s fresh labels. Raises
    QuotientViolation when certification fails, RankMismatch on a label-count
    or zero-step mismatch, LabelClash on label collisions, InvalidGroundSet on
    a bad label, and ConstructionFailure (with a replayable dump) if the
    family fails the strong axioms or verify_pair rejects N, which would
    contradict the existence theorem.
    """
    outcome, labels, big = _lift_inputs(m, l, x_labels)
    s = outcome.step_s
    e_size = len(m.ground)

    x_members = []
    for c in range(1, s + 1):
        z_masks = [zm << e_size for zm in masks_of_size(s, s + 1 - c)]
        for a_set in _free_cyclic_sets(m, l, c):
            for zm in z_masks:
                x_members.append(a_set | zm)

    candidate = SetFamily(l.circuits.members + tuple(x_members))
    report = check_circuit_axioms(big, candidate, strong=True)
    if not report.passed:
        raise ConstructionFailure(
            "constructed family fails circuit axioms: " + report.describe(),
            _dump(m, l, labels, big.format_family(candidate)),
        )
    n = Matroid._trusted(big, candidate)
    check = verify_pair(n, big.full_mask & ~m.ground.full_mask, m, l)
    if not check.ok:
        raise ConstructionFailure(check.describe(), _dump(m, l, labels, dump_text(("N", n))))
    return LiftWitness(m, l, n, labels)


# ---------------------------------------------------------------- verify_pair


@dataclass
class VerifyReport:
    """Outcome of checking whether (n, x) realizes the pair (m, l)."""

    contract_ok: bool
    delete_ok: bool
    contracted: Matroid
    deleted: Matroid

    @property
    def ok(self) -> bool:
        return self.contract_ok and self.delete_ok

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
    """Check that contracting/deleting ``x`` in ``n`` gives ``m`` and ``l``.

    ``x`` must be a non-empty proper subset of n's ground (PreconditionFailure,
    DeletesEverything), and both operands must live on the rest of it
    (GroundMismatch).
    """
    if x == 0:
        raise PreconditionFailure("the lifted element set must be non-empty")
    contracted = contract(n, x)  # UnknownLabel, DeletesEverything on a bad x
    rest = contracted.ground
    if m.ground != rest or l.ground != rest:
        raise GroundMismatch(
            f"operands must live on {rest!r}; got {m.ground!r} and {l.ground!r}"
        )
    deleted = delete(n, x)
    return VerifyReport(contracted == m, deleted == l, contracted, deleted)


# ------------------------------------------------------------- factorization


@dataclass
class HomotopySequence:
    """Chain of single-step quotients from m up to l along one label order."""

    steps: tuple[Matroid, ...]


def factor_homotopy(
    m: Matroid,
    l: Matroid,
    x_labels: Sequence[str],
    witness: Optional[LiftWitness] = None,
) -> HomotopySequence:
    """Split a certified pair into elementary quotient steps.

    The ends are m and l, and middle stage i, of rank min(r_l(A), r_m(A) + i),
    is the closed-form family at i + 1; no N is built or read. Without a
    ``witness`` the labels are checked as ``lift_witness`` checks them. A
    ``witness`` for the same operands, its labels ``x_labels`` up to order,
    stands for those checks. The chain does not depend on the label order.
    Every middle family must pass the weak circuit axioms, every stage gain
    one rank and consecutive stages certify, else FactorizationFailure.
    """
    labels = tuple(x_labels)
    k = len(labels)
    if witness is None:
        _lift_inputs(m, l, labels)
    elif witness.m != m or witness.l != l:
        raise PreconditionFailure("witness endpoints do not match the operands")
    elif sorted(witness.x_labels) != sorted(labels):
        raise PreconditionFailure("witness labels do not match the given order")
    middle = []
    for i in range(1, k):
        fam = _remark_family(m, l, i + 1)
        report = check_circuit_axioms(m.ground, fam)
        if not report.passed:
            raise FactorizationFailure(
                f"stage {i} fails the circuit axioms: " + report.describe(),
                _dump(m, l, labels, m.ground.format_family(fam)),
            )
        middle.append(Matroid._trusted(m.ground, fam))
    steps = (m, *middle, l)
    base = m.rank()
    for i, stage in enumerate(steps):
        if stage.rank() != base + i:
            raise FactorizationFailure(
                f"stage {i} has rank {stage.rank()}, expected {base + i}", _dump(m, l, labels)
            )
    for i in range(k):
        outcome = certify_quotient(steps[i], steps[i + 1])
        if not outcome.holds:
            raise FactorizationFailure(
                f"consecutive stages {i}, {i + 1} do not certify: " + outcome.describe(),
                _dump(m, l, labels),
            )
    return HomotopySequence(steps)


# ------------------------------------------------------------ remark families


def remark_circuits(m: Matroid, l: Matroid, j: int) -> tuple[SetFamily, AxiomReport]:
    """Closed-form candidate for the j-th stage circuit family.

    Returns the circuits of l with nullity (in m) at most j, together with
    the non-empty sets cyclic in m, independent in l, of nullity exactly j,
    plus the strong-mode axiom report of that family; a family that is no
    antichain fails it at AC1.
    """
    outcome = _certified(m, l)
    if j < 0 or j > outcome.step_s + 1:
        raise PreconditionFailure(
            f"stage index {j} outside 0..{outcome.step_s + 1}"
        )
    fam = _remark_family(m, l, j)
    return fam, check_circuit_axioms(m.ground, fam, strong=True)


def _free_cyclic_sets(m: Matroid, l: Matroid, j: int) -> list[int]:
    """The non-empty cyclic sets of m of nullity j that are independent in l."""
    return [a for a in m.cyclic_sets(nullity=j) if a and l.is_independent(a)]


def _remark_family(m: Matroid, l: Matroid, j: int) -> SetFamily:
    """The closed-form stage-j family; its callers check or compare it."""
    c_part = [c for c in l.circuits if m.nullity(c) <= j]
    return SetFamily(c_part + _free_cyclic_sets(m, l, j))


@dataclass
class RemarkRow:
    """Stage-by-stage comparison of the closed form against the true minors."""

    i: int
    minor_circuits: SetFamily
    shifted: SetFamily
    shifted_agrees: bool
    literal: SetFamily
    literal_agrees: bool


def remark_comparison(witness: LiftWitness) -> list[RemarkRow]:
    """Compare N's minors with the closed-form stages of ``factor_homotopy``.

    This is where the closed form is cross-checked: stage i is
    ``witness.stage`` with the first i new labels deleted. Its circuits are
    compared against the closed-form family at index i+1 (the shifted
    reading, the stage ``factor_homotopy`` builds) and at index i (the
    literal reading). The witness was checked when it was built, so the
    pair is not certified again. Nothing is asserted here; callers decide
    what agreement to require.
    """
    m, l, s = witness.m, witness.l, len(witness.x_labels)
    families = [_remark_family(m, l, j) for j in range(s + 2)]
    rows = []
    for i in range(s + 1):
        actual = witness.stage((1 << i) - 1).circuits
        shifted = families[i + 1]
        literal = families[i]
        rows.append(
            RemarkRow(i, actual, shifted, shifted == actual, literal, literal == actual)
        )
    return rows


# ---------------------------------------------------------- checked lemmas


def lemma_span_witness(m: Matroid, a: int) -> dict[int, int]:
    """Fundamental-circuit witness for the span of a dependent set.

    Grows a maximal independent subset I of ``a`` and returns the fundamental
    circuits of the leftover elements over I. Checks that their union is
    ``m.cyclic_part(a)``, the union of all circuits inside ``a``, and that
    there are exactly nullity(a) of them; failure raises LemmaCounterexample.
    """
    independent = m.max_independent(a)
    fam = m.fundamental_family(independent, a & ~independent)
    if reduce(or_, fam.values(), 0) != m.cyclic_part(a) or len(fam) != m.nullity(a):
        raise LemmaCounterexample(
            "span witness failed on " + m.ground.format_mask(a), dump_text(("M", m))
        )
    return fam


def cyclic_extension(m: Matroid, a1: int, a2: int) -> int:
    """Grow a cyclic set by one unit of nullity inside a cyclic union.

    The caller passes two distinct cyclic sets with ``a2`` not contained in
    ``a1`` (the containment-free direction is the one that admits a fresh
    circuit to pull in). Returns a cyclic subset of the union with nullity
    exactly one more than ``a1``'s, built by extending a maximal independent
    set of ``a1`` across the union and adding one fundamental circuit rooted
    outside ``a1``.
    """
    i1 = m.max_independent(a1)
    union = a1 | a2
    grown = m.max_independent(union & ~a1 | i1, start=i1)
    roots = union & ~grown & ~a1
    if not roots:
        raise LemmaCounterexample("no root outside the first set", dump_text(("M", m)))
    q = next(bit_indices(roots))
    result = a1 | m.fundamental_circuit(grown, q)
    target = m.nullity(a1) + 1
    if not (m.is_cyclic(result) and result & ~union == 0 and m.nullity(result) == target):
        raise LemmaCounterexample(
            f"extension result invalid on {m.ground.format_mask(a1)}, "
            f"{m.ground.format_mask(a2)}",
            dump_text(("M", m)),
        )
    return result


def cyclic_elimination(m: Matroid, a1: int, a2: int, a: int) -> int:
    """Rebuild a cyclic set of the same nullity avoiding one shared element.

    The caller passes ``a1`` and ``a2`` as ``cyclic_extension`` takes them,
    and an element ``a`` common to both. Returns a cyclic subset of the
    union avoiding ``a`` with nullity equal to ``a1``'s: the least such set
    by mask value, read off ``m.cyclic_sets`` at that nullity rather than
    found by a scan over subsets. Every cyclic set of that nullity is looked
    at, so a miss is a genuine counterexample and raises LemmaCounterexample.
    """
    region = (a1 | a2) & ~(1 << a)
    inside = [c for c in m.cyclic_sets(nullity=m.nullity(a1)) if c & ~region == 0]
    if inside:
        return min(inside)
    raise LemmaCounterexample(
        f"no replacement cyclic set avoiding {m.ground.labels[a]} in "
        f"{m.ground.format_mask(a1 | a2)}",
        dump_text(("M", m)),
    )


def base_family_witness(
    m: Matroid, a: int, d_circuit: int, d: int
) -> tuple[int, dict[int, int]]:
    """Basis avoiding a chosen element whose fundamental family spans ``a``.

    The caller passes a cyclic ``a``, a circuit ``d_circuit`` inside it, and
    an element ``d`` of that circuit. Builds a basis B with d outside it such
    that the fundamental circuits of a's leftover elements over B number
    nullity(a), include ``d_circuit`` (rooted at d), and union to ``a``.
    """
    independent = m.max_independent(a, start=d_circuit & ~(1 << d))
    basis = m.max_independent(m.ground.full_mask & ~a | independent, start=independent)
    roots = a & ~independent
    fam = m.fundamental_family(basis, roots)
    ok = (
        basis >> d & 1 == 0
        and fam.get(d) == d_circuit
        and reduce(or_, fam.values(), 0) == a
        and len(fam) == m.nullity(a)
        and basis.bit_count() == m.rank()
    )
    if not ok:
        raise LemmaCounterexample(
            f"rooted base family failed on {m.ground.format_mask(a)}, circuit "
            f"{m.ground.format_mask(d_circuit)}, element {m.ground.labels[d]}",
            dump_text(("M", m)),
        )
    return basis, fam


def bigcyclo_check(m: Matroid, l: Matroid, s: int) -> SetFamily:
    """Check that every cyclic set of m one nullity above the step is
    dependent in l.

    Requires a pair the caller has already certified, with its rank step
    ``s``; the pair is not certified again. Returns the family of checked
    sets. A cyclic set of nullity s+1 that is independent in l would
    contradict the construction's minimality and raises LemmaCounterexample.
    """
    checked = m.cyclic_sets(nullity=s + 1)
    for a in checked:
        if l.is_independent(a):
            raise LemmaCounterexample(
                f"cyclic set {m.ground.format_mask(a)} has nullity {s + 1} but "
                "stays independent upstairs",
                dump_text(("M", m), ("L", l)),
            )
    return checked
