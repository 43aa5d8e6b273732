"""The core matroid type, represented by its family of circuits.

A matroid here is a ground set plus the family of its circuits (the minimal
dependent sets), stored canonically. Holding a ``Matroid`` still proves
that its family passed a circuit-axiom check. The constructor runs the weak
check itself; ``Matroid._from_report`` is the one path whose check ran before
the call, and it takes the passing report of that check, never a bare family.
Everything else (rank, bases, duals, cyclic sets) is derived on demand.

Equality is label-sensitive: two matroids are equal iff they have the same
ground labels in the same order and the same circuit family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .axioms import AxiomReport, check_basis_exchange, check_circuit_axioms
from .errors import (
    EliminationFailure,
    EmptyBasisFamily,
    EmptyCircuit,
    ExchangeFailure,
    GroundTooLarge,
    NotClutter,
    NotIndependent,
    PreconditionFailure,
    StillIndependent,
    UnequalBasisSizes,
)
from .sets import GroundSet, SetFamily, bit_indices, masks_of_size

# cyclic_sets without a filter refuses ground sets above this many elements,
# since it returns every cyclic set and there can be up to 2^n of them;
# callers must pass a nullity filter or test sets pointwise.
CYCLIC_ENUM_CAP = 16

# The cap bounds dual's basis scan, which visits C(n, r) masks, and
# random_matroid's walk over its bases, which keeps one entry per basis;
# both refuse larger ground sets before any work. Nothing keeps a byte per
# subset, and from_bases reads its circuits off the given bases, so it takes
# no cap.
SUBSET_TABLE_CAP = 20


@dataclass
class FundamentalFamily:
    """Fundamental circuits of a set of root elements over one independent set.

    ``circuits`` maps each root (an element index) to the unique circuit
    inside the independent set plus that root.
    """

    roots: int
    circuits: dict[int, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return self.roots.bit_count()

    @property
    def union_mask(self) -> int:
        out = 0
        for c in self.circuits.values():
            out |= c
        return out


class Matroid:
    """Matroid on a labelled ground set, given by its circuits."""

    # _dual stays unset until dual() first runs
    __slots__ = ("ground", "circuits", "_rank_memo", "_dual")

    def __init__(self, ground: GroundSet, circuits: SetFamily | Iterable[int]):
        fam = circuits if isinstance(circuits, SetFamily) else SetFamily(circuits)
        self._adopt(check_circuit_axioms(ground, fam, strong=False))

    def _adopt(self, report: AxiomReport) -> None:
        """Take the ground and family of a passing report; raise on a failed one."""
        if not report.passed:
            v = report.violations[0]
            if v.axiom == "AC0":
                raise EmptyCircuit("the empty set cannot be a circuit")
            if v.axiom == "AC1":
                raise NotClutter(*v.witness)
            raise EliminationFailure(*v.witness[:3])
        self.ground = report.ground
        self.circuits = report.family
        self._rank_memo: dict[int, int] = {}

    # --------------------------------------------------------- constructors

    @classmethod
    def _from_report(cls, report: AxiomReport) -> "Matroid":
        """The matroid of a family that already passed ``check_circuit_axioms``.

        For callers that hold the passing report (weak or strong) of that
        check, so the family is not scanned again. A failed report raises
        what the constructor raises on the same violation.
        """
        m = cls.__new__(cls)
        m._adopt(report)
        return m

    @classmethod
    def from_bases(cls, ground: GroundSet, bases: SetFamily | Iterable[int]) -> "Matroid":
        """Build a matroid from its bases (checked for the exchange axiom).

        The circuits are read off the bases by ``circuits_of_bases``, so no
        subset is scanned and every ground size is accepted.
        """
        fam = bases if isinstance(bases, SetFamily) else SetFamily(bases)
        report = check_basis_exchange(ground, fam)
        if not report.passed:
            v = report.violations[0]
            if v.axiom == "AB0":
                raise EmptyBasisFamily("need at least one basis")
            if v.axiom == "AB1":
                raise UnequalBasisSizes(
                    f"{ground.format_mask(v.witness[0])} and "
                    f"{ground.format_mask(v.witness[1])} differ in size"
                )
            raise ExchangeFailure(*v.witness)
        return cls(ground, circuits_of_bases(ground, fam.members))

    # ------------------------------------------------------------- equality

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matroid)
            and self.ground == other.ground
            and self.circuits == other.circuits
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.circuits))

    def __repr__(self) -> str:
        return f"Matroid({self.ground!r}, {self.ground.format_family(self.circuits)})"

    # ----------------------------------------------------- dependence, rank

    def is_dependent(self, a: int) -> bool:
        self.ground.check_mask(a)
        return any(c & ~a == 0 for c in self.circuits)

    def is_independent(self, a: int) -> bool:
        return not self.is_dependent(a)

    def rank(self, a: Optional[int] = None) -> int:
        """Rank of ``a`` (default: the whole ground set), memoized per subset."""
        if a is None:
            a = self.ground.full_mask
        memo = self._rank_memo
        got = memo.get(a)
        if got is None:
            got = memo[a] = self.max_independent(a).bit_count()
        return got

    def max_independent(self, a: int, start: int = 0) -> int:
        """A maximal independent subset of ``a`` that contains ``start``.

        ``start`` must be an independent subset of ``a``; the other elements
        of ``a`` are added greedily in ascending ground order whenever the set
        stays independent.
        """
        self.ground.check_mask(a)
        circuits = self.circuits.members
        current = start
        for i in bit_indices(a & ~start):
            cand = current | (1 << i)
            if not any(c & ~cand == 0 for c in circuits):
                current = cand
        return current

    def nullity(self, a: Optional[int] = None) -> int:
        if a is None:
            a = self.ground.full_mask
        return a.bit_count() - self.rank(a)

    # ------------------------------------------------------------ bases, dual

    def bases(self) -> SetFamily:
        """All bases, as the r-subsets that contain no circuit. The scan visits
        C(n, r) masks, so ground sets above ``SUBSET_TABLE_CAP`` are refused first."""
        require_subset_table(self.ground)
        circuits = self.circuits.members
        return SetFamily(
            b
            for b in masks_of_size(len(self.ground), self.rank())
            if all(c & ~b for c in circuits)
        )

    def dual(self) -> "Matroid":
        """Dual matroid, whose bases are the complements of this matroid's bases.

        Its circuits are read off those complements by ``circuits_of_bases``.
        No exchange check runs on the complements, since duality implies it;
        the constructor checks the circuits. ``bases`` refuses ground sets
        above ``SUBSET_TABLE_CAP``.

        The result is built once and kept on this matroid. It does not point
        back, so ``m.dual().dual()`` builds a second dual and compares fresh.
        """
        try:
            return self._dual
        except AttributeError:
            pass
        full = self.ground.full_mask
        complements = [full & ~b for b in self.bases()]
        self._dual = Matroid(self.ground, circuits_of_bases(self.ground, complements))
        return self._dual

    # ------------------------------------------------- fundamental circuits

    def fundamental_circuit(self, independent: int, x: int) -> int:
        """The unique circuit inside ``independent`` plus element ``x``.

        ``independent`` must be independent and ``independent + x`` dependent.
        """
        self.ground.check_mask(independent | (1 << x))
        if self.is_dependent(independent):
            raise NotIndependent(self.ground.format_mask(independent))
        if independent >> x & 1:
            raise PreconditionFailure(
                f"element {self.ground.labels[x]} is already in the set"
            )
        closed = independent | (1 << x)
        found = [c for c in self.circuits if c & ~closed == 0]
        if not found:
            raise StillIndependent(
                f"{self.ground.format_mask(independent)} stays independent with "
                f"{self.ground.labels[x]}"
            )
        if len(found) > 1:  # impossible for a validated matroid
            raise AssertionError(f"multiple circuits inside {closed:#x}: {found}")
        circuit = found[0]
        assert circuit >> x & 1
        return circuit

    def fundamental_family(self, independent: int, roots: int) -> FundamentalFamily:
        """Fundamental circuits of every root element over ``independent``."""
        self.ground.check_mask(independent | roots)
        if roots & independent:
            raise PreconditionFailure("roots must lie outside the independent set")
        circuits = {x: self.fundamental_circuit(independent, x) for x in bit_indices(roots)}
        return FundamentalFamily(roots, circuits)

    # ------------------------------------------------------------ cyclic sets

    def is_cyclic(self, a: int) -> bool:
        """True iff ``a`` is a union of circuits (the empty set counts)."""
        self.ground.check_mask(a)
        cover = 0
        for c in self.circuits:
            if c & ~a == 0:
                cover |= c
        return cover == a

    def cyclic_sets(self, nullity: Optional[int] = None) -> SetFamily:
        """All cyclic sets, optionally only those of one fixed nullity.

        The sets are grown from the empty set: each step takes every union
        of a frontier set with a circuit not inside it. Every cyclic set of
        nullity k + 1 is such a union of one of nullity k: over a basis of
        the set, the fundamental circuits of all but one outside element
        make up the smaller set. So with ``nullity=k`` step t keeps the
        unions of nullity t and step k is the answer. Without a filter the
        frontier is the unions not reached before, and every set reached is
        returned; that family can hold 2^n sets, so ground sets above
        ``CYCLIC_ENUM_CAP`` are refused.
        """
        if nullity is None and len(self.ground) > CYCLIC_ENUM_CAP:
            raise GroundTooLarge(
                f"listing every cyclic set needs at most {CYCLIC_ENUM_CAP} elements; "
                "pass a nullity filter or use is_cyclic pointwise"
            )
        if nullity is not None and nullity < 0:
            return SetFamily()
        circuits = self.circuits.members
        frontier, reached = {0}, {0}
        step = 0
        while frontier and step != nullity:
            step += 1
            grown = {a | c for a in frontier for c in circuits if c & ~a}
            if nullity is None:
                frontier = grown - reached
                reached |= frontier
            else:
                frontier = {u for u in grown if self.nullity(u) == step}
        return SetFamily(reached if nullity is None else frontier)

    # ---------------------------------------------------------- conveniences

    def restriction_circuits(self, a: int) -> SetFamily:
        """Circuits contained in ``a``."""
        self.ground.check_mask(a)
        return SetFamily(c for c in self.circuits if c & ~a == 0)


def free_matroid(ground: GroundSet) -> Matroid:
    """The matroid with no circuits (everything independent)."""
    return Matroid(ground, SetFamily())


def uniform_matroid(ground: GroundSet, rank: int) -> Matroid:
    """Uniform matroid: circuits are all subsets of size rank + 1."""
    n = len(ground)
    if rank < 0 or rank > n:
        raise ValueError(f"rank {rank} out of range for {n} elements")
    if rank == n:
        return free_matroid(ground)
    return Matroid(ground, masks_of_size(n, rank + 1))


def circuits_of_bases(ground: GroundSet, bases: Iterable[int]) -> set[int]:
    """The circuits of the matroid with these bases, as fundamental circuits.

    For a basis B and e outside B, the unique circuit inside B + e is e plus
    every f in B for which B - f + e is a basis, and every circuit is one of
    these (Oxley, Matroid Theory, 2nd ed.). ``bases`` must satisfy the
    exchange axiom; nothing here checks it.
    """
    bases = set(bases)
    out = set()
    for b in bases:
        inside = [1 << f for f in bit_indices(b)]
        for e in bit_indices(ground.full_mask & ~b):
            grown = b | (1 << e)
            out.add(sum((f for f in inside if grown ^ f in bases), 1 << e))
    return out


def require_subset_table(ground: GroundSet) -> None:
    """Raise GroundTooLarge above ``SUBSET_TABLE_CAP`` elements."""
    if len(ground) > SUBSET_TABLE_CAP:
        raise GroundTooLarge(
            f"{len(ground)} elements: subset and basis scans handle at most {SUBSET_TABLE_CAP}"
        )
