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
from itertools import combinations
from typing import Callable, Iterable, Optional

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

# All-subset scans (cyclic_sets without a filter) refuse to run above this
# many elements; callers must pass a nullity filter or test sets pointwise.
CYCLIC_ENUM_CAP = 16

# minimal_dependent_sets tests every subset and keeps a byte per subset, so it
# and its callers (from_bases, random_matroid) refuse larger ground sets. The
# cap bounds the table (2^20 bytes) and the number of subset tests, not the
# run time: from_bases tests each subset against every basis, so its time
# grows with the basis count. dual tests no subsets but keeps the cap, since
# its basis scan visits C(n, r) masks.
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

    __slots__ = ("ground", "circuits", "_rank_memo")

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

        Circuits are the minimal sets inside no basis.
        """
        require_subset_table(ground)
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
        bases = fam.members
        return cls(ground, minimal_dependent_sets(ground, lambda d: all(d & ~b for b in bases)))

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
        """All bases, as the independent sets of full-rank cardinality."""
        r = self.rank()
        return SetFamily(b for b in masks_of_size(len(self.ground), r) if self.is_independent(b))

    def dual(self) -> "Matroid":
        """Dual matroid, whose bases are the complements of this matroid's bases.

        Its circuits are the cocircuits of this matroid, taken as the
        fundamental cocircuits of the bases: for a basis B and e in B, e plus
        every f outside B for which B - e + f is a basis. Every cocircuit is
        one of these (Oxley, Matroid Theory, 2nd ed., sec. 2.1). No exchange
        check runs on the complements, since duality implies it; the
        constructor checks the circuits.
        """
        require_subset_table(self.ground)
        bases = set(self.bases().members)
        cocircuits = set()
        for b in bases:
            outside = [1 << f for f in bit_indices(self.ground.full_mask & ~b)]
            for e in bit_indices(b):
                rest = b & ~(1 << e)
                cocircuits.add(sum((f for f in outside if rest | f in bases), 1 << e))
        return Matroid(self.ground, cocircuits)

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

        Without a filter this scans every subset and refuses on ground sets
        larger than ``CYCLIC_ENUM_CAP``. With ``nullity=k`` it enumerates
        unions of exactly k circuits instead (every cyclic set of nullity k
        is such a union), which stays feasible on larger ground sets whenever
        the circuit family is modest.
        """
        n = len(self.ground)
        if nullity is None:
            if n > CYCLIC_ENUM_CAP:
                raise GroundTooLarge(
                    f"all-subset scan needs at most {CYCLIC_ENUM_CAP} elements; "
                    "pass a nullity filter or use is_cyclic pointwise"
                )
            return SetFamily(a for a in range(1 << n) if self.is_cyclic(a))
        if nullity < 0:
            return SetFamily()
        if nullity == 0:
            return SetFamily([0])
        if n <= CYCLIC_ENUM_CAP:
            return SetFamily(  # rank only the cyclic sets
                a for a in range(1 << n) if self.is_cyclic(a) and self.nullity(a) == nullity
            )
        out = set()
        for combo in combinations(self.circuits.members, nullity):
            u = 0
            for c in combo:
                u |= c
            if u not in out and self.nullity(u) == nullity:
                out.add(u)
        return SetFamily(out)

    # ---------------------------------------------------------- conveniences

    def loops(self) -> int:
        """Mask of loop elements (single-element circuits)."""
        out = 0
        for c in self.circuits:
            if c.bit_count() == 1:
                out |= c
        return out

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


def minimal_dependent_sets(ground: GroundSet, dependent: Callable[[int], bool]) -> list[int]:
    """Minimal sets that the upward-closed test ``dependent`` accepts, ascending.

    ``dependent`` is called once per non-empty subset, in ascending mask
    order; its answers are kept, so one-smaller subsets are looked up.
    """
    require_subset_table(ground)
    dep = bytearray(ground.full_mask + 1)
    out = []
    for mask in range(1, ground.full_mask + 1):
        if dependent(mask):
            dep[mask] = 1
            if not any(dep[mask & ~(1 << i)] for i in bit_indices(mask)):
                out.append(mask)
    return out


def require_subset_table(ground: GroundSet) -> None:
    """Raise GroundTooLarge above ``SUBSET_TABLE_CAP`` elements."""
    if len(ground) > SUBSET_TABLE_CAP:
        raise GroundTooLarge(
            f"{len(ground)} elements: subset and basis scans handle at most {SUBSET_TABLE_CAP}"
        )
