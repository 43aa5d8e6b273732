"""The core matroid type, represented by its family of circuits.

A matroid here is a ground set plus the family of its circuits (the minimal
dependent sets), stored canonically. Holding a ``Matroid`` proves that a
circuit-axiom check passed on its family, or that it is a minor or dual of
one that did. The constructor runs the weak check and raises NotAMatroid,
carrying the failed report; ``Matroid._trusted`` runs none, for minors, duals
and families their caller has just checked.
Everything else (rank, bases, duals, cyclic sets) is derived on demand.

Equality is label-sensitive: two matroids are equal iff they have the same
ground labels in the same order and the same circuit family.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .axioms import check_basis_exchange, check_circuit_axioms
from .errors import GroundTooLarge, NotAMatroid, PreconditionFailure
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


class Matroid:
    """Matroid on a labelled ground set, given by its circuits. It caches a rank
    memo per subset and, from first use, the circuits through each element and
    the cyclic sets of each nullity asked for so far."""

    __slots__ = ("ground", "circuits", "_rank_memo", "_through", "_levels")

    def __init__(self, ground: GroundSet, circuits: SetFamily | Iterable[int]):
        fam = circuits if isinstance(circuits, SetFamily) else SetFamily(circuits)
        report = check_circuit_axioms(ground, fam, strong=False)
        if not report.passed:
            raise NotAMatroid(report)
        self._adopt(ground, fam)

    def _adopt(self, ground: GroundSet, circuits: SetFamily) -> None:
        self.ground = ground
        self.circuits = circuits
        self._rank_memo: dict[int, int] = {}
        self._through: Optional[list[list[int]]] = None
        self._levels: Optional[list[SetFamily]] = None

    def _circuits_through(self) -> list[list[int]]:
        """For each element index, the circuits through it, in family order."""
        if self._through is None:
            members, n = self.circuits.members, len(self.ground)
            self._through = [[c for c in members if c >> i & 1] for i in range(n)]
        return self._through

    # --------------------------------------------------------- constructors

    @classmethod
    def _trusted(cls, ground: GroundSet, circuits: SetFamily) -> "Matroid":
        """The matroid with these circuits, unchecked: for a minor or dual of
        a ``Matroid``, or a family that its caller has just checked."""
        m = cls.__new__(cls)
        m._adopt(ground, circuits)
        return m

    @classmethod
    def from_bases(cls, ground: GroundSet, bases: SetFamily | Iterable[int]) -> "Matroid":
        """Build a matroid from its bases, checked for the exchange axiom
        (NotAMatroid with the failed report).

        The circuits are read off the bases by ``circuits_of_bases``, so no
        subset is scanned and every ground size is accepted.
        """
        fam = bases if isinstance(bases, SetFamily) else SetFamily(bases)
        report = check_basis_exchange(ground, fam)
        if not report.passed:
            raise NotAMatroid(report)
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
        for c in self.circuits.members:
            if c & ~a == 0:
                return True
        return False

    def is_independent(self, a: int) -> bool:
        return not self.is_dependent(a)

    def rank(self, a: Optional[int] = None) -> int:
        """Rank of ``a`` (default: the whole ground set), memoized per subset."""
        a = self.ground.full_mask if a is None else a
        memo = self._rank_memo
        got = memo.get(a)
        if got is None:
            got = memo[a] = self.max_independent(a).bit_count()
        return got

    def max_independent(self, a: int, start: int = 0) -> int:
        """A maximal independent subset of ``a`` that contains ``start``.

        ``start`` must be an independent subset of ``a``; the other elements
        of ``a`` are added greedily in ascending ground order whenever the set
        stays independent. Every grown set is then independent, so only circuits
        through the added element are tested; a dependent ``start`` gives a wrong set.
        """
        self.ground.check_mask(a)
        through = self._circuits_through()
        current = start
        for i in bit_indices(a & ~start):
            cand = current | (1 << i)
            for c in through[i]:
                if c & ~cand == 0:
                    break
            else:
                current = cand
        return current

    def nullity(self, a: Optional[int] = None) -> int:
        a = self.ground.full_mask if a is None else a
        return a.bit_count() - self.rank(a)

    # ------------------------------------------------------------ bases, dual

    def bases(self) -> SetFamily:
        """All bases, as the r-subsets that contain no circuit. The scan visits
        C(n, r) masks, so ground sets above ``SUBSET_TABLE_CAP`` are refused first."""
        require_subset_table(self.ground)
        circuits = self.circuits.members
        out = []
        for b in masks_of_size(len(self.ground), self.rank()):
            for c in circuits:
                if c & ~b == 0:
                    break
            else:
                out.append(b)
        return SetFamily(out)

    def dual(self) -> "Matroid":
        """Dual matroid, whose bases are the complements of this matroid's bases.

        Its circuits are read off those complements by ``circuits_of_bases``
        and not checked: the dual of a matroid is one (Oxley, Matroid Theory,
        2nd ed., 2.1). It is built afresh on every call, since nothing is
        kept. ``bases`` refuses ground sets above ``SUBSET_TABLE_CAP``.
        """
        full = self.ground.full_mask
        complements = [full & ~b for b in self.bases()]
        return Matroid._trusted(self.ground, circuits_of_bases(self.ground, complements))

    # ------------------------------------------------- fundamental circuits

    def fundamental_circuit(self, independent: int, x: int) -> int:
        """The unique circuit inside ``independent`` plus element ``x``.

        ``independent`` must be independent, must not hold ``x``, and must
        become dependent when ``x`` joins it; each breach raises
        PreconditionFailure naming the set and the element by their labels.
        """
        g = self.ground
        g.check_mask(independent | (1 << x))
        if self.is_dependent(independent):
            raise PreconditionFailure(f"{g.format_mask(independent)} is not independent")
        if independent >> x & 1:
            raise PreconditionFailure(f"element {g.labels[x]} is already in the set")
        closed = independent | (1 << x)
        found = [c for c in self._circuits_through()[x] if c & ~closed == 0]
        if not found:
            raise PreconditionFailure(
                f"{g.format_mask(independent)} stays independent with {g.labels[x]}"
            )
        if len(found) > 1:  # impossible for a validated matroid
            raise AssertionError(f"multiple circuits inside {closed:#x}: {found}")
        circuit = found[0]
        assert circuit >> x & 1
        return circuit

    def fundamental_family(self, independent: int, roots: int) -> dict[int, int]:
        """The fundamental circuit over ``independent`` of every element of
        ``roots``, keyed by the root's index; ``fundamental_circuit`` checks
        each root."""
        return {x: self.fundamental_circuit(independent, x) for x in bit_indices(roots)}

    # ------------------------------------------------------------ cyclic sets

    def cyclic_part(self, a: int) -> int:
        """The largest cyclic subset of ``a``, the union of the circuits inside it; checks ``a``."""
        self.ground.check_mask(a)
        return union_inside(self.circuits.members, a)

    def is_cyclic(self, a: int) -> bool:
        """True iff ``a`` is a union of circuits (the empty set counts)."""
        return self.cyclic_part(a) == a

    def cyclic_sets(self, nullity: Optional[int] = None) -> SetFamily:
        """All cyclic sets, optionally only those of one fixed nullity.

        Level k holds the cyclic sets of nullity k; level 0 is the empty set,
        and level k + 1 is the unions of a level-k set with a circuit not
        inside it that have nullity k + 1. Every cyclic set of nullity k + 1
        is such a union: over a basis of the set, the fundamental circuits of
        all but one outside element make up a level-k set. Levels run from 0
        to the matroid's nullity and are kept once grown, so the memo holds
        only the levels up to the highest one asked for. With ``nullity=k``
        the answer is level k; without a filter it is every level, which
        can hold 2^n sets, so ground sets above ``CYCLIC_ENUM_CAP`` are
        refused.
        """
        if nullity is None and len(self.ground) > CYCLIC_ENUM_CAP:
            raise GroundTooLarge(
                f"listing every cyclic set needs at most {CYCLIC_ENUM_CAP} elements; "
                "pass a nullity filter or use is_cyclic pointwise"
            )
        top = self.nullity() if nullity is None else nullity
        if not 0 <= top <= self.nullity():
            return SetFamily()
        levels = self._levels
        if levels is None:
            levels = self._levels = [SetFamily((0,))]
        circuits = self.circuits.members
        while len(levels) <= top:
            step = len(levels)
            grown = {a | c for a in levels[-1] for c in circuits if c & ~a}
            levels.append(SetFamily(u for u in grown if self.nullity(u) == step))
        if nullity is None:
            return SetFamily(a for level in levels for a in level)
        return levels[nullity]


def union_inside(members: Iterable[int], a: int) -> int:
    """The union of the members inside ``a``, the kernel of ``Matroid.cyclic_part``
    and ``certify_quotient``; each caller vouches that ``a`` is a mask on their ground."""
    out = 0
    for c in members:
        if c | a == a:
            out |= c
            if out == a:
                break
    return out


def free_matroid(ground: GroundSet) -> Matroid:
    """The matroid with no circuits (everything independent)."""
    return Matroid(ground, SetFamily())


def uniform_matroid(ground: GroundSet, rank: int) -> Matroid:
    """Uniform matroid: circuits are all subsets of size rank + 1."""
    n = len(ground)
    if rank < 0 or rank > n:
        raise ValueError(f"rank {rank} out of range for {n} elements")
    return Matroid(ground, masks_of_size(n, rank + 1))


def circuits_of_bases(ground: GroundSet, bases: Iterable[int]) -> SetFamily:
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
    return SetFamily(out)


def require_subset_table(ground: GroundSet) -> None:
    """Raise GroundTooLarge above ``SUBSET_TABLE_CAP`` elements."""
    if len(ground) > SUBSET_TABLE_CAP:
        raise GroundTooLarge(
            f"{len(ground)} elements: subset and basis scans handle at most {SUBSET_TABLE_CAP}"
        )
