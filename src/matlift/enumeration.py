"""Exhaustive catalogs of small matroids, their lifts, and random instances.

Two deliberately different generation routes exist so they can cross-check
each other:

* ``basis`` route: for every rank r, scan all non-empty families of
  r-subsets through the basis-exchange checker. Practical through n = 6.
* ``circuit`` route: grow the antichains of non-empty subsets depth-first
  and screen each through the circuit-axiom checker. Only antichains can
  pass the clutter axiom, and there are far fewer of them than families
  (7,580 against 2^31 at n = 5). Practical through n = 5.

Both yield every labelled matroid on the ground set exactly once; catalogs
are sorted by their canonical flat-file line so entry indices are stable.

Random instances come from column matroids of uniform random matrices over a
small prime field, which covers all uniform matroids at the sizes used here
and produces loops and parallel elements naturally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Union

from . import quotient as _quotient
from .axioms import check_circuit_axioms
from .errors import ExchangeFailure, GroundTooLarge
from .matroid import Matroid, minimal_dependent_sets, require_subset_table
from .minors import contract, delete
from .sets import GroundSet, SetFamily, default_ground, fresh_labels, masks_of_size
from .textio import catalog_line, pair_line

BASIS_ENUM_CAP = 6
CIRCUIT_ENUM_CAP = 5
PAIR_CATALOG_CAP = 5


@dataclass
class MatroidCatalog:
    """Every labelled matroid on one ground set, in stable order."""

    ground: GroundSet
    method: str
    entries: tuple[Matroid, ...]

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def certified(self) -> dict[tuple[int, int], int]:
        """Rank step of every ordered pair (i, j) of entries that certifies.

        Filled on first access by one certification pass in i-major order;
        refused pairs are absent. Every sweep and the pair records read this
        one shared table instead of certifying catalog pairs again, so
        callers must not modify it.
        """
        table = {}
        for i, m in enumerate(self.entries):
            for j, l in enumerate(self.entries):
                cert = _quotient.certify_quotient(m, l)
                if cert.holds:
                    table[(i, j)] = cert.step_s
        return table

    @cached_property
    def witnesses(self) -> dict[tuple[int, int], _quotient.LiftWitness]:
        """Verified lift witness of every certified pair with rank step >= 1.

        Keyed like ``certified`` and filled in its order on first access, each
        on the ground extended by ``fresh_labels(ground, step)``. A failed
        construction raises ConstructionFailure out of the first access.
        """
        table = {}
        for (i, j), s in self.certified.items():
            if s >= 1:
                m = self.entries[i]
                table[(i, j)] = _quotient.lift_witness(
                    m, self.entries[j], fresh_labels(self.ground, s)
                )
        return table


def _as_ground(ground: Union[GroundSet, int]) -> GroundSet:
    return ground if isinstance(ground, GroundSet) else default_ground(ground)


def enumerate_matroids(ground: Union[GroundSet, int], method: str = "basis") -> MatroidCatalog:
    """Catalog of all labelled matroids on ``ground`` via the chosen route."""
    g = _as_ground(ground)
    n = len(g)
    if method == "basis":
        if n > BASIS_ENUM_CAP:
            raise GroundTooLarge(f"basis route handles at most {BASIS_ENUM_CAP} elements")
        entries = _enumerate_by_bases(g)
    elif method == "circuit":
        if n > CIRCUIT_ENUM_CAP:
            raise GroundTooLarge(f"circuit route handles at most {CIRCUIT_ENUM_CAP} elements")
        entries = _enumerate_by_circuits(g)
    else:
        raise ValueError(f"unknown enumeration method {method!r}")
    entries.sort(key=catalog_line)
    return MatroidCatalog(g, method, tuple(entries))


def _enumerate_by_bases(g: GroundSet) -> list[Matroid]:
    n = len(g)
    out = []
    for r in range(n + 1):
        r_subsets = list(masks_of_size(n, r))
        for pick in range(1, 1 << len(r_subsets)):
            family = SetFamily(
                r_subsets[i] for i in range(len(r_subsets)) if pick >> i & 1
            )
            try:  # from_bases runs the exchange check once and raises on failure
                out.append(Matroid.from_bases(g, family))
            except ExchangeFailure:
                continue
    return out


def _enumerate_by_circuits(g: GroundSet) -> list[Matroid]:
    # depth-first over antichains of non-empty subsets in canonical order: a
    # later member is never smaller, so it joins iff no chosen one is inside it
    nonempty = SetFamily(range(1, 1 << len(g))).members
    out = []

    def grow(chosen: list[int], start: int) -> None:
        report = check_circuit_axioms(g, SetFamily(chosen))
        if report.passed:
            out.append(Matroid._from_report(report))
        for k in range(start, len(nonempty)):
            c = nonempty[k]
            if all(p & ~c for p in chosen):
                chosen.append(c)
                grow(chosen, k + 1)
                chosen.pop()

    grow([], 0)
    return out


# ------------------------------------------------------- one-element lifts


def lift_buckets(catalog: MatroidCatalog) -> dict[tuple[int, int], list[Matroid]]:
    """Every one-element lift of the catalog, keyed by the pair it realizes.

    Enumerates the matroids N on the ground extended by
    ``fresh_labels(ground, 1)`` once, and files each under the catalog
    indices ``(i, j)`` of (N/x, N\\x), in catalog order. By the lift
    theorem the keys are exactly the certified pairs with step <= 1.
    """
    g = catalog.ground
    x_mask = 1 << len(g)
    index = {m: i for i, m in enumerate(catalog.entries)}
    buckets: dict[tuple[int, int], list[Matroid]] = {}
    for n in enumerate_matroids(g.extend(fresh_labels(g, 1))).entries:
        key = (index[contract(n, x_mask)], index[delete(n, x_mask)])
        buckets.setdefault(key, []).append(n)
    return buckets


# -------------------------------------------------------------- pair catalog


@dataclass
class PairRecord:
    """Outcome of the quotient test for one ordered catalog pair.

    ``s`` is rank(L) minus rank(M) whether or not the pair certifies.
    ``witness`` is ``ok`` when the lift construction built and verified, and
    ``na`` when no construction applies (refused pair, or s = 0).
    """

    idx_m: int
    idx_l: int
    quotient: bool
    s: int
    witness: str

    def line(self) -> str:
        return pair_line(self.idx_m, self.idx_l, self.quotient, self.s, self.witness)


def pair_records(catalog: Union[MatroidCatalog, GroundSet, int]) -> list[PairRecord]:
    """Quotient test and witness status for every ordered catalog pair.

    Takes a catalog, or a ground set (or its size) whose full catalog is
    enumerated; ground sets above ``PAIR_CATALOG_CAP`` elements raise
    GroundTooLarge before any enumeration starts. The witness status comes
    from the catalog's shared witness table, so a failed construction raises
    ConstructionFailure.
    """
    g = catalog.ground if isinstance(catalog, MatroidCatalog) else _as_ground(catalog)
    if len(g) > PAIR_CATALOG_CAP:
        raise GroundTooLarge(f"pair records handle at most {PAIR_CATALOG_CAP} elements")
    if not isinstance(catalog, MatroidCatalog):
        catalog = enumerate_matroids(g)
    certified = catalog.certified
    witnesses = catalog.witnesses
    ranks = [m.rank() for m in catalog.entries]
    return [
        PairRecord(i, j, (i, j) in certified, rl - rm, "ok" if (i, j) in witnesses else "na")
        for i, rm in enumerate(ranks)
        for j, rl in enumerate(ranks)
    ]


# ---------------------------------------------------------- random instances


def random_matroid(rng: random.Random, ground: Union[GroundSet, int]) -> Matroid:
    """Column matroid of a uniform random matrix over GF(2), GF(3), or GF(5).

    Raises GroundTooLarge above ``SUBSET_TABLE_CAP`` elements before drawing.
    """
    g = _as_ground(ground)
    require_subset_table(g)
    n = len(g)
    q = rng.choice((2, 3, 5))
    r = rng.randint(0, n)
    cols = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(n)]
    # echelon rows (pivot, row) spanning the columns of each independent mask
    echelon: dict[int, list[tuple[int, list[int]]]] = {0: []}

    def dependent(mask: int) -> bool:
        # masks arrive in ascending order, so the mask minus its lowest bit
        # is settled: absent from ``echelon`` when dependent
        rest = mask & (mask - 1)
        if rest not in echelon:
            return True
        v = list(cols[(mask ^ rest).bit_length() - 1])
        for pivot, row in echelon[rest]:
            if f := v[pivot]:
                v = [(a - f * b) % q for a, b in zip(v, row)]
        pivot = next((k for k, a in enumerate(v) if a), None)
        if pivot is not None:
            inv = pow(v[pivot], -1, q)
            echelon[mask] = echelon[rest] + [(pivot, [a * inv % q for a in v])]
        return pivot is None

    return Matroid(g, minimal_dependent_sets(g, dependent))


def random_quotient_pair(
    rng: random.Random, ground: Union[GroundSet, int], steps: int
) -> tuple[Matroid, Matroid]:
    """A random certified pair, produced as two minors of a random lift.

    Draws a random matroid on ``steps`` extra elements and returns its
    contraction and deletion by those elements; the pair always certifies,
    with rank step anywhere between 0 and ``steps``.
    """
    g = _as_ground(ground)
    big = g.extend(fresh_labels(g, steps))
    z_mask = big.full_mask & ~((1 << len(g)) - 1)
    n = random_matroid(rng, big)
    return contract(n, z_mask), delete(n, z_mask)
