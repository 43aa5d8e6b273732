"""Exhaustive catalogs of small matroids, witness search, and random instances.

Two deliberately different generation routes exist so they can cross-check
each other:

* ``basis`` route: for every rank r, scan all non-empty families of
  r-subsets through the basis-exchange checker. Practical through n = 6.
* ``circuit`` route: scan all families of non-empty subsets through the
  circuit-axiom checker. Practical through n = 4 only.

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
from typing import Iterator, Optional, Union

from . import quotient as _quotient
from .axioms import check_basis_exchange, check_circuit_axioms
from .errors import ConstructionFailure, GroundTooLarge, LabelClash
from .matroid import Matroid, minimal_dependent_sets
from .minors import contract, delete
from .sets import GroundSet, SetFamily, default_ground, fresh_labels, masks_of_size
from .textio import catalog_line, pair_line

BASIS_ENUM_CAP = 6
CIRCUIT_ENUM_CAP = 4
PAIR_CATALOG_CAP = 5


@dataclass
class MatroidCatalog:
    """Every labelled matroid on one ground set, in stable order."""

    ground: GroundSet
    method: str
    entries: tuple[Matroid, ...]

    @property
    def n(self) -> int:
        return len(self.ground)

    def __len__(self) -> int:
        return len(self.entries)

    def index_of(self, m: Matroid) -> int:
        return self.entries.index(m)

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
            if check_basis_exchange(g, family).passed:
                out.append(Matroid.from_bases(g, family))
    return out


def _enumerate_by_circuits(g: GroundSet) -> list[Matroid]:
    n = len(g)
    nonempty = SetFamily(range(1, 1 << n)).members
    out = []
    for pick in range(1 << len(nonempty)):
        family = SetFamily(nonempty[i] for i in range(len(nonempty)) if pick >> i & 1)
        if check_circuit_axioms(g, family).passed:
            out.append(Matroid(g, family))
    return out


# ------------------------------------------------------------ witness search


def _scan_witnesses(m: Matroid, l: Matroid, x_label: str) -> Iterator[Matroid]:
    """One-element lift witnesses for (m, l), lazily, in catalog order.

    Scans every matroid N on the ground set extended by ``x_label`` and
    yields those with N contracted by x equal to ``m`` and N minus x equal to
    ``l``. Yields nothing when the ranks do not differ by exactly one, since
    no witness can exist then.
    """
    if m.ground != l.ground:
        raise LabelClash(f"operands live on {m.ground!r} and {l.ground!r}")
    if x_label in m.ground.labels:
        raise LabelClash(f"lift label {x_label!r} already in the ground set")
    if l.rank() != m.rank() + 1:
        return
    big = m.ground.extend([x_label])
    x_mask = 1 << (len(big) - 1)
    for n in enumerate_matroids(big).entries:
        if contract(n, x_mask) == m and delete(n, x_mask) == l:
            yield n


def witness_search(m: Matroid, l: Matroid, x_label: str = "x") -> Optional[Matroid]:
    """The first one-element lift witness in catalog order, or None."""
    return next(_scan_witnesses(m, l, x_label), None)


def all_witnesses(m: Matroid, l: Matroid, x_label: str = "x") -> list[Matroid]:
    """Every one-element lift witness for (m, l), by exhaustive scan."""
    return list(_scan_witnesses(m, l, x_label))


# -------------------------------------------------------------- pair catalog


@dataclass
class PairRecord:
    """Outcome of the quotient test for one ordered catalog pair.

    ``s`` is rank(L) minus rank(M) whether or not the pair certifies.
    ``witness`` is ``ok`` when the lift construction built and verified,
    ``na`` when no construction applies (refused pair, or s = 0), and
    ``FAIL`` if a construction that should have verified did not.
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
    GroundTooLarge before any enumeration starts.
    """
    g = catalog.ground if isinstance(catalog, MatroidCatalog) else _as_ground(catalog)
    if len(g) > PAIR_CATALOG_CAP:
        raise GroundTooLarge(f"pair records handle at most {PAIR_CATALOG_CAP} elements")
    if not isinstance(catalog, MatroidCatalog):
        catalog = enumerate_matroids(g)
    records = []
    entries = catalog.entries
    certified = catalog.certified
    labels = fresh_labels(g, len(g))
    for i, m in enumerate(entries):
        for j, l in enumerate(entries):
            s = l.rank() - m.rank()
            if (i, j) not in certified:
                records.append(PairRecord(i, j, False, s, "na"))
                continue
            if s == 0:
                records.append(PairRecord(i, j, True, 0, "na"))
                continue
            try:
                _quotient.lift_witness(m, l, labels[:s])
                status = "ok"
            except ConstructionFailure:
                status = "FAIL"
            records.append(PairRecord(i, j, True, s, status))
    return records


# ---------------------------------------------------------- random instances


def _gf_rank(vectors: list[tuple[int, ...]], q: int) -> int:
    """Rank of a set of vectors over the prime field with q elements."""
    if not vectors:
        return 0
    rows = [list(v) for v in vectors]
    width = len(rows[0])
    rank = 0
    for col in range(width):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] % q:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        lead = [(x * inv) % q for x in rows[rank]]
        rows[rank] = lead
        for i in range(len(rows)):
            if i != rank and rows[i][col] % q:
                f = rows[i][col]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], lead)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def random_matroid(rng: random.Random, ground: Union[GroundSet, int]) -> Matroid:
    """Column matroid of a uniform random matrix over GF(2), GF(3), or GF(5)."""
    g = _as_ground(ground)
    n = len(g)
    q = rng.choice((2, 3, 5))
    r = rng.randint(0, n)
    cols = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(n)]

    def dependent(mask: int) -> bool:
        chosen = [cols[i] for i in range(n) if mask >> i & 1]
        return _gf_rank(chosen, q) < len(chosen)

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
