"""Exhaustive catalogs of small matroids, their lifts, and random instances.

Two deliberately different generation routes exist so they can cross-check
each other:

* ``extension`` route (the default): grow each catalog from the one below
  it, by the single-element extensions of every entry, one per modular cut.
  Practical through n = 7: its 75,164 matroids take about 5 s and a peak
  RSS of about 155 MB with Python 3.11 on a 2-core x86-64 container.
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
from typing import Iterator, Optional, Union

from . import quotient as _quotient
from .axioms import check_circuit_axioms
from .errors import ConstructionFailure, GroundTooLarge
from .matroid import Matroid, require_subset_table
from .minors import contract, delete
from .sets import GroundSet, SetFamily, bit_indices, default_ground, fresh_labels
from .textio import catalog_line, dump_text, pair_line

# the search visits modular cuts, not up-sets of flats, so the cap follows
# the catalog: n = 7 holds 75,164 matroids, and n = 8 would hold 10,607,540
EXTENSION_ENUM_CAP = 7
CIRCUIT_ENUM_CAP = 5
PAIR_CATALOG_CAP = 5


@dataclass
class MatroidCatalog:
    """Every labelled matroid on one ground set, in stable order."""

    ground: GroundSet
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


def enumerate_matroids(ground: Union[GroundSet, int], method: str = "extension") -> MatroidCatalog:
    """Catalog of all labelled matroids on ``ground`` via the chosen route."""
    g = _as_ground(ground)
    n = len(g)
    if method == "extension":
        *_, catalog = _extension_catalogs(g)
        return catalog
    elif method == "circuit":
        if n > CIRCUIT_ENUM_CAP:
            raise GroundTooLarge(f"circuit route handles at most {CIRCUIT_ENUM_CAP} elements")
        entries = _enumerate_by_circuits(g)
    else:
        raise ValueError(f"unknown enumeration method {method!r}")
    entries.sort(key=catalog_line)
    return MatroidCatalog(g, tuple(entries))


def _extension_catalogs(g: GroundSet) -> Iterator[MatroidCatalog]:
    """The extension route's catalogs on the prefixes of ``g``, each from the last."""
    if len(g) > EXTENSION_ENUM_CAP:
        raise GroundTooLarge(f"extension route handles at most {EXTENSION_ENUM_CAP} elements")
    catalog = None
    for k in range(1, len(g) + 1):
        h = GroundSet(g.labels[:k])
        entries = ([Matroid(h, [1]), Matroid(h, [])] if catalog is None
                   else [m for l in catalog.entries for m in _extensions(l, h)])
        entries.sort(key=catalog_line)
        catalog = MatroidCatalog(h, tuple(entries))
        yield catalog


def _extensions(l: Matroid, big: GroundSet) -> list[Matroid]:
    """Every matroid on ``big``, the ground of ``l`` plus a last element x,
    whose deletion by x is ``l``: one per modular cut of ``l``.

    A modular cut U is an up-set of flats (closures of independent sets) that
    holds g & h for every modular pair g, h in U, one with r(g) + r(h) =
    r(g | h) + r(g & h). Its extension adds A + x to ``l``'s circuits for every
    independent A minimal with cl(A) in U (Oxley, Matroid Theory, 7.2).

    The search decides the flats largest first, each "out" before "in". The
    meet of every modular pair in the cut, and every flat holding that meet,
    is forced. A flat may stay out only if it is not forced. It may join only
    if every larger flat that holds it is in, and no flat its joining forces
    is already out. The flats of a pair meeting in f, and every flat holding
    f, are larger than f and so decided before it: every leaf is a modular
    cut, every modular cut is a leaf, and the leaves come in the order of a
    scan over all up-sets. Each family still goes through the circuit check;
    one that fails would contradict Crapo's theorem and raises
    ConstructionFailure.
    """
    x = 1 << len(l.ground)
    # e joins the closure of an independent A when a circuit leaves A only at e
    closure = {a: a | sum({c & ~a for c in l.circuits if (c & ~a).bit_count() == 1})
               for a in range(x) if l.is_independent(a)}
    flats = sorted(set(closure.values()), key=int.bit_count, reverse=True)
    index = {f: k for k, f in enumerate(flats)}
    basis = {f: a for a, f in closure.items()}
    # up[k]: flat k and the larger flats that hold it; pairs[k]: for each
    # larger flat h modular with flat k, h's bit and up of their meet
    up = [sum(1 << j for j, h in enumerate(flats[:k + 1]) if f & ~h == 0)
          for k, f in enumerate(flats)]
    pairs: list[list[tuple[int, int]]] = [[] for _ in flats]
    for k, g in enumerate(flats):
        for j, h in enumerate(flats[:k]):
            if g & ~h and (basis[g].bit_count() + basis[h].bit_count()
                           == l.max_independent(g | h, basis[g]).bit_count()
                           + basis[g & h].bit_count()):
                pairs[k].append((1 << j, up[index[g & h]]))
    cuts, todo = [], [(0, 0, 0)]  # cut, forced, next flat
    while todo:
        cut, forced, k = todo.pop()
        if k == len(flats):
            cuts.append(cut)
            continue
        b, above = 1 << k, up[k] & ~(1 << k)
        if cut & above == above:
            joined = forced
            for h_bit, meet_up in pairs[k]:
                if cut & h_bit:
                    joined |= meet_up
            if not joined & ~cut & (b - 1):
                todo.append((cut | b, joined, k + 1))
        if not forced & b:  # pushed last, so taken first
            todo.append((cut, forced, k + 1))
    candidates = [(1 << index[f], sum({1 << index[closure[a & ~(1 << e)]] for e in bit_indices(a)}),
                   a | x) for a, f in closure.items()]
    out = []
    for cut in cuts:
        new = [c for f, below, c in candidates if cut & f and not cut & below]
        family = SetFamily((*l.circuits, *new))
        report = check_circuit_axioms(big, family)
        if not report.passed:
            raise ConstructionFailure(
                "modular cut family fails circuit axioms: " + report.describe(),
                dump_text(("L", l), extra=("labels " + big.labels[-1], big.format_family(family))),
            )
        out.append(Matroid._trusted(big, family))
    return out


def _enumerate_by_circuits(g: GroundSet) -> list[Matroid]:
    # depth-first over antichains of non-empty subsets in canonical order: a
    # later member is never smaller, so it joins iff no chosen one is inside it
    nonempty = SetFamily(range(1, 1 << len(g))).members
    out = []

    def grow(chosen: list[int], start: int) -> None:
        fam = SetFamily(chosen)
        if check_circuit_axioms(g, fam).passed:
            out.append(Matroid._trusted(g, fam))
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

    A lift N with N\\x = L is an extension of L, so each extension of entry
    j to the ground plus ``fresh_labels(ground, 1)`` is filed under (i, j),
    i the index of N/x, in entry and then ``_extensions`` order. By the lift
    theorem the keys are exactly the certified pairs with step <= 1.
    """
    g = catalog.ground
    big = g.extend(fresh_labels(g, 1))
    index = {m: i for i, m in enumerate(catalog.entries)}
    buckets: dict[tuple[int, int], list[Matroid]] = {}
    for j, l in enumerate(catalog.entries):
        for n in _extensions(l, big):
            buckets.setdefault((index[contract(n, 1 << len(g))], j), []).append(n)
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
    The circuits are read off a walk over the bases. In the frame of a basis
    B, column e holds the coordinates of e over B, so the fundamental circuit
    of e outside B is e plus the basis elements where the column is non-zero,
    and each of those f gives the neighbour B - f + e, one pivot away. The
    walk starts at the greedy basis and reaches every basis, so every circuit
    is read (each one is a fundamental circuit of some basis).
    """
    g = _as_ground(ground)
    require_subset_table(g)
    n = len(g)
    q = rng.choice((2, 3, 5))
    r = rng.randint(0, n)
    cols = [tuple(rng.randrange(q) for _ in range(r)) for _ in range(n)]
    # row-reduce once, pivoting on each column that still has an entry in a
    # row no basis element owns: the owned rows end up as the greedy basis,
    # and the rows left unowned are zero in every column
    owners: list[Optional[int]] = [None] * r
    coords = cols
    for e in range(n):
        t = next((t for t, a in enumerate(coords[e]) if a and owners[t] is None), None)
        if t is not None:
            owners, coords = _pivot(owners, coords, t, e, q)
    start = sum(1 << f for f in owners if f is not None)
    seen = {start}
    # a neighbour waits with its parent's frame and is pivoted when popped
    todo = [(start, owners, coords, None, None)]
    circuits = set()
    while todo:
        basis, owners, coords, row, e = todo.pop()
        if e is not None:
            owners, coords = _pivot(owners, coords, row, e, q)
        for x in range(n):
            if basis >> x & 1:
                continue
            support = [t for t, a in enumerate(coords[x]) if a]
            circuits.add(sum((1 << owners[t] for t in support), 1 << x))
            for t in support:
                nb = basis ^ (1 << owners[t]) ^ (1 << x)
                if nb not in seen:
                    seen.add(nb)
                    todo.append((nb, owners, coords, t, x))
    return Matroid(g, circuits)


def _pivot(owners: list[Optional[int]], coords: list[tuple[int, ...]], t: int, e: int, q: int):
    """The frame of the basis that swaps row ``t``'s owner for element ``e``."""
    col = coords[e]
    inv = pow(col[t], -1, q)
    out = []
    for c in coords:
        f = c[t] * inv % q
        if f:  # a column with no entry in row t keeps its coordinates
            c = tuple(f if i == t else (a - f * b) % q for i, (a, b) in enumerate(zip(c, col)))
        out.append(c)
    owners = owners.copy()
    owners[t] = e
    return owners, out


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
