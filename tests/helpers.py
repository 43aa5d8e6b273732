"""Brute-force oracles used to cross-check the library's fast paths.

Everything here recomputes matroid quantities from first principles
(independence = contains no circuit), with no shortcuts shared with the
implementation under test. ``replay_dump`` reads a failure dump back, and
``lift`` builds the witness of a pair on fresh labels. ``random_sparse_paving``
draws matroids with no field behind them, and ``orbit_representatives``
picks one catalog entry per isomorphism class.
"""

import random
from functools import cache, reduce
from itertools import combinations, permutations
from operator import and_
from typing import Iterator, Optional, Sequence

from matlift.axioms import check_circuit_axioms
from matlift.matroid import Matroid
from matlift.quotient import LiftWitness, lift_witness
from matlift.sets import (
    GroundSet,
    SetFamily,
    bit_indices,
    default_ground,
    fresh_labels,
    masks_of_size,
)
from matlift.textio import catalog_line, parse_matroid_text


def mk(n_or_labels, *circuit_labels) -> Matroid:
    """Convenience constructor: mk(3, "ab", "ac") over single-char labels."""
    if isinstance(n_or_labels, int):
        ground = default_ground(n_or_labels)
    else:
        ground = GroundSet(n_or_labels)
    masks = [ground.mask_of(tuple(word)) for word in circuit_labels]
    return Matroid(ground, masks)


def lift(m: Matroid, l: Matroid) -> LiftWitness:
    """The lift witness of the certified pair (m, l), on fresh labels."""
    return lift_witness(m, l, fresh_labels(m.ground, l.rank() - m.rank()))


def sparse_paving(ground: GroundSet, r: int, planes: Sequence[int]) -> Matroid:
    """The sparse paving matroid of rank r with circuit-hyperplanes ``planes``,
    r-sets that pairwise meet in at most r - 2 elements: its circuits are
    those sets and every (r + 1)-set that holds none of them. Built through
    the checking constructor."""
    rest = [b for b in masks_of_size(len(ground), r + 1) if all(p & ~b for p in planes)]
    return Matroid(ground, [*planes, *rest])


def random_sparse_paving(rng: random.Random, n: int, r: int) -> Matroid:
    """A seeded sparse paving matroid of rank r on ``default_ground(n)``: of n
    random r-sets, each that meets every one kept before it in at most
    r - 2 elements becomes a circuit-hyperplane."""
    planes: list[int] = []
    for _ in range(n):
        a = sum(1 << i for i in rng.sample(range(n), r))
        if all((a & p).bit_count() <= r - 2 for p in planes):
            planes.append(a)
    return sparse_paving(default_ground(n), r, planes)


def orbit_representatives(entries: Sequence[Matroid]) -> list[int]:
    """Indices of one entry per isomorphism class of ``entries``, a catalog:
    matroids on one ground, closed under relabelling it. In catalog order,
    an entry not yet marked becomes a representative and its n!
    relabellings are marked; no canonical form is needed."""
    n = len(entries[0].ground)
    index = {frozenset(m.circuits): i for i, m in enumerate(entries)}
    relabellings = []
    for perm in permutations(range(n)):
        image = [0] * (1 << n)  # image[a] is subset a relabelled by perm
        for a in range(1, 1 << n):
            low = a & -a
            image[a] = image[a ^ low] | 1 << perm[low.bit_length() - 1]
        relabellings.append(image)
    marked = bytearray(len(entries))
    reps = []
    for i, m in enumerate(entries):
        if not marked[i]:
            reps.append(i)
            for image in relabellings:
                marked[index[frozenset(image[c] for c in m.circuits)]] = 1
    return reps


def submasks(mask: int) -> Iterator[int]:
    """Yield every submask of ``mask`` in ascending numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def brute_independent(circuits: SetFamily, mask: int) -> bool:
    return all(c & ~mask != 0 for c in circuits)


def brute_rank(m: Matroid, a: int = None) -> int:
    """Largest independent subset of a, by scanning every subset."""
    region = m.ground.full_mask if a is None else a
    best = 0
    sub = region
    while True:
        if brute_independent(m.circuits, sub):
            best = max(best, sub.bit_count())
        if sub == 0:
            break
        sub = (sub - 1) & region
    return best


def brute_higgs_rank(m: Matroid, l: Matroid, i: int, a: int) -> int:
    """Rank of ``a`` in stage i of the Higgs factorization of the quotient
    (m, l): min(r_l(a), r_m(a) + i), both ranks by brute force."""
    return min(brute_rank(l, a), brute_rank(m, a) + i)


def brute_lift_rank(m: Matroid, l: Matroid, s: int, a: int, y_size: int) -> int:
    """Rank of ``a`` plus ``y_size`` new elements in the lift witness N of the
    quotient (m, l) with rank step ``s``: min(r_l(a) + |Y|, r_m(a) + s), both
    ranks by brute force. Contracting the other s - |Y| new elements gives
    ``brute_higgs_rank`` at stage |Y|."""
    return min(brute_rank(l, a) + y_size, brute_rank(m, a) + s)


def brute_bases(m: Matroid) -> list[int]:
    n = len(m.ground)
    r = brute_rank(m)
    out = []
    for combo in combinations(range(n), r):
        mask = 0
        for i in combo:
            mask |= 1 << i
        if brute_independent(m.circuits, mask):
            out.append(mask)
    return out


def brute_minimal_dependent(n: int, dependent) -> SetFamily:
    """The minimal subsets of range(n) that the upward-closed test
    ``dependent`` accepts, found by scanning subsets from the smallest up."""
    found: list[int] = []
    for k in range(1, n + 1):
        for combo in combinations(range(n), k):
            mask = sum(1 << i for i in combo)
            if all(c & ~mask for c in found) and dependent(mask):
                found.append(mask)
    return SetFamily(found)


def per_element_circuit_axioms(family: SetFamily, strong: bool = False):
    """The least circuit-axiom violation of ``family`` as ``(axiom, witness)``,
    or None: the same scan order as ``check_circuit_axioms``, but elimination
    rescans the whole family for every shared element e, taking the union of
    the members inside (c1 | c2) - e."""
    ms = family.members
    if 0 in ms:
        return "AC0", (0,)
    for small, big in combinations(ms, 2):
        if small & ~big == 0:
            return "AC1", (small, big)
    for c1, c2 in combinations(ms, 2):
        for e in range(max(c1, c2).bit_length()):
            if not (c1 & c2) >> e & 1:
                continue
            region = (c1 | c2) & ~(1 << e)
            cover = 0
            for c in ms:
                if c & ~region == 0:
                    cover |= c
            if cover == 0:
                return "AC2", (c1, c2, e)
            missing = (c1 ^ c2) & ~cover
            if strong and missing:
                d = (missing & -missing).bit_length() - 1
                return "AC2!", (c1, c2, e, d) if c1 >> d & 1 else (c2, c1, e, d)
    return None


def brute_exchange(bases: list[int]) -> bool:
    """Basis exchange: for bases b1, b2 and x in b1 - b2, some y in b2 - b1
    makes b1 - x + y a basis."""
    members = set(bases)
    for b1 in bases:
        for b2 in bases:
            ins = [y for y in range(b2.bit_length()) if (b2 & ~b1) >> y & 1]
            for x in range(b1.bit_length()):
                if (b1 & ~b2) >> x & 1 and not any(
                    (b1 & ~(1 << x) | 1 << y) in members for y in ins
                ):
                    return False
    return True


def enumerate_by_bases(n: int) -> list[Matroid]:
    """Every matroid on ``default_ground(n)``, in catalog order: each non-empty
    family of r-subsets that passes basis exchange, with circuits the minimal
    sets inside no basis. It scans 2^C(n, r) families per rank, so n <= 5."""
    assert n <= 5, "the basis scan takes 2^20 families at n = 6"
    out = []
    for r in range(n + 1):
        r_subsets = [sum(1 << i for i in combo) for combo in combinations(range(n), r)]
        for pick in range(1, 1 << len(r_subsets)):
            bases = [b for k, b in enumerate(r_subsets) if pick >> k & 1]
            if brute_exchange(bases):
                circuits = brute_minimal_dependent(n, lambda a: all(a & ~b for b in bases))
                out.append(Matroid(default_ground(n), circuits))
    return sorted(out, key=catalog_line)


def upset_extensions(l: Matroid, big: GroundSet) -> list[Matroid]:
    """The extensions of ``l`` to ``big`` (one more element x), in
    ``enumeration._extensions`` order, by screening every up-set of flats.

    Each up-set U, grown largest flat first with "out" before "in", adds
    A + x to ``l``'s circuits for every independent A minimal with cl(A) in
    U; the families that pass the circuit axioms are kept. The up-sets of
    the free matroid's flats are the antichains of subsets, 7,581 on 5
    elements and 7,828,354 on 6, so the scan stops at the n = 5 catalog.
    """
    x = 1 << len(l.ground)
    closure = {a: a | sum({c & ~a for c in l.circuits if (c & ~a).bit_count() == 1})
               for a in range(x) if l.is_independent(a)}
    flats = sorted(set(closure.values()), key=int.bit_count, reverse=True)
    candidates = [(f, [closure[a & ~(1 << b)] for b in bit_indices(a)], a | x)
                  for a, f in closure.items()]

    def grow(up: set[int], k: int) -> Iterator[Matroid]:
        if k == len(flats):
            new = [c for f, below, c in candidates if f in up and not any(b in up for b in below)]
            family = SetFamily((*l.circuits, *new))
            if check_circuit_axioms(big, family).passed:
                yield Matroid._trusted(big, family)
            return
        yield from grow(up, k + 1)
        f = flats[k]
        if all(h in up for h in flats[:k] if f & ~h == 0):
            yield from grow(up | {f}, k + 1)

    return list(grow(set(), 0))


def brute_dual(m: Matroid) -> SetFamily:
    """Circuits of the dual: the minimal sets meeting every basis."""
    bases = brute_bases(m)
    return brute_minimal_dependent(len(m.ground), lambda a: all(a & b for b in bases))


def brute_closure(m: Matroid, a: int) -> int:
    """Span of a: a plus every element not raising the rank."""
    r = brute_rank(m, a)
    out = a
    for i in range(len(m.ground)):
        bit = 1 << i
        if not a & bit and brute_rank(m, a | bit) == r:
            out |= bit
    return out


def brute_flats(m: Matroid) -> set[int]:
    """The flats of m: the sets that every outside element raises in rank.
    Ranks come from a table over all subsets, each set's rank its size if it
    contains no circuit, else the largest rank of its one-smaller subsets."""
    n = len(m.ground)
    rank = [0] * (1 << n)
    for a in range(1, 1 << n):
        if brute_independent(m.circuits, a):
            rank[a] = a.bit_count()
        else:
            rank[a] = max(rank[a & ~(1 << i)] for i in range(n) if a >> i & 1)
    return {a for a in range(1 << n)
            if all(rank[a | 1 << i] > rank[a] for i in range(n) if not a >> i & 1)}


def brute_cyclic_sets(m: Matroid) -> set[int]:
    """All unions of circuits, empty union included."""
    found = {0}
    for c in m.circuits:
        found |= {prev | c for prev in found}
    return found


def brute_cyclic_sets_by_nullity(m: Matroid) -> dict[int, set[int]]:
    """All unions of circuits, grouped by nullity. The rank of a set is the
    size of its largest independent subset, found over one-smaller subsets."""
    rank: dict[int, int] = {}

    def r(a: int) -> int:
        if a not in rank:
            if brute_independent(m.circuits, a):
                rank[a] = a.bit_count()
            else:
                rank[a] = max(r(a & ~(1 << i)) for i in range(len(m.ground)) if a >> i & 1)
        return rank[a]

    out: dict[int, set[int]] = {}
    for a in brute_cyclic_sets(m):
        out.setdefault(a.bit_count() - r(a), set()).add(a)
    return out


def subset_bitmaps(m: Matroid) -> tuple[int, int, int]:
    """``(circ, cyc, flats)`` of m, each an int over the 2^n subsets of its
    ground: bit a is set iff subset a is a circuit, is cyclic (a union of
    circuits, by ``brute_cyclic_sets``), or is a flat (by ``brute_flats``)."""
    def bits(sets):
        return sum(1 << a for a in sets)

    return bits(m.circuits), bits(brute_cyclic_sets(m)), bits(brute_flats(m))


@cache
def _superset_bitmaps(n: int) -> tuple[int, ...]:
    """Entry a is an int over the 2^n subsets of range(n) with bit b set iff
    b contains a; entry 0 has every bit set."""
    one = [sum(1 << b for b in range(1 << n) if b >> i & 1) for i in range(n)]
    full = (1 << (1 << n)) - 1
    return tuple(reduce(and_, (one[i] for i in bit_indices(a)), full) for a in range(1 << n))


def circuit_bitmaps(m: Matroid) -> tuple[int, int, int]:
    """``subset_bitmaps`` of m read off its circuits, with no rank or subset
    scan: a is cyclic iff each of its elements lies on a circuit inside a,
    and a is a flat iff no circuit has exactly one element outside a."""
    n = len(m.ground)
    sup = _superset_bitmaps(n)
    full = sup[0]
    through = [0] * n
    not_flat = 0
    for c in m.circuits:
        for i in bit_indices(c):
            through[i] |= sup[c]
            not_flat |= sup[c & ~(1 << i)] & ~sup[1 << i]
    cyc = reduce(and_, ((full ^ sup[1 << i]) | through[i] for i in range(n)), full)
    return sum(1 << c for c in m.circuits), cyc, full & ~not_flat


def quotients_by_circuit_union(
    tables: list[tuple[int, int, int]], lower: Optional[Sequence[int]] = None
) -> list[list[int]]:
    """For each index j of ``subset_bitmaps`` rows, the indices i (of all
    rows, or of those in ``lower``) with (M_i, L_j) a quotient by the paper's
    test: every circuit of L_j is cyclic in M_i, ``circ_L & ~cyc_M == 0``."""
    rows = range(len(tables)) if lower is None else lower
    cycs = [(i, tables[i][1]) for i in rows]
    return [[i for i, cyc in cycs if circ & ~cyc == 0] for circ, _, _ in tables]


def quotients_by_flats(
    tables: list[tuple[int, int, int]], lower: Optional[Sequence[int]] = None
) -> list[list[int]]:
    """``quotients_by_circuit_union`` by the independent route: every flat of
    M_i is a flat of L_j, ``flats_M & ~flats_L == 0`` (Oxley, Prop. 7.3.6)."""
    rows = range(len(tables)) if lower is None else lower
    flats = [(i, tables[i][2]) for i in rows]
    return [[i for i, f in flats if f & ~upper == 0] for _, _, upper in tables]


def scan_cyclic_elimination(
    by_nullity: dict[int, set[int]], a1: int, a2: int, a: int
) -> Optional[int]:
    """The first submask of (a1 | a2) - a, in ascending order, that is cyclic
    with a1's nullity, or None: the subset scan ``cyclic_elimination`` once
    made. ``by_nullity`` is ``brute_cyclic_sets_by_nullity`` of the matroid."""
    target = next(k for k, level in by_nullity.items() if a1 in level)
    for cand in submasks((a1 | a2) & ~(1 << a)):
        if cand in by_nullity[target]:
            return cand
    return None


def gf_rank(vectors: list[tuple[int, ...]], q: int) -> int:
    """Rank of a set of vectors over the prime field with q elements, by a
    full Gauss-Jordan elimination."""
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


def replay_dump(dump: str) -> tuple[dict[str, Matroid], list[str]]:
    """The documents of a failure dump, each parsed by ``parse_matroid_text``
    and keyed by its name, and the dump's other non-blank lines in order."""
    docs: dict[str, Matroid] = {}
    extra: list[str] = []
    document = None
    for line in dump.splitlines():
        if line.startswith("matroid"):
            document = [line]
        elif document is not None:
            document.append(line)
            if line == "end":
                docs[document[0].split()[1]] = parse_matroid_text("\n".join(document))
                document = None
        elif line:
            extra.append(line)
    assert document is None, "dump ends inside a document"
    return docs, extra
