"""Brute-force oracles used to cross-check the library's fast paths.

Everything here recomputes matroid quantities from first principles
(independence = contains no circuit), with no shortcuts shared with the
implementation under test.
"""

from itertools import combinations

from matlift.matroid import Matroid
from matlift.sets import GroundSet, SetFamily, default_ground


def mk(n_or_labels, *circuit_labels) -> Matroid:
    """Convenience constructor: mk(3, "ab", "ac") over single-char labels."""
    if isinstance(n_or_labels, int):
        ground = default_ground(n_or_labels)
    else:
        ground = GroundSet(n_or_labels)
    masks = [ground.mask_of(tuple(word)) for word in circuit_labels]
    return Matroid(ground, masks)


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


def brute_dual(m: Matroid) -> SetFamily:
    """Circuits of the dual: the minimal sets meeting every basis, found by
    scanning subsets from the smallest up."""
    bases = brute_bases(m)
    found: list[int] = []
    for k in range(1, len(m.ground) + 1):
        for combo in combinations(range(len(m.ground)), k):
            mask = sum(1 << i for i in combo)
            if all(mask & b for b in bases) and all(c & ~mask for c in found):
                found.append(mask)
    return SetFamily(found)


def brute_closure(m: Matroid, a: int) -> int:
    """Span of a: a plus every element not raising the rank."""
    r = brute_rank(m, a)
    out = a
    for i in range(len(m.ground)):
        bit = 1 << i
        if not a & bit and brute_rank(m, a | bit) == r:
            out |= bit
    return out


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
