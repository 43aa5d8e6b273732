"""Brute-force oracles used to cross-check the library's fast paths.

Everything here recomputes matroid quantities from first principles
(independence = contains no circuit), with no shortcuts shared with the
implementation under test. ``replay_dump`` reads a failure dump back, and
``lift`` builds the witness of a pair on fresh labels.
"""

from itertools import combinations

from matlift.matroid import Matroid
from matlift.quotient import LiftWitness, lift_witness
from matlift.sets import GroundSet, SetFamily, default_ground, fresh_labels
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
