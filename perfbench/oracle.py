"""The benchmark's own matroid arithmetic, independent of the matlift package.

Everything the benchmark checks is checked here: ranks come from circuits by
greedy growth, quotients by the flat characterisation (M is a quotient of L
iff every flat of M is a flat of L; Oxley, *Matroid Theory*, 2nd ed., 7.3),
catalogs by an antichain scan with a direct elimination test, and GF(q)
column matroids by row reduction. Subsets are bitmasks over ground order, as
in matlift's text format, but no matlift code is imported here.
"""

from __future__ import annotations


def rank_table(n: int, circuits, base: int = 0) -> list[int]:
    """Rank of ``A | base`` for every A in 0..2**n - 1 (``base`` above bit n).

    Grows one greedy independent set per subset from the set for the subset
    without its top bit, so each entry costs one independence test. Valid
    for any circuit family of a matroid; ``base`` must be independent.
    """
    circuits = tuple(circuits)
    size = 1 << n
    ind = [0] * size
    rk = [0] * size
    ind[0] = base
    for a in range(1, size):
        top = 1 << (a.bit_length() - 1)
        prev = a ^ top
        cand = ind[prev] | top
        if any(c & ~cand == 0 for c in circuits):
            ind[a] = ind[prev]
            rk[a] = rk[prev]
        else:
            ind[a] = cand
            rk[a] = rk[prev] + 1
    return rk


def greedy_independent(mask: int, circuits) -> int:
    """A maximal independent subset of ``mask``, greedy over ascending bits."""
    out = 0
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        cand = out | low
        if not any(c & ~cand == 0 for c in circuits):
            out = cand
    return out


def flat_bits(n: int, rk: list[int]) -> int:
    """The flats as one int: bit F is set iff subset F is closed."""
    full = (1 << n) - 1
    out = 0
    for f in range(1 << n):
        r = rk[f]
        rest = full & ~f
        closed = True
        while rest:
            low = rest & -rest
            rest ^= low
            if rk[f | low] == r:
                closed = False
                break
        if closed:
            out |= 1 << f
    return out


def is_quotient(flats_m: int, flats_l: int) -> bool:
    """Flat test: every flat of M is a flat of L."""
    return flats_m & ~flats_l == 0


def circuits_from_ranks(n: int, rk: list[int]) -> list[int]:
    """Dependent sets whose every one-smaller subset is independent."""
    out = []
    for a in range(1, 1 << n):
        size = a.bit_count()
        if rk[a] != size - 1:
            continue
        rest = a
        minimal = True
        while rest:
            low = rest & -rest
            rest ^= low
            if rk[a ^ low] != size - 1:
                minimal = False
                break
        if minimal:
            out.append(a)
    return out


def eliminates(circuits: list[int]) -> bool:
    """Weak circuit elimination, checked pair by pair and element by element."""
    for i, c1 in enumerate(circuits):
        for c2 in circuits[i + 1:]:
            common = c1 & c2
            while common:
                low = common & -common
                common ^= low
                region = (c1 | c2) & ~low
                if not any(c & ~region == 0 for c in circuits):
                    return False
    return True


def all_matroids(n: int) -> list[tuple[int, ...]]:
    """Circuit families of every labelled matroid on n elements.

    Scans every antichain of non-empty subsets (a clutter) and keeps those
    that satisfy elimination. Families come back sorted by (size, mask).
    """
    subsets = sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))
    out: list[tuple[int, ...]] = []

    def grow(start: int, chosen: list[int]) -> None:
        if eliminates(chosen):
            out.append(tuple(chosen))
        for k in range(start, len(subsets)):
            s = subsets[k]
            # canonical order puts every proper subset of s before it
            if any(c & s == c for c in chosen):
                continue
            chosen.append(s)
            grow(k + 1, chosen)
            chosen.pop()

    grow(0, [])
    return out


# ------------------------------------------------------------------ GF(q)


def _reduce(basis, vec, q):
    v = list(vec)
    for pivot, row in basis:
        f = v[pivot]
        if f:
            v = [(a - f * b) % q for a, b in zip(v, row)]
    return v


def extend_basis(basis, vec, q):
    """Echelon basis with ``vec`` added, or None if ``vec`` is in its span."""
    v = _reduce(basis, vec, q)
    for i, a in enumerate(v):
        if a:
            inv = pow(a, -1, q)
            return basis + [(i, [(x * inv) % q for x in v])]
    return None


def column_ranks(cols, q, base=()) -> list[int]:
    """Rank over GF(q) of every subset of ``cols``, together with ``base``.

    ``base`` is a list of independent vectors. Entry A of the result is
    rank(base + cols[A]) - len(base).
    """
    start = []
    for v in base:
        start = extend_basis(start, v, q)
        if start is None:
            raise ValueError("base vectors are dependent")
    size = 1 << len(cols)
    bases = [start] + [None] * (size - 1)
    for a in range(1, size):
        top = a.bit_length() - 1
        prev = bases[a & ~(1 << top)]
        grown = extend_basis(prev, cols[top], q)
        bases[a] = prev if grown is None else grown
    k = len(start)
    return [len(b) - k for b in bases]


# --------------------------------------------------------------- text format


def matroid_text(name: str, labels, circuits) -> str:
    """A matroid document in matlift's line format."""
    lines = [f"matroid {name}", "ground " + " ".join(labels)]
    for c in sorted(circuits, key=lambda m: (m.bit_count(), m)):
        lines.append("circuit " + " ".join(labels[i] for i in range(len(labels)) if c >> i & 1))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> tuple[tuple[str, ...], frozenset[int]]:
    """Ground labels and circuit masks of one matroid document.

    Accepts exactly what the benchmark expects the program to write and
    raises ValueError on anything else.
    """
    ground = None
    circuits = set()
    ended = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].split()
        if not line:
            continue
        if ended:
            raise ValueError("content after end")
        head, args = line[0], line[1:]
        if head == "matroid":
            continue
        if head == "ground":
            ground = tuple(args)
            index = {lab: i for i, lab in enumerate(ground)}
            if len(index) != len(ground):
                raise ValueError("repeated ground label")
        elif head == "circuit":
            if ground is None or not args:
                raise ValueError("bad circuit line")
            mask = 0
            for lab in args:
                mask |= 1 << index[lab]
            circuits.add(mask)
        elif head == "end":
            ended = True
        else:
            raise ValueError(f"unknown directive {head!r}")
    if ground is None or not ended:
        raise ValueError("incomplete document")
    return ground, frozenset(circuits)
