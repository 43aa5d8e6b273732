"""Axiom checkers for circuit and basis families.

Both checkers take a raw family, so candidates can be screened before a
validated matroid exists. They return a report instead of raising; bulk scans
over garbage input stay cheap and callers decide what a failure means. A
caller that refuses the family raises ``errors.NotAMatroid`` with the report.

Scan order is fixed: family members in canonical order, elements in ascending
bit order, and checking stops at the first violation (weak elimination settles
all shared elements of a pair in one scan and reports the least failing one).
A report therefore holds at most one violation, the least under that order,
and replaying its witness against the same family reproduces the failure.

Axiom identifiers:

* ``AC0`` circuits are non-empty
* ``AC1`` no circuit contains another (clutter)
* ``AC2`` elimination: distinct circuits c1, c2 meeting at e admit a circuit
  inside their union avoiding e; witness ``(c1, c2, e)``
* ``AC2!`` strong elimination: additionally, for each d in c1 minus c2 the
  eliminating circuit can be chosen through d; witness ``(c1, c2, e, d)``
* ``AB0`` at least one basis
* ``AB1`` equal basis cardinalities; witness ``(b1, b2)``
* ``AB2`` basis exchange; witness ``(b1, b2, x)``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .sets import GroundSet, SetFamily, bit_indices


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[int, ...]

    def describe(self, ground: GroundSet) -> str:
        if self.axiom in ("AC0", "AB0"):
            return f"{self.axiom} violated"
        if self.axiom in ("AC2", "AB2"):
            a, b, e = self.witness
            return (
                f"{self.axiom} violated at {ground.format_mask(a)}, "
                f"{ground.format_mask(b)}, element {ground.labels[e]}"
            )
        if self.axiom == "AC2!":
            a, b, e, d = self.witness
            return (
                f"AC2! violated at {ground.format_mask(a)}, {ground.format_mask(b)}, "
                f"element {ground.labels[e]}, target {ground.labels[d]}"
            )
        a, b = self.witness
        return (
            f"{self.axiom} violated at {ground.format_mask(a)}, {ground.format_mask(b)}"
        )


@dataclass(frozen=True)
class AxiomReport:
    """A check's outcome: the first violation found, or None if every axiom holds."""

    ground: GroundSet
    violation: Optional[Violation] = None

    @property
    def passed(self) -> bool:
        return self.violation is None

    def describe(self) -> str:
        if self.violation is None:
            return "all axioms hold"
        return self.violation.describe(self.ground)


def check_circuit_axioms(
    ground: GroundSet, family: SetFamily, strong: bool = False
) -> AxiomReport:
    """Check a candidate circuit family; ``strong=True`` adds AC2!.

    Exhaustive over all circuit pairs and elements. The weak check scans the
    family once per pair c1, c2 meeting in k: a circuit inside (c1 | c2) - e
    exists unless e lies in k and in every member inside c1 | c2, so the
    lowest bit of that intersection is the least failing e. The strong check
    takes, per shared e, the union of all members inside (c1 | c2) - e, so one
    pass settles every target d at once.
    """
    ground.check_mask(family.union_mask if family else 0)
    ms = family.members
    if 0 in ms:
        return AxiomReport(ground, Violation("AC0", (0,)))
    for i, small in enumerate(ms):
        for j in range(i + 1, len(ms)):
            if small != ms[j] and small & ~ms[j] == 0:
                return AxiomReport(ground, Violation("AC1", (small, ms[j])))
    for i, c1 in enumerate(ms):
        for j in range(i + 1, len(ms)):
            c2 = ms[j]
            common = c1 & c2
            if not common:
                continue
            if not strong:
                union = c1 | c2
                meet = common
                for c in ms:
                    if c & ~union == 0:
                        meet &= c
                        if not meet:
                            break
                if meet:
                    e = (meet & -meet).bit_length() - 1
                    return AxiomReport(ground, Violation("AC2", (c1, c2, e)))
                continue
            for e in bit_indices(common):
                region = (c1 | c2) & ~(1 << e)
                cover = 0
                for c in ms:
                    if c & ~region == 0:
                        cover |= c
                if cover == 0:
                    return AxiomReport(ground, Violation("AC2", (c1, c2, e)))
                missing = (c1 ^ c2) & ~cover
                if missing:
                    d = next(bit_indices(missing))
                    if c1 >> d & 1:
                        wit = (c1, c2, e, d)
                    else:
                        wit = (c2, c1, e, d)
                    return AxiomReport(ground, Violation("AC2!", wit))
    return AxiomReport(ground)


def check_basis_exchange(ground: GroundSet, family: SetFamily) -> AxiomReport:
    """Check a candidate basis family: non-empty, equal sizes, exchange."""
    ground.check_mask(family.union_mask if family else 0)
    ms = family.members
    if not ms:
        return AxiomReport(ground, Violation("AB0", ()))
    size = ms[0].bit_count()
    for b in ms[1:]:
        if b.bit_count() != size:
            return AxiomReport(ground, Violation("AB1", (ms[0], b)))
    members = set(ms)
    for b1 in ms:
        for b2 in ms:
            out = b1 & ~b2
            if not out:
                continue
            into = b2 & ~b1
            for x in bit_indices(out):
                base = b1 & ~(1 << x)
                if not any(base | (1 << y) in members for y in bit_indices(into)):
                    return AxiomReport(ground, Violation("AB2", (b1, b2, x)))
    return AxiomReport(ground)
