"""Deletion and contraction.

Both operations shrink the ground set; masks of the result are re-numbered to
the surviving elements, ground order preserved. Deletion keeps the circuits
that avoid the removed set. Contraction takes the traces of all circuits on
the surviving elements, discards empty traces, and keeps the minimal ones.
Neither is checked again: a minor of a matroid is one (Oxley, 2nd ed., 3.1).
Nor are their parts: the minor's ground is ``GroundSet.restrict``, a
sub-tuple of labels already checked, and deletion's circuits keep the
canonical order of the circuits they are filtered from, so they are not
sorted again; contraction sorts its traces once, for ``minimal_members``.

``CROSS_CHECK`` turns on an independent second route for contraction,
N/z = (N* \\ z)*, and asserts both agree. It dualizes, deletes and dualizes
back on basis families: the bases of N* \\ z are the largest traces of N's
basis complements on the kept elements, and complementing those inside the
kept elements gives the bases of the contraction. It builds no matroid, so a
wrong family shows as a mismatch against the direct result. The test
suite runs with it enabled; library callers get the direct route only.
"""

from __future__ import annotations

from .errors import PreconditionFailure
from .matroid import Matroid, circuits_of_bases
from .sets import SetFamily, compress, minimal_members

CROSS_CHECK = False


def _keep_mask(n: Matroid, z: int) -> int:
    n.ground.check_mask(z)
    keep = n.ground.full_mask & ~z
    if keep == 0:
        raise PreconditionFailure("a minor must keep at least one element")
    return keep


def delete(n: Matroid, z: int) -> Matroid:
    """Matroid on E minus z whose circuits are the circuits avoiding z."""
    keep = _keep_mask(n, z)
    ground = n.ground.restrict(keep)
    circuits = SetFamily._canonical(
        tuple(compress(c, keep) for c in n.circuits.members if c & z == 0)
    )
    return Matroid._trusted(ground, circuits)


def contract(n: Matroid, z: int) -> Matroid:
    """Matroid on E minus z whose circuits are minimal non-empty traces."""
    keep = _keep_mask(n, z)
    ground = n.ground.restrict(keep)
    traces = {c & keep for c in n.circuits}
    traces.discard(0)
    result = Matroid._trusted(ground, minimal_members(compress(t, keep) for t in traces))
    if CROSS_CHECK:
        cotraces = {keep & ~b for b in n.bases()}
        top = max(t.bit_count() for t in cotraces)
        bases = [compress(keep & ~t, keep) for t in cotraces if t.bit_count() == top]
        other = circuits_of_bases(ground, bases)
        if result.circuits != other:
            raise AssertionError(
                f"contraction routes disagree on {n!r} by {n.ground.format_mask(z)}: "
                f"{result!r} vs {ground.format_family(other)}"
            )
    return result
