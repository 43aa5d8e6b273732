"""Ground sets, bitmask subsets, and canonical set families.

A subset of a ground set is a plain ``int`` used as a bit mask: bit ``i`` set
means element number ``i`` (in ground order) is present. Families of subsets
are stored in one canonical order, cardinality first and numeric mask value
second, so every derived object and every serialized artifact comes out the
same way on every run.

Input is checked once, where it enters: ``GroundSet(...)`` checks every label
and ``SetFamily(...)`` sorts and deduplicates its members (as do
``Matroid(...)`` and the text parser, on top of these). Derived objects are
built from parts already checked and are not checked again. A restriction's
labels are a sub-tuple of checked labels, so ``GroundSet.restrict`` checks
only the mask; ``GroundSet.extend`` checks only the labels it adds. A family
filtered from a canonical one, or compressed onto the kept elements, keeps
canonical order, so ``minimal_members`` and deletion skip the sort.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import Iterable, Iterator

from .errors import GroundTooLarge, InvalidGroundSet, PreconditionFailure

# Fixed mask width. Everything in this package assumes ground sets at most
# this large; operations that scan all subsets have their own smaller caps.
MAX_GROUND_SIZE = 24

LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")

_ALPHABET = "abcdefghijklmnopqrstuvwx"


def bit_indices(mask: int) -> Iterator[int]:
    """Yield the positions of set bits in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def masks_of_size(n: int, k: int) -> Iterator[int]:
    """Yield the k-subsets of ``range(n)`` as masks, in ``combinations`` order."""
    return map(sum, combinations([1 << i for i in range(n)], k))


def compress(mask: int, keep: int) -> int:
    """Renumber the bits of ``mask`` (a subset of ``keep``) to be consecutive.

    Bit ``i`` of the result is set iff the i-th lowest bit of ``keep`` is set
    in ``mask``. Used when a minor shrinks the ground set. When ``keep`` is
    one run of bits, as when a minor removes the top elements, this is a shift.
    """
    low = keep & -keep
    if keep and keep & (keep + low) == 0:
        return (mask & keep) >> (low.bit_length() - 1)
    out = 0
    pos = 0
    while keep:
        low = keep & -keep
        if mask & low:
            out |= 1 << pos
        pos += 1
        keep ^= low
    return out


class GroundSet:
    """Ordered, immutable collection of element labels.

    Ground order fixes the mask encoding: ``labels[i]`` is bit ``i``.
    Equality is label-for-label, order included.
    """

    __slots__ = ("labels", "_index", "full_mask")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise InvalidGroundSet("ground set must contain at least one element")
        self._adopt(labels, _indexed({}, labels))

    def _adopt(self, labels: tuple[str, ...], index: dict[str, int]) -> None:
        self.labels = labels
        self._index = index
        self.full_mask = (1 << len(labels)) - 1

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], index: dict[str, int]) -> "GroundSet":
        """The ground set of ``labels``, unchecked: for labels taken from, or
        checked against, a ground set already built; ``index`` maps each
        label to its position."""
        g = cls.__new__(cls)
        g._adopt(labels, index)
        return g

    # -- basics

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"GroundSet({','.join(self.labels)})"

    # -- label/mask conversions

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise PreconditionFailure(f"element {label!r} is not in {self!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(self.labels[i] for i in bit_indices(mask))

    def check_mask(self, mask: int) -> int:
        """``mask`` itself, if it is a subset of the ground. Bits past the
        ground have no label, so the refusal names their positions."""
        if mask < 0 or mask & ~self.full_mask:
            if mask < 0:
                raise PreconditionFailure(f"negative mask {mask} is not a subset of {self!r}")
            positions = ", ".join(map(str, bit_indices(mask & ~self.full_mask)))
            raise PreconditionFailure(f"mask has bits at positions {positions} outside {self!r}")
        return mask

    # -- derived ground sets

    def restrict(self, keep_mask: int) -> "GroundSet":
        """Ground set of the elements in ``keep_mask``, order preserved.

        Only the mask is checked: the labels are a sub-tuple of this ground's,
        which were checked when it was built. An empty mask is
        InvalidGroundSet, as ``GroundSet(())`` is.
        """
        self.check_mask(keep_mask)
        if not keep_mask:
            raise InvalidGroundSet("ground set must contain at least one element")
        if keep_mask & (keep_mask + 1) == 0:
            labels = self.labels[: keep_mask.bit_length()]
        else:
            labels = tuple(self.labels[i] for i in bit_indices(keep_mask))
        return GroundSet._trusted(labels, dict(zip(labels, range(len(labels)))))

    def extend(self, new_labels: Iterable[str]) -> "GroundSet":
        """This ground set followed by ``new_labels``.

        Only the new labels are checked, with the errors and messages
        ``GroundSet(...)`` of all the labels would give: a bad, repeated or
        clashing label is InvalidGroundSet, more than the mask width
        GroundTooLarge.
        """
        new = tuple(new_labels)
        index = _indexed(dict(self._index), new)
        return GroundSet._trusted(self.labels + new, index)

    # -- formatting

    def format_mask(self, mask: int) -> str:
        return "{" + ",".join(self.labels_of(mask)) + "}"

    def format_family(self, family: "SetFamily | Iterable[int]") -> str:
        return "{" + ", ".join(self.format_mask(m) for m in family) + "}"


def _indexed(index: dict[str, int], labels: tuple[str, ...]) -> dict[str, int]:
    """``index`` (label to position) with ``labels`` appended after its
    entries; refuses a bad or repeated label, or a total past the mask width."""
    start = len(index)
    if start + len(labels) > MAX_GROUND_SIZE:
        raise GroundTooLarge(
            f"{start + len(labels)} elements exceeds the {MAX_GROUND_SIZE}-bit mask width"
        )
    for i, lab in enumerate(labels, start):
        if not isinstance(lab, str) or not LABEL_RE.fullmatch(lab):
            raise InvalidGroundSet(f"bad element label {lab!r}")
        if lab in index:
            raise InvalidGroundSet(f"duplicate element label {lab!r}")
        index[lab] = i
    return index


def default_ground(n: int) -> GroundSet:
    """Ground set with the first ``n`` lowercase letters as labels; n < 1 is
    InvalidGroundSet, n above the alphabet GroundTooLarge."""
    if n < 1:
        raise InvalidGroundSet(f"a ground set needs at least one element, got n={n}")
    if n > len(_ALPHABET):
        raise GroundTooLarge(f"no default labels for n={n}")
    return GroundSet(_ALPHABET[:n])


def fresh_labels(ground: GroundSet, count: int, stem: str = "x") -> tuple[str, ...]:
    """``count`` labels of the form stem1, stem2, ... avoiding ``ground``."""
    out: list[str] = []
    i = 1
    while len(out) < count:
        lab = f"{stem}{i}"
        if lab not in ground.labels:
            out.append(lab)
        i += 1
    return tuple(out)


class SetFamily:
    """Duplicate-free family of subset masks held in canonical order.

    Canonical order is (cardinality, numeric mask value) ascending. Instances
    are immutable by convention; nothing mutates ``members`` after init.
    """

    __slots__ = ("members",)

    def __init__(self, members: Iterable[int] = ()):
        ordered = sorted(set(members))
        ordered.sort(key=int.bit_count)  # stable: by value within each size
        self.members = tuple(ordered)

    @classmethod
    def _canonical(cls, members: tuple[int, ...]) -> "SetFamily":
        """The family of ``members``, which its caller holds in canonical
        order without repeats; nothing is sorted or checked."""
        fam = cls.__new__(cls)
        fam.members = members
        return fam

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __bool__(self) -> bool:
        return bool(self.members)

    def __contains__(self, mask: object) -> bool:
        return mask in self.members

    def __getitem__(self, i: int) -> int:
        return self.members[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetFamily) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"SetFamily({list(self.members)})"

    @property
    def union_mask(self) -> int:
        out = 0
        for m in self.members:
            out |= m
        return out


def minimal_members(family: SetFamily | Iterable[int]) -> SetFamily:
    """Members of ``family`` with no proper subset in the family.

    Canonical order puts every proper subset of a member before it, so one
    scan against the minimal members kept so far decides each member. The
    result is a sub-sequence of a canonical family and is not sorted again.
    """
    fam = family if isinstance(family, SetFamily) else SetFamily(family)
    keep: list[int] = []
    for m in fam.members:
        for k in keep:
            if k & ~m == 0:
                break
        else:
            keep.append(m)
    return SetFamily._canonical(tuple(keep))
