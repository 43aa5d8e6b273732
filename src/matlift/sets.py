"""Ground sets, bitmask subsets, and canonical set families.

A subset of a ground set is a plain ``int`` used as a bit mask: bit ``i`` set
means element number ``i`` (in ground order) is present. Families of subsets
are stored in one canonical order, cardinality first and numeric mask value
second, so every derived object and every serialized artifact comes out the
same way on every run.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import Iterable, Iterator

from .errors import DuplicateLabel, GroundTooLarge, InvalidGroundSet, UnknownLabel

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
    in ``mask``. Used when a minor shrinks the ground set.
    """
    out = 0
    pos = 0
    while keep:
        low = keep & -keep
        if mask & low:
            out |= 1 << pos
        pos += 1
        keep ^= low
    return out


def _canon_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


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
        if len(labels) > MAX_GROUND_SIZE:
            raise GroundTooLarge(
                f"{len(labels)} elements exceeds the {MAX_GROUND_SIZE}-bit mask width"
            )
        index: dict[str, int] = {}
        for i, lab in enumerate(labels):
            if not isinstance(lab, str) or not LABEL_RE.fullmatch(lab):
                raise InvalidGroundSet(f"bad element label {lab!r}")
            if lab in index:
                raise DuplicateLabel(f"duplicate element label {lab!r}")
            index[lab] = i
        self.labels = labels
        self._index = index
        self.full_mask = (1 << len(labels)) - 1

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
            raise UnknownLabel(f"element {label!r} is not in {self!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(self.labels[i] for i in bit_indices(mask))

    def check_mask(self, mask: int) -> int:
        if mask < 0 or mask & ~self.full_mask:
            raise UnknownLabel(f"mask {mask:#x} has bits outside {self!r}")
        return mask

    # -- derived ground sets

    def restrict(self, keep_mask: int) -> "GroundSet":
        """Ground set of the elements in ``keep_mask``, order preserved."""
        self.check_mask(keep_mask)
        return GroundSet(self.labels[i] for i in bit_indices(keep_mask))

    def extend(self, new_labels: Iterable[str]) -> "GroundSet":
        """This ground set followed by ``new_labels``."""
        return GroundSet(self.labels + tuple(new_labels))

    # -- formatting

    def format_mask(self, mask: int) -> str:
        return "{" + ",".join(self.labels_of(mask)) + "}"

    def format_family(self, family: "SetFamily | Iterable[int]") -> str:
        return "{" + ", ".join(self.format_mask(m) for m in family) + "}"


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
        self.members = tuple(sorted(set(members), key=_canon_key))

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
    """Members of ``family`` with no proper subset in the family."""
    fam = family if isinstance(family, SetFamily) else SetFamily(family)
    ms = fam.members
    keep = []
    for i, m in enumerate(ms):
        # canonical order puts any proper subset strictly earlier
        if not any(ms[j] != m and ms[j] & ~m == 0 for j in range(i)):
            keep.append(m)
    return SetFamily(keep)
