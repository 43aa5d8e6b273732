from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matlift.errors import DuplicateLabel, GroundTooLarge, InvalidGroundSet, UnknownLabel
from matlift.sets import (
    GroundSet,
    SetFamily,
    bit_indices,
    compress,
    default_ground,
    fresh_labels,
    masks_of_size,
)

from helpers import submasks


def test_ground_basics():
    g = GroundSet(("a", "b", "c"))
    assert len(g) == 3
    assert g.full_mask == 0b111
    assert g.mask_of(("a", "c")) == 0b101
    assert g.labels_of(0b101) == ("a", "c")
    assert g.format_mask(0) == "{}"
    assert g.format_mask(0b110) == "{b,c}"


def test_ground_rejects_bad_input():
    with pytest.raises(DuplicateLabel):
        GroundSet(("a", "a"))
    with pytest.raises(InvalidGroundSet):
        GroundSet(("a", "bad label"))
    with pytest.raises(InvalidGroundSet):
        GroundSet(())
    with pytest.raises(GroundTooLarge):
        GroundSet(tuple(f"e{i}" for i in range(25)))
    for n in (0, -3):  # as from matlift enumerate --n 0 or pairs --n -3
        with pytest.raises(InvalidGroundSet):
            default_ground(n)
    with pytest.raises(GroundTooLarge):
        default_ground(25)
    g = default_ground(3)
    with pytest.raises(UnknownLabel):
        g.mask_of(("z",))
    with pytest.raises(UnknownLabel):
        g.check_mask(1 << 5)


def test_restrict_and_extend():
    g = default_ground(4)
    small = g.restrict(0b1010)
    assert small.labels == ("b", "d")
    big = g.extend(("x", "y"))
    assert big.labels == ("a", "b", "c", "d", "x", "y")
    with pytest.raises(DuplicateLabel):
        g.extend(("a",))


def test_fresh_labels_skip_clashes():
    g = GroundSet(("a", "x1", "x3"))
    assert fresh_labels(g, 3) == ("x2", "x4", "x5")
    assert fresh_labels(g, 2, stem="z") == ("z1", "z2")


def test_bit_helpers():
    assert list(bit_indices(0b1011)) == [0, 1, 3]
    assert list(submasks(0b101)) == [0b000, 0b001, 0b100, 0b101]
    assert list(submasks(0)) == [0]


def test_masks_of_size_match_combinations():
    for n in range(7):
        for k in range(n + 1):
            got = list(masks_of_size(n, k))
            assert got == [sum(1 << i for i in c) for c in combinations(range(n), k)]
            assert set(got) == {m for m in range(1 << n) if m.bit_count() == k}


@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_compress_matches_definition(mask, keep):
    # bit i of the result is set iff the i-th lowest bit of keep is in mask
    kept = [b for b in range(10) if keep >> b & 1]
    want = sum(1 << i for i, b in enumerate(kept) if mask >> b & 1)
    assert compress(mask & keep, keep) == want


def test_family_canonical_order_and_dedup():
    fam = SetFamily([0b110, 0b1, 0b110, 0b011])
    assert fam.members == (0b1, 0b011, 0b110)
    assert 0b011 in fam and 0b100 not in fam
    assert fam.union_mask == 0b111
    assert len(fam) == 3


def test_family_min_max():
    from matlift.sets import minimal_members

    fam = SetFamily([0b1, 0b11, 0b100, 0b111])
    assert minimal_members(fam).members == (0b1, 0b100)
