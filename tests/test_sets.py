from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matlift.errors import GroundTooLarge, InvalidGroundSet, PreconditionFailure
from matlift.sets import (
    GroundSet,
    SetFamily,
    bit_indices,
    compress,
    default_ground,
    fresh_labels,
    masks_of_size,
    minimal_members,
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
    with pytest.raises(InvalidGroundSet, match="duplicate element label 'a'"):
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
    with pytest.raises(PreconditionFailure, match=r"element 'z' is not in GroundSet\(a,b,c\)"):
        g.mask_of(("z",))
    with pytest.raises(PreconditionFailure, match="bits at positions 5 outside"):
        g.check_mask(1 << 5)


def test_check_mask_names_the_bits_outside_the_ground():
    # bits past the ground have no label, so the refusal gives their positions
    g = default_ground(3)
    assert g.check_mask(0b101) == 0b101
    with pytest.raises(PreconditionFailure) as info:
        g.check_mask(0b1100101)
    assert str(info.value) == "mask has bits at positions 5, 6 outside GroundSet(a,b,c)"
    with pytest.raises(PreconditionFailure) as info:
        g.check_mask(-1)
    assert str(info.value) == "negative mask -1 is not a subset of GroundSet(a,b,c)"


def test_restrict_and_extend():
    g = default_ground(4)
    small = g.restrict(0b1010)
    assert small.labels == ("b", "d")
    big = g.extend(("x", "y"))
    assert big.labels == ("a", "b", "c", "d", "x", "y")
    with pytest.raises(InvalidGroundSet, match="duplicate element label 'a'"):
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


def _compress_by_bits(mask, keep):
    # bit i of the result is set iff the i-th lowest bit of keep is in mask
    kept = [b for b in range(keep.bit_length()) if keep >> b & 1]
    return sum(1 << i for i, b in enumerate(kept) if mask >> b & 1)


@given(st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_compress_matches_definition(mask, keep):
    assert compress(mask & keep, keep) == _compress_by_bits(mask, keep)


def test_compress_matches_definition_on_every_subset_of_seven_bits():
    # every keep, the empty one and the single runs that compress shifts
    # included, and every mask inside it
    for keep in range(1 << 7):
        for mask in submasks(keep):
            assert compress(mask, keep) == _compress_by_bits(mask, keep)


def _fields(g):
    return g.labels, g.full_mask, g._index


def test_restrict_and_extend_equal_a_checked_ground():
    # both build from labels already checked; they must agree with the
    # checking constructor on every field it sets
    g = GroundSet(("a", "b", "c", "d", "e", "f", "g"))
    for keep in range(1, 1 << 7):
        small = g.restrict(keep)
        assert _fields(small) == _fields(GroundSet(g.labels_of(keep)))
        rest = g.labels_of(g.full_mask & ~keep)
        assert _fields(small.extend(rest)) == _fields(GroundSet(small.labels + rest))
    with pytest.raises(InvalidGroundSet, match="^ground set must contain at least one element$"):
        g.restrict(0)
    with pytest.raises(PreconditionFailure, match="bits at positions 7 outside"):
        g.restrict(1 << 7)


@pytest.mark.parametrize("new, error, message", [
    (("x", "bad label"), InvalidGroundSet, "bad element label 'bad label'"),
    (("x", 3), InvalidGroundSet, "bad element label 3"),
    (("x", "y", "x"), InvalidGroundSet, "duplicate element label 'x'"),
    (("x", "b"), InvalidGroundSet, "duplicate element label 'b'"),
    (tuple(f"e{i}" for i in range(22)), GroundTooLarge,
     "25 elements exceeds the 24-bit mask width"),
])
def test_extend_checks_its_new_labels_as_the_constructor_does(new, error, message):
    g = default_ground(3)
    for build in (lambda: g.extend(new), lambda: GroundSet(g.labels + new)):
        with pytest.raises(error) as info:
            build()
        assert str(info.value) == message


def test_family_canonical_order_and_dedup():
    fam = SetFamily([0b110, 0b1, 0b110, 0b011])
    assert fam.members == (0b1, 0b011, 0b110)
    assert 0b011 in fam and 0b100 not in fam
    assert fam.union_mask == 0b111
    assert len(fam) == 3


@given(st.lists(st.integers(0, 2**12 - 1)))
def test_family_members_are_in_size_then_value_order(xs):
    members = SetFamily(xs).members
    assert members == tuple(sorted(set(xs), key=lambda m: (m.bit_count(), m)))


def test_family_min_max():
    fam = SetFamily([0b1, 0b11, 0b100, 0b111])
    assert minimal_members(fam).members == (0b1, 0b100)
