from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regsim.quorum import QuorumSystem, bits, build_majority, build_matrix


def test_majority_3_enumeration():
    qs = build_majority(3)
    assert qs.universe == frozenset({1, 2, 3})
    assert qs.quorums == [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})]


def test_majority_5_counts():
    qs = build_majority(5)
    assert len(qs.quorums) == 10  # C(5, 3)
    assert all(len(q) == 3 for q in qs.quorums)
    # Lexicographic enumeration of member tuples.
    assert [tuple(sorted(q)) for q in qs.quorums] == sorted(
        tuple(sorted(c)) for c in combinations(range(1, 6), 3)
    )


def test_matrix_3x3_shape():
    qs = build_matrix(3, 3)
    assert qs.universe == frozenset(range(9))
    assert len(qs.quorums) == 9
    assert all(len(q) == 5 for q in qs.quorums)
    assert qs.quorums[0] == frozenset({0, 1, 2, 3, 6})  # row 0 + column 0


def test_matrix_4x4_shape():
    qs = build_matrix(4, 4)
    assert len(qs.quorums) == 16
    assert all(len(q) == 7 for q in qs.quorums)


def test_matrix_1x1():
    assert build_matrix(1, 1).quorums == [frozenset({0})]


@pytest.mark.parametrize("n", range(1, 9))
def test_majority_pairwise_intersection(n):
    qs = build_majority(n)
    for a in qs.quorums:
        for b in qs.quorums:
            assert a & b


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3), (4, 4), (5, 5)])
def test_matrix_pairwise_intersection(rows, cols):
    qs = build_matrix(rows, cols)
    for a in qs.quorums:
        for b in qs.quorums:
            assert a & b


def test_validate_rejects_disjoint_quorums():
    qs = QuorumSystem(frozenset({1, 2, 3, 4}), [frozenset({1, 2}), frozenset({3, 4})])
    with pytest.raises(ValueError, match="disjoint"):
        qs.validate()


def test_first_contained_matrix_example():
    qs = build_matrix(3, 3)
    responders = {0, 1, 2, 3, 6, 8}  # row 0 + column 0 + extra server
    assert qs.first_contained_mask(qs.mask_of(responders)) == 0


def test_first_contained_none_and_order():
    qs = build_majority(3)
    assert qs.first_contained_mask(qs.mask_of({2})) == -1
    assert qs.first_contained_mask(qs.mask_of({2, 3})) == 2
    assert qs.first_contained_mask(qs.mask_of({1, 2, 3})) == 0  # first in enumeration order
    # Deterministic on repeat.
    assert qs.first_contained_mask(0b110) == qs.first_contained_mask(0b110)


@given(st.integers(1, 9), st.data())
def test_first_contained_monotone_in_responders(n, data):
    qs = build_majority(n)
    resp = data.draw(st.integers(0, (1 << n) - 1))
    extra = data.draw(st.integers(0, (1 << n) - 1))
    before = qs.first_contained_mask(resp)
    after = qs.first_contained_mask(resp | extra)
    if before >= 0:
        assert 0 <= after <= before


def test_mask_scan_semantics():
    qs = QuorumSystem(frozenset({0, 1, 2}), [frozenset({0, 1}), frozenset({0, 2}), frozenset({1, 2})])
    assert qs.masks == [0b011, 0b101, 0b110]
    assert qs.first_contained_mask(0b111) == 0
    assert qs.first_contained_mask(0b110) == 2
    assert qs.first_contained_mask(0b001) == -1
    # current={bit0}, maxset={bit0}: quorum 0b101 intersects only inside maxset
    assert qs.view3_mask(0b001, 0b001)
    # empty intersection counts as contained
    split = QuorumSystem(frozenset({0, 1, 2}), [frozenset({2}), frozenset({0, 1})])
    assert split.masks == [0b100, 0b011]
    assert split.view3_mask(0b011, 0)


@st.composite
def quorum_systems(draw):
    """Arbitrary quorums over servers 0..n-1, possibly empty or disjoint."""
    n = draw(st.integers(1, 10))
    ids = st.sets(st.integers(0, n - 1)).map(frozenset)
    return QuorumSystem(frozenset(range(n)), draw(st.lists(ids, min_size=1, max_size=20)))


@given(quorum_systems(), st.data())
def test_first_contained_mask_matches_set_definition(qs, data):
    responders = data.draw(st.sets(st.sampled_from(qs.members)))
    expected = next((i for i, q in enumerate(qs.quorums) if q <= responders), -1)
    assert qs.first_contained_mask(qs.mask_of(responders)) == expected


@given(quorum_systems(), st.data())
def test_view3_mask_matches_set_definition(qs, data):
    current = data.draw(st.sets(st.sampled_from(qs.members)))
    maxset = data.draw(st.sets(st.sampled_from(qs.members)))
    expected = any(q != current and q & current <= maxset for q in qs.quorums)
    assert qs.view3_mask(qs.mask_of(current), qs.mask_of(maxset)) == expected


@given(quorum_systems(), st.data())
def test_relay_mask_matches_set_definition(qs, data):
    bit = data.draw(st.integers(0, qs.n - 1))
    s = qs.members[bit]
    expected = frozenset().union(*(q for q in qs.quorums if s in q))
    assert qs.relay_mask(bit) == qs.mask_of(expected)


@given(st.integers(0, 1 << 12))
def test_bits_ascending(mask):
    assert list(bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_relay_destinations_majority():
    qs = build_majority(3)
    assert qs.relay_mask(0) == 0b111  # server 1 shares a quorum with 2 and 3


def test_relay_destinations_matrix_center():
    qs = build_matrix(3, 3)
    assert qs.relay_mask(4) == (1 << 9) - 1  # centre: its row and column reach every server


@pytest.mark.parametrize("make", [lambda: build_majority(4), lambda: build_matrix(3, 3)])
def test_relay_destinations_contain_self(make):
    qs = make()
    for b in range(qs.n):
        assert qs.relay_mask(b) >> b & 1
