from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regsim.quorum import QuorumSystem, bits, build_majority, build_matrix, majority_survives, matrix_survives


def mask(servers):
    return sum(1 << s for s in servers)


def test_majority_3_enumeration():
    qs = build_majority(3)
    assert qs.n == 3
    assert qs.masks == (0b011, 0b101, 0b110)


def test_majority_5_counts():
    qs = build_majority(5)
    assert len(qs.masks) == 10  # C(5, 3)
    assert all(len(list(bits(m))) == 3 for m in qs.masks)
    # Lexicographic enumeration of member tuples.
    assert [tuple(bits(m)) for m in qs.masks] == sorted(combinations(range(5), 3))


@pytest.mark.parametrize("n", range(1, 10))
def test_majority_masks_are_the_majority_combinations_in_order(n):
    assert build_majority(n).masks == tuple(mask(c) for c in combinations(range(n), n // 2 + 1))


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 3), (2, 3), (3, 2), (3, 3), (4, 5)])
def test_matrix_masks_are_row_and_column_unions(rows, cols):
    expected = tuple(
        mask({r * cols + j for j in range(cols)} | {i * cols + c for i in range(rows)})
        for r in range(rows)
        for c in range(cols)
    )
    assert build_matrix(rows, cols).masks == expected


def test_matrix_3x3_shape():
    qs = build_matrix(3, 3)
    assert qs.n == 9
    assert len(qs.masks) == 9
    assert all(len(list(bits(m))) == 5 for m in qs.masks)
    assert qs.masks[0] == mask({0, 1, 2, 3, 6})  # row 0 + column 0


def test_matrix_4x4_shape():
    qs = build_matrix(4, 4)
    assert len(qs.masks) == 16
    assert all(len(list(bits(m))) == 7 for m in qs.masks)


def test_matrix_1x1():
    assert build_matrix(1, 1).masks == (0b1,)


# The builders do not validate: pairwise intersection is a theorem of
# both constructions, held here.
@pytest.mark.parametrize("n", range(1, 13))
def test_majority_pairwise_intersection(n):
    qs = build_majority(n)
    qs.validate()
    for a in qs.masks:
        for b in qs.masks:
            assert a & b


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (5, 5)])
def test_matrix_pairwise_intersection(rows, cols):
    qs = build_matrix(rows, cols)
    qs.validate()
    for a in qs.masks:
        for b in qs.masks:
            assert a & b


def test_validate_rejects_disjoint_quorums():
    qs = QuorumSystem(4, [0b0011, 0b1100])
    with pytest.raises(ValueError, match=r"quorums 0 and 1 are disjoint: \[0, 1\], \[2, 3\]"):
        qs.validate()


@pytest.mark.parametrize(
    "masks,message",
    [([], "no quorums"), ([0b011, 0], "quorum 1 is empty"), ([0b011, 0b1010], "quorum 1 not within the 3 servers")],
)
def test_validate_rejects_empty_and_out_of_range_quorums(masks, message):
    with pytest.raises(ValueError, match=message):
        QuorumSystem(3, masks).validate()


def test_first_contained_matrix_example():
    qs = build_matrix(3, 3)
    responders = {0, 1, 2, 3, 6, 8}  # row 0 + column 0 + extra server
    assert qs.first_contained_mask(mask(responders)) == 0


def test_first_contained_none_and_order():
    qs = build_majority(3)
    assert qs.first_contained_mask(mask({1})) == -1
    assert qs.first_contained_mask(mask({1, 2})) == 2
    assert qs.first_contained_mask(mask({0, 1, 2})) == 0  # first in enumeration order
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
    qs = QuorumSystem(3, [0b011, 0b101, 0b110])
    assert qs.first_contained_mask(0b111) == 0
    assert qs.first_contained_mask(0b110) == 2
    assert qs.first_contained_mask(0b001) == -1
    # current={bit0}, maxset={bit0}: quorum 0b101 intersects only inside maxset
    assert qs.view3_mask(0b001, 0b001)
    # empty intersection counts as contained
    split = QuorumSystem(3, [0b100, 0b011])
    assert split.view3_mask(0b011, 0)


@st.composite
def quorum_systems(draw):
    """Arbitrary quorums over servers 0..n-1, possibly empty or disjoint."""
    n = draw(st.integers(1, 10))
    return QuorumSystem(n, draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20)))


def server_sets(qs):
    return st.sets(st.integers(0, qs.n - 1)).map(frozenset)


def quorum_sets(qs):
    return [frozenset(bits(m)) for m in qs.masks]


@given(quorum_systems(), st.data())
def test_first_contained_mask_matches_set_definition(qs, data):
    quorums = quorum_sets(qs)
    responders = data.draw(server_sets(qs))
    expected = next((i for i, q in enumerate(quorums) if q <= responders), -1)
    assert qs.first_contained_mask(mask(responders)) == expected


def plain_scan(qs, responders):
    return next((i for i, m in enumerate(qs.masks) if m & ~responders == 0), -1)


def assert_memo_matches_plain_scan(qs, masks):
    """Asked cold, then warm, the memoised scan answers as a plain scan."""
    for warm in (False, True):
        for responders in masks:
            assert qs.first_contained_mask(responders) == plain_scan(qs, responders), (warm, responders)


@pytest.mark.parametrize(
    "qs",
    [build_majority(n) for n in range(1, 10)] + [build_matrix(2, 2), build_matrix(3, 3)],
    ids=["majority%d" % n for n in range(1, 10)] + ["matrix2x2", "matrix3x3"],
)
def test_memoised_scan_matches_plain_scan_on_every_responder_mask(qs):
    assert_memo_matches_plain_scan(qs, range(1 << qs.n))


@given(quorum_systems(), st.lists(st.integers(0, (1 << 10) - 1), max_size=30))
def test_memoised_scan_matches_plain_scan_on_random_systems(qs, masks):
    assert_memo_matches_plain_scan(qs, [m & ((1 << qs.n) - 1) for m in masks])


def test_quorum_system_is_immutable():
    qs = QuorumSystem(3, [0b011, 0b101, 0b110])
    assert qs.masks == (0b011, 0b101, 0b110)
    with pytest.raises(FrozenInstanceError):
        qs.masks = (0b111,)
    with pytest.raises(FrozenInstanceError):
        qs.n = 4
    qs.first_contained_mask(0b011)
    assert qs == build_majority(3)  # the memo takes no part in equality


@given(quorum_systems(), st.data())
def test_view3_mask_matches_set_definition(qs, data):
    quorums = quorum_sets(qs)
    current = data.draw(server_sets(qs))
    maxset = data.draw(server_sets(qs))
    expected = any(q != current and q & current <= maxset for q in quorums)
    assert qs.view3_mask(mask(current), mask(maxset)) == expected


@given(quorum_systems(), st.data())
def test_relay_mask_matches_set_definition(qs, data):
    quorums = quorum_sets(qs)
    s = data.draw(st.integers(0, qs.n - 1))
    expected = frozenset().union(*(q for q in quorums if s in q))
    assert qs.relay_mask(s) == mask(expected)


@given(st.integers(0, 1 << 12))
def test_bits_ascending(mask):
    assert list(bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_relay_destinations_majority():
    qs = build_majority(3)
    assert qs.relay_mask(0) == 0b111  # server 0 shares a quorum with 1 and 2


def test_relay_destinations_matrix_center():
    qs = build_matrix(3, 3)
    assert qs.relay_mask(4) == (1 << 9) - 1  # centre: its row and column reach every server


@pytest.mark.parametrize("make", [lambda: build_majority(4), lambda: build_matrix(3, 3)])
def test_relay_destinations_contain_self(make):
    qs = make()
    for b in range(qs.n):
        assert qs.relay_mask(b) >> b & 1


def test_surviving_quorum_check():
    assert majority_survives(3, [])
    assert majority_survives(3, [0])
    assert not majority_survives(3, [0, 1])
    assert majority_survives(3, [2, 2])  # one server listed twice crashes once
    assert matrix_survives(3, 3, [0, 4])
    assert not matrix_survives(3, 3, [0, 4, 8])  # every row and column hit
    assert not matrix_survives(1, 1, [0])


def scan_survives(qs, crashed):
    """The scan the survival rules replace: some quorum within the live servers."""
    return qs.first_contained_mask(((1 << qs.n) - 1) & ~mask(crashed)) >= 0


def crash_sets(n):
    return [c for k in range(n + 1) for c in combinations(range(n), k)]


@pytest.mark.parametrize("n", range(1, 10))
def test_majority_survival_rule_matches_the_scan(n):
    qs = build_majority(n)
    for crashed in crash_sets(n):
        assert majority_survives(n, crashed) == scan_survives(qs, crashed), crashed


@pytest.mark.parametrize("rows,cols", [(r, c) for r in range(1, 4) for c in range(1, 4)])
def test_matrix_survival_rule_matches_the_scan(rows, cols):
    qs = build_matrix(rows, cols)
    for crashed in crash_sets(rows * cols):
        assert matrix_survives(rows, cols, crashed) == scan_survives(qs, crashed), crashed
