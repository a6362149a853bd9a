from dataclasses import FrozenInstanceError
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regsim.quorum import QuorumSystem, bits, build_majority, build_matrix, majority_survives, matrix_survives


def mask(servers):
    return sum(1 << s for s in servers)


@cache
def listed(qs):
    """qs with every quorum listed: a k-of-n system's k-subsets in
    combinations order, which is what build_majority listed before it
    answered its scans in closed form.  The closed forms are held to
    the scans over this listing."""
    if not qs.k:
        return qs
    return QuorumSystem(qs.n, [mask(c) for c in combinations(range(qs.n), qs.k)])


def test_majority_is_k_of_n_and_lists_nothing():
    for n in range(1, 20):
        qs = build_majority(n)
        assert (qs.n, qs.k, qs.masks) == (n, n // 2 + 1, ())


def test_majority_3_enumeration():
    qs = listed(build_majority(3))
    assert qs.n == 3
    assert qs.masks == (0b011, 0b101, 0b110)


def test_majority_5_counts():
    qs = listed(build_majority(5))
    assert len(qs.masks) == 10  # C(5, 3)
    assert all(len(list(bits(m))) == 3 for m in qs.masks)
    # Lexicographic enumeration of member tuples.
    assert [tuple(bits(m)) for m in qs.masks] == sorted(combinations(range(5), 3))


@pytest.mark.parametrize("n", range(1, 10))
def test_majority_masks_are_the_majority_combinations_in_order(n):
    qs = build_majority(n)
    quorums = listed(qs).masks
    assert quorums == tuple(mask(c) for c in combinations(range(n), n // 2 + 1))
    assert [qs.first_contained_mask(m) for m in quorums] == list(quorums)


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
    build_majority(n).validate()
    qs = listed(build_majority(n))
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


@pytest.mark.parametrize("n", range(1, 11))
def test_k_of_n_validate_agrees_with_the_pairwise_test(n):
    # k = n + 1 lists no quorum at all.
    for k in range(1, n + 2):
        closed, pairwise = QuorumSystem(n, k=k), listed(QuorumSystem(n, k=k))
        try:
            pairwise.validate()
        except ValueError:
            with pytest.raises(ValueError, match="%d-of-%d quorums: need n/2 < k <= n" % (k, n)):
                closed.validate()
        else:
            closed.validate()


@pytest.mark.parametrize("n", range(2, 13))
def test_validate_refuses_one_of_n(n):
    with pytest.raises(ValueError, match="1-of-%d quorums" % n):
        QuorumSystem(n, k=1).validate()


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


# Under both constructions a server relays to every server: each shares
# a quorum with every other.
@pytest.mark.parametrize(
    "qs",
    [build_majority(n) for n in range(1, 13)] + [build_matrix(s, s) for s in range(1, 6)],
    ids=["majority%d" % n for n in range(1, 13)] + ["matrix%dx%d" % (s, s) for s in range(1, 6)],
)
def test_every_server_shares_a_quorum_with_every_other(qs):
    quorums = listed(qs).masks
    for a in range(qs.n):
        for b in range(qs.n):
            assert any(m >> a & m >> b & 1 for m in quorums), (a, b)


def test_first_contained_matrix_example():
    qs = build_matrix(3, 3)
    responders = {0, 1, 2, 3, 6, 8}  # row 0 + column 0 + extra server
    assert qs.first_contained_mask(mask(responders)) == mask({0, 1, 2, 3, 6})


def test_first_contained_none_and_order():
    qs = build_majority(3)
    assert qs.first_contained_mask(mask({1})) == 0
    assert qs.first_contained_mask(mask({1, 2})) == mask({1, 2})
    assert qs.first_contained_mask(mask({0, 1, 2})) == mask({0, 1})  # first in enumeration order
    # Deterministic on repeat.
    assert qs.first_contained_mask(0b110) == qs.first_contained_mask(0b110)


@given(st.integers(1, 9), st.data())
def test_first_contained_monotone_in_responders(n, data):
    qs = build_majority(n)
    resp = data.draw(st.integers(0, (1 << n) - 1))
    extra = data.draw(st.integers(0, (1 << n) - 1))
    before = qs.first_contained_mask(resp)
    after = qs.first_contained_mask(resp | extra)
    if before:
        # No later in enumeration order: member lists compare lexicographically.
        assert after and list(bits(after)) <= list(bits(before))


def test_mask_scan_semantics():
    qs = QuorumSystem(3, [0b011, 0b101, 0b110])
    assert qs.first_contained_mask(0b111) == 0b011
    assert qs.first_contained_mask(0b110) == 0b110
    assert qs.first_contained_mask(0b001) == 0
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
    expected = next((mask(q) for q in quorums if q <= responders), 0)
    assert qs.first_contained_mask(mask(responders)) == expected


def plain_scan(qs, responders):
    return next((m for m in listed(qs).masks if m & ~responders == 0), 0)


def assert_scan_matches_plain_scan(qs, masks):
    """Asked cold, then warm, the scan answers as a plain scan over the
    listing: a listed system's memo and a k-of-n system's closed form."""
    for warm in (False, True):
        for responders in masks:
            assert qs.first_contained_mask(responders) == plain_scan(qs, responders), (warm, responders)


@pytest.mark.parametrize(
    "qs",
    [build_majority(n) for n in range(1, 12)] + [QuorumSystem(n, k=1) for n in range(1, 12)]
    + [build_matrix(2, 2), build_matrix(3, 3)],
    ids=["majority%d" % n for n in range(1, 12)] + ["1-of-%d" % n for n in range(1, 12)]
    + ["matrix2x2", "matrix3x3"],
)
def test_scan_matches_plain_scan_on_every_responder_mask(qs):
    assert_scan_matches_plain_scan(qs, range(1 << qs.n))


@given(quorum_systems(), st.lists(st.integers(0, (1 << 10) - 1), max_size=30))
def test_memoised_scan_matches_plain_scan_on_random_systems(qs, masks):
    assert_scan_matches_plain_scan(qs, [m & ((1 << qs.n) - 1) for m in masks])


def test_quorum_system_is_immutable():
    qs = QuorumSystem(3, [0b011, 0b101, 0b110])
    assert qs.masks == (0b011, 0b101, 0b110)
    with pytest.raises(FrozenInstanceError):
        qs.masks = (0b111,)
    with pytest.raises(FrozenInstanceError):
        qs.n = 4
    with pytest.raises(FrozenInstanceError):
        build_majority(3).k = 1
    qs.first_contained_mask(0b011)
    assert qs == QuorumSystem(3, (0b011, 0b101, 0b110))  # the memo takes no part in equality


@given(quorum_systems(), st.data())
def test_view3_mask_matches_set_definition(qs, data):
    quorums = quorum_sets(qs)
    current = data.draw(server_sets(qs))
    maxset = data.draw(server_sets(qs))
    expected = any(q != current and q & current <= maxset for q in quorums)
    assert qs.view3_mask(mask(current), mask(maxset)) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_k_of_n_view3_mask_matches_the_listing(n):
    for qs in (build_majority(n), QuorumSystem(n, k=1)):
        reference = listed(qs)
        for current in range(1 << n):
            sub = current
            while True:  # every maxset within current, down to 0
                assert qs.view3_mask(current, sub) == reference.view3_mask(current, sub), (qs.k, current, sub)
                if not sub:
                    break
                sub = (sub - 1) & current


@given(st.integers(0, 1 << 12))
def test_bits_ascending(mask):
    assert list(bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


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
    return plain_scan(qs, ((1 << qs.n) - 1) & ~mask(crashed)) != 0


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
