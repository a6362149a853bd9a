from collections import Counter
from dataclasses import FrozenInstanceError, fields
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from quorum_listing import Listed, mask, quorum_masks

from regsim import harness, netsim, views
from regsim.config import ScenarioConfig, build_quorum_system, validate
from regsim.quorum import QuorumSystem, bits, build_majority, build_matrix, majority_survives, matrix_survives
from regsim.trace import trace_to_text
from regsim.views import ViewClass

# Neither construction lists its quorums: each scan is answered in closed
# form and held here to a plain scan over quorum_listing's listing.

SMALL_GRIDS = [(r, c) for r in range(1, 4) for c in range(1, 4)]  # 1x1 .. 3x3, 1x3, 3x1, 2x3, 3x2


def test_majority_is_k_of_n_and_lists_nothing():
    for n in range(1, 20):
        qs = build_majority(n)
        assert (qs.n, qs.k, qs.cols, qs.row_masks, qs.col_masks) == (n, n // 2 + 1, 0, (), ())
        assert not hasattr(qs, "masks")


def test_majority_3_enumeration():
    qs = build_majority(3)
    assert qs.n == 3
    assert quorum_masks(qs) == (0b011, 0b101, 0b110)


def test_majority_5_counts():
    quorums = quorum_masks(build_majority(5))
    assert len(quorums) == 10  # C(5, 3)
    assert all(len(list(bits(m))) == 3 for m in quorums)
    # Lexicographic enumeration of member tuples.
    assert [tuple(bits(m)) for m in quorums] == sorted(combinations(range(5), 3))


@pytest.mark.parametrize("n", range(1, 10))
def test_majority_masks_are_the_majority_combinations_in_order(n):
    qs = build_majority(n)
    quorums = quorum_masks(qs)
    assert quorums == tuple(mask(c) for c in combinations(range(n), n // 2 + 1))
    assert [qs.first_contained_mask(m) for m in quorums] == list(quorums)


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 3), (2, 3), (3, 2), (3, 3), (4, 5)])
def test_matrix_masks_are_row_and_column_unions(rows, cols):
    qs = build_matrix(rows, cols)
    assert (qs.n, qs.k, qs.cols) == (rows * cols, 0, cols)
    assert qs.row_masks == tuple(mask({r * cols + j for j in range(cols)}) for r in range(rows))
    assert qs.col_masks == tuple(mask({i * cols + c for i in range(rows)}) for c in range(cols))
    expected = tuple(row | col for row in qs.row_masks for col in qs.col_masks)
    assert quorum_masks(qs) == expected
    # Each quorum's first quorum inside it is itself.
    assert [qs.first_contained_mask(m) for m in expected] == list(expected)


def test_matrix_3x3_shape():
    qs = build_matrix(3, 3)
    assert qs.n == 9
    assert qs.row_masks == (0b000000111, 0b000111000, 0b111000000)
    assert qs.col_masks == (0b001001001, 0b010010010, 0b100100100)
    quorums = quorum_masks(qs)
    assert len(quorums) == 9
    assert all(len(list(bits(m))) == 5 for m in quorums)
    assert quorums[0] == mask({0, 1, 2, 3, 6})  # row 0 + column 0
    assert qs.first_contained_mask((1 << 9) - 1) == quorums[0]


def test_matrix_4x4_shape():
    quorums = quorum_masks(build_matrix(4, 4))
    assert len(quorums) == 16
    assert all(len(list(bits(m))) == 7 for m in quorums)


def test_matrix_1x1():
    qs = build_matrix(1, 1)
    assert quorum_masks(qs) == (0b1,)
    assert (qs.first_contained_mask(0b1), qs.first_contained_mask(0)) == (0b1, 0)


# The builders test nothing: pairwise intersection is a theorem of both
# constructions, held here on their listings.
@pytest.mark.parametrize("n", range(1, 13))
def test_majority_pairwise_intersection(n):
    quorums = quorum_masks(build_majority(n))
    for a in quorums:
        for b in quorums:
            assert a & b


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (2, 3), (3, 3), (4, 4), (5, 5)])
def test_matrix_pairwise_intersection(rows, cols):
    quorums = quorum_masks(build_matrix(rows, cols))
    assert quorums
    for a in quorums:
        for b in quorums:
            assert a & b


@pytest.mark.parametrize("n", range(1, 11))
def test_k_of_n_quorums_intersect_pairwise_exactly_when_2k_exceeds_n(n):
    # k = n + 1 lists no quorum at all.
    for k in range(1, n + 2):
        quorums = quorum_masks(QuorumSystem(n, k=k))
        pairwise = bool(quorums) and all(a & b for a in quorums for b in quorums)
        assert pairwise == (n < 2 * k <= 2 * n), k


# Under both constructions a server relays to every server: each shares
# a quorum with every other.
@pytest.mark.parametrize(
    "qs",
    [build_majority(n) for n in range(1, 13)] + [build_matrix(r, c) for r, c in SMALL_GRIDS + [(4, 4), (5, 5)]],
    ids=["majority%d" % n for n in range(1, 13)] + ["matrix%dx%d" % rc for rc in SMALL_GRIDS + [(4, 4), (5, 5)]],
)
def test_every_server_shares_a_quorum_with_every_other(qs):
    quorums = quorum_masks(qs)
    for a in range(qs.n):
        for b in range(qs.n):
            assert any(m >> a & m >> b & 1 for m in quorums), (a, b)


def test_first_contained_matrix_example():
    qs = build_matrix(3, 3)
    responders = {0, 1, 2, 3, 6, 8}  # row 0 + column 0 + extra server
    assert qs.first_contained_mask(mask(responders)) == mask({0, 1, 2, 3, 6})
    # A full row with no full column, and a full column with no full row.
    assert qs.first_contained_mask(mask({3, 4, 5, 0})) == 0
    assert qs.first_contained_mask(mask({1, 4, 7, 0})) == 0


def test_first_contained_none_and_order():
    qs = build_majority(3)
    assert qs.first_contained_mask(mask({1})) == 0
    assert qs.first_contained_mask(mask({1, 2})) == mask({1, 2})
    assert qs.first_contained_mask(mask({0, 1, 2})) == mask({0, 1})  # first in enumeration order
    # Deterministic on repeat.
    assert qs.first_contained_mask(0b110) == qs.first_contained_mask(0b110)


@st.composite
def quorum_systems(draw):
    """A majority over 1..10 servers or a grid of 1..4 by 1..4."""
    if draw(st.booleans()):
        return build_majority(draw(st.integers(1, 10)))
    return build_matrix(draw(st.integers(1, 4)), draw(st.integers(1, 4)))


@given(quorum_systems(), st.data())
def test_first_contained_monotone_in_responders(qs, data):
    resp = data.draw(st.integers(0, (1 << qs.n) - 1))
    extra = data.draw(st.integers(0, (1 << qs.n) - 1))
    before = qs.first_contained_mask(resp)
    after = qs.first_contained_mask(resp | extra)
    if before:
        # No later in the listing's order.
        quorums = quorum_masks(qs)
        assert after and quorums.index(after) <= quorums.index(before)


def test_mask_scan_semantics():
    qs = build_majority(3)  # quorums 0b011, 0b101, 0b110
    assert qs.first_contained_mask(0b111) == 0b011
    assert qs.first_contained_mask(0b110) == 0b110
    assert qs.first_contained_mask(0b001) == 0
    # current={bit0}, maxset={bit0}: quorum 0b101 intersects only inside maxset
    assert qs.view3_mask(0b001, 0b001)
    # The 2x2 grid's quorums are 0b0111, 0b1011, 0b1101 and 0b1110.
    grid = build_matrix(2, 2)
    assert grid.first_contained_mask(0b1011) == 0b1011
    # empty intersection counts as contained: 0b1110 misses server 0
    assert grid.view3_mask(0b0001, 0)
    # 0b1011 meets 0b0111 in servers 0 and 1 only
    assert grid.view3_mask(0b0111, 0b0011)
    # every quorum but 0b0111 holds server 1 or 2
    assert not grid.view3_mask(0b0111, 0b0001)
    assert not grid.view3_mask(0b1111, 0)


def server_sets(qs):
    return st.sets(st.integers(0, qs.n - 1)).map(frozenset)


def quorum_sets(qs):
    return [frozenset(bits(m)) for m in quorum_masks(qs)]


@given(quorum_systems(), st.data())
def test_first_contained_mask_matches_set_definition(qs, data):
    quorums = quorum_sets(qs)
    responders = data.draw(server_sets(qs))
    expected = next((mask(q) for q in quorums if q <= responders), 0)
    assert qs.first_contained_mask(mask(responders)) == expected


def assert_scans_match_the_listing(qs, currents):
    """Both scans answer as plain scans over the listing: first_contained_mask
    on every mask in currents, view3_mask on each with every maxset within it."""
    reference = Listed(qs)
    for current in currents:
        assert qs.first_contained_mask(current) == reference.first_contained_mask(current), current
        sub = current
        while True:  # every maxset within current, down to 0
            assert qs.view3_mask(current, sub) == reference.view3_mask(current, sub), (current, sub)
            if not sub:
                break
            sub = (sub - 1) & current


@pytest.mark.parametrize(
    "qs",
    [build_majority(n) for n in range(1, 12)] + [QuorumSystem(n, k=1) for n in range(1, 12)]
    + [build_matrix(2, 2), build_matrix(3, 3)],
    ids=["majority%d" % n for n in range(1, 12)] + ["1-of-%d" % n for n in range(1, 12)]
    + ["matrix2x2", "matrix3x3"],
)
def test_scan_matches_plain_scan_on_every_responder_mask(qs):
    reference = Listed(qs)
    for responders in range(1 << qs.n):
        assert qs.first_contained_mask(responders) == reference.first_contained_mask(responders), responders


def test_quorum_system_is_immutable():
    assert [f.name for f in fields(QuorumSystem) if f.init] == ["n", "k", "cols"]
    qs = build_matrix(3, 3)
    with pytest.raises(FrozenInstanceError):
        qs.cols = 1
    with pytest.raises(FrozenInstanceError):
        qs.row_masks = (0b111,)
    with pytest.raises(FrozenInstanceError):
        qs.n = 4
    with pytest.raises(FrozenInstanceError):
        build_majority(3).k = 1
    qs.first_contained_mask(0b011)
    assert qs == QuorumSystem(9, cols=3) and hash(qs) == hash(QuorumSystem(9, cols=3))
    assert qs != build_matrix(1, 9) and build_majority(3) == QuorumSystem(3, k=2)


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
        assert_scans_match_the_listing(qs, range(1 << n))


@pytest.mark.parametrize("rows,cols", SMALL_GRIDS)
def test_grid_scans_match_the_listing_on_every_mask(rows, cols):
    # A 1 x c or r x 1 grid has one quorum, all n servers, listed c or r times.
    assert_scans_match_the_listing(build_matrix(rows, cols), range(1 << rows * cols))


@given(st.sampled_from([build_matrix(4, 4), build_matrix(5, 5)]), st.data())
def test_grid_scans_match_the_listing_on_4x4_and_5x5(qs, data):
    full = (1 << qs.n) - 1
    # Dense responder sets, so that full rows and columns turn up.
    current = data.draw(st.integers(0, full)) | data.draw(st.integers(0, full)) | data.draw(st.integers(0, full))
    maxset = data.draw(st.integers(0, full)) & current
    reference = Listed(qs)
    assert qs.first_contained_mask(current) == reference.first_contained_mask(current)
    assert qs.view3_mask(current, maxset) == reference.view3_mask(current, maxset)
    assert qs.view3_mask(current, 0) == reference.view3_mask(current, 0)


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
    return Listed(qs).first_contained_mask(((1 << qs.n) - 1) & ~mask(crashed)) != 0


def crash_sets(n):
    return [c for k in range(n + 1) for c in combinations(range(n), k)]


@pytest.mark.parametrize("n", range(1, 10))
def test_majority_survival_rule_matches_the_scan(n):
    qs = build_majority(n)
    for crashed in crash_sets(n):
        assert majority_survives(n, crashed) == scan_survives(qs, crashed), crashed


@pytest.mark.parametrize("rows,cols", SMALL_GRIDS)
def test_matrix_survival_rule_matches_the_scan(rows, cols):
    qs = build_matrix(rows, cols)
    for crashed in crash_sets(rows * cols):
        assert matrix_survives(rows, cols, crashed) == scan_survives(qs, crashed), crashed


# End to end: whole runs on grids give the same trace bytes over the closed
# forms as over the listing, under LAN delays and under delays spread over
# four decades, which reorder messages far more.

def spread_delay(params, size_bits, jitter_max, rng):
    return 10 ** rng.uniform(-4, 0)


def grid_configs():
    for algorithm in ("erato", "erato_mw", "abd", "ohsam", "erato_broken"):
        for side in (2, 3):
            for topology in ("star", "series"):
                for seed in range(3):
                    yield validate(ScenarioConfig(
                        algorithm=algorithm, topology=topology, n_servers=side * side, quorums="matrix",
                        n_readers=3, n_writers=2 if algorithm == "erato_mw" else 1, scheme="stochastic",
                        read_interval=0.2, write_interval=0.2, ops_per_client=3, seed=seed,
                        crash_servers=((4, 0.3),) if side == 3 else (),
                    ))


def test_grid_runs_match_runs_over_the_listing(monkeypatch):
    seen = Counter()
    classify = views._classify_masks

    def counted(qs, cur, maxset):
        cls = classify(qs, cur, maxset)
        seen[cls] += 1
        return cls

    monkeypatch.setattr(views, "_classify_masks", counted)
    for delay in (netsim.message_delay, spread_delay):
        monkeypatch.setattr(netsim, "message_delay", delay)
        for config in grid_configs():
            closed = trace_to_text(harness.run_scenario(config).trace)
            with monkeypatch.context() as patch:
                patch.setattr(harness, "build_quorum_system", lambda c: Listed(build_quorum_system(c)))
                listed = trace_to_text(harness.run_scenario(config).trace)
            assert closed == listed, (delay.__name__, config)
    assert set(seen) == set(ViewClass), seen
