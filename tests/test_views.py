"""Classifier tests against hand-worked distributions and naive set oracles.

Views are written here as server -> tag maps, the way the paper draws
them, and turned into what a reader holds: relay messages keyed by server
bit plus the quorum's mask.
"""

from hypothesis import given
from hypothesis import strategies as st
from quorum_listing import quorum_masks

from regsim.core import Message, MessageKind, Tag, reader, server
from regsim.quorum import bits, build_majority, build_matrix
from regsim.views import ViewClass, classify, iterative_analyze


def quorum_sets(qs):
    return [frozenset(bits(m)) for m in quorum_masks(qs)]


def naive_classify(qs, quorum_index, tag_by_server):
    """Independent reference classifier built on frozensets only."""
    quorums = quorum_sets(qs)
    q = quorums[quorum_index]
    maxtag = max(tag_by_server[s] for s in q)
    maxset = frozenset(s for s in q if tag_by_server[s] == maxtag)
    if maxset == q:
        return ViewClass.VIEW1
    for other in quorums:
        if other != q and (other & q) <= maxset:
            return ViewClass.VIEW3
    return ViewClass.VIEW2


def naive_iterative(qs, quorum_index, tag_by_server, value_by_server):
    """Reference iterative analysis on frozensets: (tag, value of the
    smallest-id holder) to return, or None to await acknowledgements."""
    quorums = quorum_sets(qs)
    cur = quorums[quorum_index]
    while cur:
        maxtag = max(tag_by_server[s] for s in cur)
        maxset = frozenset(s for s in cur if tag_by_server[s] == maxtag)
        if maxset == cur:
            return maxtag, value_by_server[min(maxset)]
        if any(other != cur and (other & cur) <= maxset for other in quorums):
            return None
        cur = cur - maxset
    raise AssertionError("quorum exhausted without a decision")


def view(qs, idx, tags, values=None):
    """Relay messages keyed by server bit, and the mask of quorum idx."""
    msgs = {
        s: Message(MessageKind.READ_RELAY, server(s), reader(0), 1, tag, None if values is None else values[s])
        for s, tag in tags.items()
    }
    return msgs, quorum_masks(qs)[idx]


def test_uniform_tags_are_view1():
    qs = build_majority(3)
    t = Tag(5, 0)
    cls, top = classify(qs, *view(qs, 0, {0: t, 1: t}))
    assert cls is ViewClass.VIEW1 and top.tag == t


def test_view2_every_intersection_sees_smaller_tag():
    qs = build_majority(4)  # quorums are all 3-subsets of {0,1,2,3}
    tags = {0: Tag(5, 0), 1: Tag(4, 0), 2: Tag(4, 0)}
    cls, top = classify(qs, *view(qs, 0, tags))
    assert cls is ViewClass.VIEW2 and top.tag == Tag(5, 0)


def test_view3_some_intersection_inside_max_holders():
    qs = build_majority(4)
    tags = {0: Tag(5, 0), 1: Tag(5, 0), 2: Tag(4, 0)}
    cls, top = classify(qs, *view(qs, 0, tags, {0: b"a", 1: b"b", 2: b"c"}))
    assert cls is ViewClass.VIEW3
    assert (top.sender, top.value) == (server(0), b"a")  # first holder wins


def test_iterative_view1_returns_max_with_value():
    qs = build_majority(4)
    t = Tag(7, 1)
    tags = {0: t, 1: t, 2: t}
    m = iterative_analyze(qs, *view(qs, 0, tags, {0: b"a", 1: b"a", 2: b"a"}))
    assert (m.tag, m.value) == (t, b"a")


def test_iterative_view3_awaits_acks():
    qs = build_majority(4)
    tags = {0: Tag(5, 2), 1: Tag(5, 2), 2: Tag(4, 1)}
    assert iterative_analyze(qs, *view(qs, 0, tags)) is None


def test_iterative_discards_max_holders_then_decides():
    # One server ahead with (5,2): no other quorum's intersection with
    # {0,1,2} avoids the stragglers, so (5,2) is discarded and the uniform
    # remainder {1,2} at (4,1) classifies as complete.
    qs = build_majority(4)
    tags = {0: Tag(5, 2), 1: Tag(4, 1), 2: Tag(4, 1)}
    m = iterative_analyze(qs, *view(qs, 0, tags, {0: b"new", 1: b"old", 2: b"old"}))
    assert (m.tag, m.value) == (Tag(4, 1), b"old")


quorum_systems = st.sampled_from(
    [build_majority(3), build_majority(4), build_majority(5)]
    + [build_matrix(r, c) for r, c in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]]
)


def draw_tags(qs, data):
    idx = data.draw(st.integers(0, len(quorum_masks(qs)) - 1))
    tags = {
        s: data.draw(st.builds(Tag, ts=st.integers(0, 3), wid=st.integers(0, 2)), label="tag%d" % s)
        for s in bits(quorum_masks(qs)[idx])
    }
    return idx, tags


@given(quorum_systems, st.data())
def test_classify_agrees_with_naive_oracle(qs, data):
    idx, tags = draw_tags(qs, data)
    cls, top = classify(qs, *view(qs, idx, tags))
    assert cls is naive_classify(qs, idx, tags)
    assert top.tag == max(tags.values())


@given(quorum_systems, st.data())
def test_iterative_always_decides(qs, data):
    idx, tags = draw_tags(qs, data)
    m = iterative_analyze(qs, *view(qs, idx, tags))
    if m is not None:
        # The returned tag is one actually reported, never exceeding the max.
        assert m.tag in tags.values()


@given(quorum_systems, st.data())
def test_iterative_agrees_with_naive_reference(qs, data):
    idx, tags = draw_tags(qs, data)
    values = {s: b"v%d" % s for s in tags}  # distinct, so the holder choice shows
    m = iterative_analyze(qs, *view(qs, idx, tags, values))
    expected = naive_iterative(qs, idx, tags, values)
    assert (None if m is None else (m.tag, m.value)) == expected
