import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from regsim.core import (
    HEADER_OCTETS,
    INITIAL_TAG,
    INITIAL_VALUE,
    Message,
    MessageKind,
    Tag,
    node_key,
    parse_pid,
    reader,
    server,
    writer,
)
from regsim.metrics import OpStats, Summary
from regsim.netsim import LinkParams, WorkItem
from regsim.protocols.base import NOTHING, Invoke, Response, StepOutput

tags = st.builds(Tag, ts=st.integers(0, 50), wid=st.integers(0, 8))


def test_tag_order_examples():
    assert Tag(1, 5) < Tag(2, 1)  # ts dominates
    assert Tag(3, 2) > Tag(3, 1)  # wid breaks ties
    assert Tag(4, 0) == Tag(4, 0)


def test_initial_register_state():
    assert INITIAL_TAG == Tag(0, 0)
    assert INITIAL_VALUE == b""


@given(tags, tags, tags)
def test_tag_order_is_total(a, b, c):
    assert sum(1 for r in (a < b, b < a, a == b) if r) == 1  # trichotomy
    if a < b and b < c:
        assert a < c


@given(st.integers(1, 50), st.integers(0, 8))
def test_written_tags_exceed_initial(ts, wid):
    assert Tag(ts, wid) > INITIAL_TAG


def test_process_id_total_order():
    assert (reader(10), writer(0), server(2)) == ("r10", "w0", "s2")
    # Readers, writers, servers, each by index: not plain string order.
    names = [server(3), reader(10), server(0), writer(0), reader(2), reader(1)]
    assert sorted(names, key=node_key) == ["r1", "r2", "r10", "w0", "s0", "s3"]


def test_message_size_header_plus_payload():
    # Nodes are ids on the wire: server 0 relays for the client with id 3.
    m = Message(MessageKind.READ_RELAY, 0, 3, 1, Tag(1, 0), b"x" * 64)
    assert m.size_bits() == (HEADER_OCTETS + 64) * 8
    bare = Message(MessageKind.READ_REQUEST, 3, 3, 1)
    assert bare.size_bits() == HEADER_OCTETS * 8
    ack = Message(MessageKind.WRITE_ACK, 0, 3, 2, Tag(2, 0))
    assert (ack.tag, ack.value) == (Tag(2, 0), None)
    assert ack.size_bits() == HEADER_OCTETS * 8


@given(st.sampled_from([reader, writer, server]), st.integers(0, 10_000))
def test_parse_pid_inverts_str(make, index):
    name = make(index)
    assert parse_pid(str(name)) is name


@given(st.text(alphabet="rws0123456789x+- \u0663\u00b3", max_size=5))
@example("r03")
@example("r\u0663")
@example("r\u00b3")
def test_parse_pid_accepts_only_canonical_names(text):
    # One spelling per process: no leading zero, no non-ASCII digit.
    try:
        name = parse_pid(text)
    except ValueError as exc:
        assert str(exc) == "not a process id: %r" % text
    else:
        assert name is text


# One value of each immutable value type the layers pass around.
VALUES = [
    Tag(3, 1),
    Message(MessageKind.READ_ACK, 0, 3, 1, Tag(1, 0), b"x"),
    Invoke(b"v"),
    Response(b"v", Tag(1, 0)),
    StepOutput(Message(MessageKind.READ_ACK, 0, 3, 1, Tag(1, 0), b"x"), (3,), adopted=Tag(1, 0)),
    LinkParams(10e6, 0.006),
    WorkItem(0.5, "r0"),
    OpStats("erato", 1, "r0", "read", 0.0, 0.01, 2, 10),
    Summary("erato", "read", 1, 0.01, 0.01, 0.01, 0.01, {2: 1}, 1.0),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_values_are_immutable_tuples_of_their_fields(value):
    names = type(value)._fields
    assert value == tuple(getattr(value, name) for name in names)
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_the_empty_step_output_is_nothing():
    assert StepOutput() == NOTHING == (None, (), None, None)


def test_value_reprs_name_their_fields():
    # Violation messages print tags, and a Message's repr shows its tag.
    assert repr(Tag(3, 1)) == str(Tag(3, 1)) == "Tag(ts=3, wid=1)"
    assert repr(VALUES[1]) == (
        "Message(kind='readAck', sender=0, client=3, op_seq=1, tag=Tag(ts=1, wid=0), value=b'x')")
    assert repr(Invoke()) == "Invoke(value=None)"


@given(st.lists(tags, max_size=20))
def test_tags_sort_and_hash_as_ts_wid_pairs(ts):
    pairs = [(t.ts, t.wid) for t in ts]
    assert [(t.ts, t.wid) for t in sorted(ts)] == sorted(pairs)
    assert [hash(t) for t in ts] == [hash(p) for p in pairs]
    assert len(set(ts)) == len(set(pairs))


@pytest.mark.parametrize("value", VALUES[-2:], ids=lambda v: type(v).__name__)
def test_stats_survive_a_pickle_round_trip(value):
    # A sweep's worker processes return their stats pickled.
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert copy == value
