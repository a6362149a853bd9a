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
