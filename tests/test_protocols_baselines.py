"""Step-level traces of the query/write-back and relay-sync baselines."""

import pytest

from regsim.core import Message, MessageKind, Tag, reader, server, writer
from regsim.protocols import ALGORITHMS, EXTRA_ALGORITHMS, Deliver, Invoke, get_algorithm
from regsim.protocols import abd, base, broken
from regsim.protocols.readers import RelayReaderState, relay_reader_step
from regsim.quorum import build_majority

QS3 = build_majority(3)
R0 = reader(0)
W0 = writer(0)


def rack(b, tag, value, op):
    return Message(MessageKind.READ_ACK, server(b), R0, op, tag, value)


def test_abd_read_is_always_two_round_trips():
    r = abd.QueryReaderState(R0)
    out = abd.query_reader_step(r, Invoke(), QS3)
    assert len(out.sends) == 3 and out.sends[0][1].op_seq == 1

    abd.query_reader_step(r, Deliver(rack(0, Tag(2, 0), b"v2", 1)), QS3)
    out = abd.query_reader_step(r, Deliver(rack(1, Tag(5, 0), b"v5", 1)), QS3)
    # Quorum maximum goes out as a write-back on a fresh op_seq.
    assert out.response is None and len(out.sends) == 3
    wb = out.sends[0][1]
    assert wb.kind is MessageKind.READ_RELAY and wb.op_seq == 2
    assert wb.tag == Tag(5, 0) and wb.value == b"v5"

    abd.query_reader_step(r, Deliver(rack(0, Tag(5, 0), b"v5", 2)), QS3)
    out = abd.query_reader_step(r, Deliver(rack(2, Tag(5, 0), b"v5", 2)), QS3)
    assert (out.response.value, out.response.tag, out.response.exchanges) == (b"v5", Tag(5, 0), 4)


def test_abd_read_uniform_tags_still_four_exchanges():
    r = abd.QueryReaderState(R0)
    abd.query_reader_step(r, Invoke(), QS3)
    for b in (0, 1):
        abd.query_reader_step(r, Deliver(rack(b, Tag(1, 0), b"v", 1)), QS3)
    assert r.phase == "writeback"
    for b in (0, 1):
        out = abd.query_reader_step(r, Deliver(rack(b, Tag(1, 0), b"v", 2)), QS3)
    assert out.response.exchanges == 4


def test_abd_server_answers_queries_and_write_backs():
    s = get_algorithm("abd").new_state(server(1), QS3)
    out = base.plain_server_step(s, Deliver(Message(MessageKind.READ_REQUEST, R0, R0, 1)), QS3)
    assert len(out.sends) == 1 and out.sends[0][0] == R0
    assert out.sends[0][1].tag == Tag(0, 0)

    wb = Message(MessageKind.READ_RELAY, R0, R0, 2, Tag(7, 0), b"v7")
    out = base.plain_server_step(s, Deliver(wb), QS3)
    assert s.tag == Tag(7, 0) and s.value == b"v7"  # adopted from the write-back
    assert out.sends[0][1].kind is MessageKind.READ_ACK and out.sends[0][1].op_seq == 2


def test_abd_writer_variants():
    step = get_algorithm("abd").writer_step
    w = get_algorithm("abd").new_state(W0, QS3)
    step(w, Invoke(b"v"), QS3)
    for b in (0, 1):
        out = step(w, Deliver(Message(MessageKind.WRITE_ACK, server(b), W0, 1, Tag(1, 0))), QS3)
    assert out.response.exchanges == 2

    w = get_algorithm("abd_mw").new_state(writer(1), QS3)
    out = get_algorithm("abd_mw").writer_step(w, Invoke(b"v"), QS3)
    assert out.sends[0][1].kind is MessageKind.WRITE_DISCOVER


def test_ohsam_server_relays_to_servers_only():
    s = get_algorithm("ohsam").new_state(server(0), QS3)
    out = base.relay_server_step(s, Deliver(Message(MessageKind.READ_REQUEST, R0, R0, 1)), QS3)
    assert [dst for dst, _ in out.sends] == [server(0), server(1), server(2)]


def test_ohsam_read_three_exchanges_min_tag():
    r = RelayReaderState(R0)
    out = relay_reader_step(r, Invoke(), QS3)
    assert len(out.sends) == 3
    relay_reader_step(r, Deliver(rack(0, Tag(5, 0), b"v5", 1)), QS3)
    out = relay_reader_step(r, Deliver(rack(1, Tag(4, 0), b"v4", 1)), QS3)
    assert (out.response.value, out.response.tag, out.response.exchanges) == (b"v4", Tag(4, 0), 3)


def test_ohsam_read_uniform_still_three_exchanges():
    r = RelayReaderState(R0)
    relay_reader_step(r, Invoke(), QS3)
    relay_reader_step(r, Deliver(rack(0, Tag(1, 0), b"v", 1)), QS3)
    out = relay_reader_step(r, Deliver(rack(1, Tag(1, 0), b"v", 1)), QS3)
    assert out.response.exchanges == 3


def test_ohmam_min_uses_writer_id_tiebreak():
    r = RelayReaderState(R0)
    relay_reader_step(r, Invoke(), QS3)
    relay_reader_step(r, Deliver(rack(0, Tag(4, 2), b"b", 1)), QS3)
    out = relay_reader_step(r, Deliver(rack(1, Tag(4, 1), b"a", 1)), QS3)
    assert out.response.tag == Tag(4, 1)


def test_broken_variant_acks_eagerly_and_returns_max():
    s = get_algorithm("erato_broken").new_state(server(0), QS3)
    one_relay = Message(MessageKind.READ_RELAY, server(1), R0, 1, Tag(3, 0), b"v3")
    out = broken.broken_server_step(s, Deliver(one_relay), QS3)
    assert len(out.sends) == 1 and out.sends[0][1].kind is MessageKind.READ_ACK

    r = RelayReaderState(R0)
    broken.broken_reader_step(r, Invoke(), QS3)
    broken.broken_reader_step(r, Deliver(rack(0, Tag(5, 0), b"v5", 1)), QS3)
    out = broken.broken_reader_step(r, Deliver(rack(1, Tag(4, 0), b"v4", 1)), QS3)
    assert out.response.tag == Tag(5, 0)  # max instead of min


@pytest.mark.parametrize("name", ["erato", "abd"])
def test_single_writer_server_acks_reordered_write_requests(name):
    alg = get_algorithm(name)
    s = alg.new_state(server(0), QS3)
    notes = []
    for op in (2, 1):
        req = Message(MessageKind.WRITE_REQUEST, W0, W0, op, Tag(op, 0), b"v%d" % op)
        out = alg.server_step(s, Deliver(req), QS3)
        assert [(dst, m.kind, m.op_seq) for dst, m in out.sends] == [(W0, MessageKind.WRITE_ACK, op)]
        notes += out.notes
    assert s.tag == Tag(2, 0) and s.value == b"v2"
    assert notes == [("adopt", Tag(2, 0))]


def test_registry_contents():
    assert sorted(ALGORITHMS) == ["abd", "abd_mw", "erato", "erato_mw", "ohmam", "ohsam"]
    assert set(EXTRA_ALGORITHMS) == {"erato_broken"}
    for name, alg in ALGORITHMS.items():
        assert alg.name == name
        writer_state = base.MWWriterState if alg.mw else base.SWMRWriterState
        assert type(alg.new_state(W0, QS3)) is writer_state
    assert get_algorithm("erato").mw is False
    assert get_algorithm("erato_broken").name == "erato_broken"
