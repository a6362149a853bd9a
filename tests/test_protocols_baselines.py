"""Step-level traces of the query/write-back and relay-sync baselines."""

import pytest

from regsim.core import Message, MessageKind, Tag
from regsim.protocols import ALGORITHMS, EXTRA_ALGORITHMS, abd, base, broken, get_algorithm
from regsim.protocols.base import Invoke, Response
from regsim.protocols.readers import RelayReaderState, relay_reader_step
from regsim.quorum import build_majority

QS3 = build_majority(3)
# Node ids on three servers, one reader and one writer: s0..s2 are 0..2.
R0 = 3
W0 = 4


def rack(b, tag, value, op):
    return Message(MessageKind.READ_ACK, b, R0, op, tag, value)


def test_abd_read_is_always_two_round_trips():
    r = base.QueryPutState(R0)
    m, to, _, _ = abd.query_reader_step(r, Invoke(), QS3)
    assert len(to) == 3 and m.op_seq == 1

    abd.query_reader_step(r, rack(0, Tag(2, 0), b"v2", 1), QS3)
    wb, to, response, _ = abd.query_reader_step(r, rack(1, Tag(5, 0), b"v5", 1), QS3)
    # Quorum maximum goes out as a write-back on a fresh op_seq.
    assert response is None and len(to) == 3
    assert wb.kind == MessageKind.READ_RELAY and wb.op_seq == 2
    assert wb.tag == Tag(5, 0) and wb.value == b"v5"

    abd.query_reader_step(r, rack(0, Tag(5, 0), b"v5", 2), QS3)
    _, _, response, _ = abd.query_reader_step(r, rack(2, Tag(5, 0), b"v5", 2), QS3)
    assert response == Response(b"v5", Tag(5, 0)) and r.phase == "idle"


def test_abd_read_uniform_tags_still_four_exchanges():
    r = base.QueryPutState(R0)
    abd.query_reader_step(r, Invoke(), QS3)
    for b in (0, 1):
        m, to, response, _ = abd.query_reader_step(r, rack(b, Tag(1, 0), b"v", 1), QS3)
    # Uniform tags earn no early answer: the write-back goes out anyway.
    assert response is None and r.phase == "put"
    assert (m.kind, list(to)) == (MessageKind.READ_RELAY, [0, 1, 2])
    for b in (0, 1):
        _, _, response, _ = abd.query_reader_step(r, rack(b, Tag(1, 0), b"v", 2), QS3)
    assert response == Response(b"v", Tag(1, 0))


def test_abd_server_answers_queries_and_write_backs():
    s = get_algorithm("abd").new_state("s1", 1)
    m, to, _, _ = base.plain_server_step(s, Message(MessageKind.READ_REQUEST, R0, R0, 1), QS3)
    assert len(to) == 1 and to[0] == R0
    assert m.tag == Tag(0, 0)

    wb = Message(MessageKind.READ_RELAY, R0, R0, 2, Tag(7, 0), b"v7")
    m, _, _, _ = base.plain_server_step(s, wb, QS3)
    assert s.tag == Tag(7, 0) and s.value == b"v7"  # adopted from the write-back
    assert m.kind == MessageKind.READ_ACK and m.op_seq == 2


def test_abd_writer_variants():
    step = get_algorithm("abd").writer_step
    w = get_algorithm("abd").new_state("w0", W0)
    step(w, Invoke(b"v"), QS3)
    for b in (0, 1):
        _, _, response, _ = step(w, Message(MessageKind.WRITE_ACK, b, W0, 1, Tag(1, 0)), QS3)
    assert response == Response(b"v", Tag(1, 0))  # on the first ack quorum

    # Writer 1 behind two writers' worth of ids: its tags carry its index.
    w = get_algorithm("abd_mw").new_state("w1", 5)
    assert (w.pid, w.wid) == (5, 1)
    m, _, _, _ = get_algorithm("abd_mw").writer_step(w, Invoke(b"v"), QS3)
    assert m.kind == MessageKind.WRITE_DISCOVER


def test_ohsam_server_relays_to_servers_only():
    s = get_algorithm("ohsam").new_state("s0", 0)
    _, to, _, _ = base.relay_server_step(s, Message(MessageKind.READ_REQUEST, R0, R0, 1), QS3)
    assert list(to) == [0, 1, 2]


def test_ohsam_read_three_exchanges_min_tag():
    r = RelayReaderState(R0)
    _, to, _, _ = relay_reader_step(r, Invoke(), QS3)
    assert len(to) == 3
    relay_reader_step(r, rack(0, Tag(5, 0), b"v5", 1), QS3)
    _, _, response, _ = relay_reader_step(r, rack(1, Tag(4, 0), b"v4", 1), QS3)
    assert response == Response(b"v4", Tag(4, 0))


def test_ohsam_read_uniform_still_three_exchanges():
    r = RelayReaderState(R0)
    relay_reader_step(r, Invoke(), QS3)
    # A uniform relay quorum earns no early answer.
    for b in (0, 1):
        relay = Message(MessageKind.READ_RELAY, b, R0, 1, Tag(1, 0), b"v")
        _, _, response, _ = relay_reader_step(r, relay, QS3)
        assert response is None
    relay_reader_step(r, rack(0, Tag(1, 0), b"v", 1), QS3)
    _, _, response, _ = relay_reader_step(r, rack(1, Tag(1, 0), b"v", 1), QS3)
    assert response == Response(b"v", Tag(1, 0))


def test_ohmam_min_uses_writer_id_tiebreak():
    r = RelayReaderState(R0)
    relay_reader_step(r, Invoke(), QS3)
    relay_reader_step(r, rack(0, Tag(4, 2), b"b", 1), QS3)
    _, _, response, _ = relay_reader_step(r, rack(1, Tag(4, 1), b"a", 1), QS3)
    assert response.tag == Tag(4, 1)


def test_broken_variant_acks_eagerly_and_returns_max():
    s = get_algorithm("erato_broken").new_state("s0", 0)
    one_relay = Message(MessageKind.READ_RELAY, 1, R0, 1, Tag(3, 0), b"v3")
    m, to, _, _ = broken.broken_server_step(s, one_relay, QS3)
    assert len(to) == 1 and m.kind == MessageKind.READ_ACK

    r = RelayReaderState(R0)
    broken.broken_reader_step(r, Invoke(), QS3)
    broken.broken_reader_step(r, rack(0, Tag(5, 0), b"v5", 1), QS3)
    _, _, response, _ = broken.broken_reader_step(r, rack(1, Tag(4, 0), b"v4", 1), QS3)
    assert response.tag == Tag(5, 0)  # max instead of min


@pytest.mark.parametrize("name", ["erato", "abd"])
def test_single_writer_server_acks_reordered_write_requests(name):
    alg = get_algorithm(name)
    s = alg.new_state("s0", 0)
    adopted = []
    for op in (2, 1):
        req = Message(MessageKind.WRITE_REQUEST, W0, W0, op, Tag(op, 0), b"v%d" % op)
        m, to, _, taken = alg.server_step(s, req, QS3)
        assert (list(to), m.kind, m.op_seq) == ([W0], MessageKind.WRITE_ACK, op)
        adopted.append(taken)
    assert s.tag == Tag(2, 0) and s.value == b"v2"
    assert adopted == [Tag(2, 0), None]


def test_registry_contents():
    assert sorted(ALGORITHMS) == ["abd", "abd_mw", "erato", "erato_mw", "ohmam", "ohsam"]
    assert set(EXTRA_ALGORITHMS) == {"erato_broken"}
    for name, alg in ALGORITHMS.items():
        assert alg.name == name
        assert type(alg.new_state("w0", W0)) is base.QueryPutState
        # An abd read runs the multi-writer write's query/put machine.
        assert (alg.reader_state is base.QueryPutState) == name.startswith("abd"), name
    # mw is declared, not derived, yet always names the row's writer.
    for alg in (*ALGORITHMS.values(), *EXTRA_ALGORITHMS.values()):
        assert alg.mw == (alg.writer_step is base.mw_writer_step), alg.name
    assert get_algorithm("erato").mw is False
    assert get_algorithm("erato_broken").name == "erato_broken"
