"""Step-level traces of the multi-writer variant."""

from copy import deepcopy

import pytest

from regsim.core import Message, MessageKind, Tag
from regsim.protocols import abd, base, get_algorithm
from regsim.protocols.base import NOTHING, Invoke, Response
from regsim.protocols.erato_mw import eratomw_reader_step
from regsim.protocols.readers import RelayReaderState
from regsim.quorum import build_majority

QS3 = build_majority(3)
QS4 = build_majority(4)
# Node ids on three servers, one reader and two writers: s0..s2 are 0..2.
R0 = 3
W1 = 5
ERATO_MW = get_algorithm("erato_mw")


def dack(b, tag, op, w=W1):
    return Message(MessageKind.DISCOVER_ACK, b, w, op, tag)


def wack(b, op, w=W1):
    return Message(MessageKind.WRITE_ACK, b, w, op, Tag(0, 0))


def relay(b, tag, value, op=1, r=R0):
    return Message(MessageKind.READ_RELAY, b, r, op, tag, value)


def ack(b, tag, value, op=1, r=R0):
    return Message(MessageKind.READ_ACK, b, r, op, tag, value)


def test_write_discovers_then_places_max_plus_one():
    w = base.QueryPutState(W1, 1)
    m, to, _, _ = base.mw_writer_step(w, Invoke(b"v"), QS4)
    assert len(to) == 4
    assert m.kind == MessageKind.WRITE_DISCOVER and m.op_seq == 1

    base.mw_writer_step(w, dack(0, Tag(3, 1), 1), QS4)
    base.mw_writer_step(w, dack(1, Tag(5, 2), 1), QS4)
    put, to, response, _ = base.mw_writer_step(w, dack(2, Tag(4, 1), 1), QS4)  # quorum {0,1,2}
    assert response is None and len(to) == 4
    assert put.kind == MessageKind.WRITE_REQUEST and put.op_seq == 2
    assert put.tag == Tag(6, 1)  # discovered max 5, own writer id

    base.mw_writer_step(w, wack(0, 2), QS4)
    base.mw_writer_step(w, wack(1, 2), QS4)
    # Answered on the put's acknowledgement quorum.
    _, _, response, _ = base.mw_writer_step(w, wack(2, 2), QS4)
    assert response == Response(b"v", Tag(6, 1)) and w.phase == "idle"


@pytest.mark.parametrize("client", ["mw_write", "abd_read"])
def test_write_ignores_stale_phase_acks(client):
    # A query-phase ack that arrives in the put phase changes nothing:
    # the multi-writer write and the abd read are one query/put client.
    if client == "mw_write":
        w, step, invoke, put_tag = base.QueryPutState(W1, 1), base.mw_writer_step, Invoke(b"v"), Tag(1, 1)
        query_ack = dack
    else:
        w, step, invoke, put_tag = base.QueryPutState(R0), abd.query_reader_step, Invoke(), Tag(0, 0)
        def query_ack(b, tag, op):
            return ack(b, tag, b"v", op)
    step(w, invoke, QS3)
    step(w, query_ack(0, Tag(0, 0), 1), QS3)
    step(w, query_ack(1, Tag(0, 0), 1), QS3)  # now in put phase
    assert w.phase == "put"
    before = deepcopy(w)
    assert step(w, query_ack(2, Tag(9, 9), 1), QS3) is NOTHING and w == before
    assert w.tag == put_tag


def test_server_write_freshness_guard():
    s = ERATO_MW.new_state("s0", 0)
    req = Message(MessageKind.WRITE_REQUEST, W1, W1, 2, Tag(4, 1), b"new")
    m, _, _, _ = base.relay_server_step(s, req, QS3)
    assert s.tag == Tag(4, 1)
    assert m.kind == MessageKind.WRITE_ACK and m.op_seq == 2
    # The same writer's earlier put, delivered late: its op_seq and tag are
    # both lower, as one writer's tags rise with its op_seq.  It is
    # acknowledged but not adopted.
    stale = Message(MessageKind.WRITE_REQUEST, W1, W1, 1, Tag(3, 1), b"old")
    m, _, _, adopted = base.relay_server_step(s, stale, QS3)
    assert s.tag == Tag(4, 1) and s.value == b"new" and adopted is None
    assert m.kind == MessageKind.WRITE_ACK and m.op_seq == 1


def test_server_discover_ack_reports_current_tag():
    s = ERATO_MW.new_state("s2", 2)
    s.tag = Tag(7, 0)
    m, (dst,), _, _ = base.relay_server_step(s, Message(MessageKind.WRITE_DISCOVER, W1, W1, 3), QS3)
    assert dst == W1 and m.kind == MessageKind.DISCOVER_ACK
    assert m.tag == Tag(7, 0) and m.op_seq == 3
    assert s.tag == Tag(7, 0)  # unchanged


def test_server_adopts_on_writer_id_tiebreak():
    s = ERATO_MW.new_state("s0", 0)
    base.relay_server_step(s, relay(1, Tag(4, 1), b"a"), QS3)
    base.relay_server_step(s, relay(2, Tag(4, 2), b"b"), QS3)
    assert s.tag == Tag(4, 2) and s.value == b"b"


def test_read_discards_incomplete_max_then_answers():
    r = RelayReaderState(R0)
    eratomw_reader_step(r, Invoke(), QS4)
    eratomw_reader_step(r, relay(0, Tag(5, 2), b"new"), QS4)
    eratomw_reader_step(r, relay(1, Tag(4, 1), b"old"), QS4)
    _, _, response, _ = eratomw_reader_step(r, relay(2, Tag(4, 1), b"old"), QS4)
    assert response == Response(b"old", Tag(4, 1)) and r.mode == "idle"


def test_read_ambiguity_falls_back_to_ack_minimum():
    r = RelayReaderState(R0)
    eratomw_reader_step(r, Invoke(), QS4)
    eratomw_reader_step(r, relay(0, Tag(5, 2), b"new"), QS4)
    eratomw_reader_step(r, relay(1, Tag(5, 2), b"new"), QS4)
    _, _, response, _ = eratomw_reader_step(r, relay(2, Tag(4, 1), b"old"), QS4)
    assert response is None and r.mode == "await"
    eratomw_reader_step(r, ack(0, Tag(5, 2), b"new"), QS4)
    eratomw_reader_step(r, ack(1, Tag(5, 2), b"new"), QS4)
    _, _, response, _ = eratomw_reader_step(r, ack(3, Tag(5, 2), b"new"), QS4)
    assert response == Response(b"new", Tag(5, 2))


def test_read_uniform_relays_fast():
    r = RelayReaderState(R0)
    eratomw_reader_step(r, Invoke(), QS3)
    eratomw_reader_step(r, relay(0, Tag(2, 1), b"x"), QS3)
    _, _, response, _ = eratomw_reader_step(r, relay(1, Tag(2, 1), b"x"), QS3)
    assert response == Response(b"x", Tag(2, 1)) and r.mode == "idle"
