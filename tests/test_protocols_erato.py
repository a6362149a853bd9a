"""Step-level traces of the single-writer relay protocol."""

from copy import deepcopy

from regsim.core import Message, MessageKind, Tag
from regsim.protocols import base, get_algorithm
from regsim.protocols.base import NOTHING, Invoke, Response
from regsim.protocols.erato import erato_reader_step
from regsim.protocols.readers import RelayReaderState
from regsim.quorum import build_majority

QS3 = build_majority(3)
QS4 = build_majority(4)
# Node ids on three servers, one reader and one writer: s0..s2 are 0..2.
R0 = 3
W0 = 4
ERATO = get_algorithm("erato")


def relay(b, ts, value, op=1, r=R0):
    return Message(MessageKind.READ_RELAY, b, r, op, Tag(ts, 0), value)


def ack(b, ts, value, op=1, r=R0):
    return Message(MessageKind.READ_ACK, b, r, op, Tag(ts, 0), value)


def wack(b, ts):
    return Message(MessageKind.WRITE_ACK, b, W0, ts, Tag(ts, 0))


def test_write_broadcast_and_quorum_ack():
    w = base.WriterState(W0)
    m, to, _, adopted = base.swmr_writer_step(w, Invoke(b"v1"), QS3)
    assert list(to) == [0, 1, 2]
    assert m.kind == MessageKind.WRITE_REQUEST and m.tag == Tag(1, 0) and m.value == b"v1"
    assert adopted is None

    _, _, response, _ = base.swmr_writer_step(w, wack(0, 1), QS3)
    assert response is None
    m, _, response, _ = base.swmr_writer_step(w, wack(1, 1), QS3)
    # Answered on the first acknowledgement quorum.
    assert response == Response(b"v1", Tag(1, 0)) and m is None and w.phase == "idle"
    # Trailing ack for the answered write: no send, no response, no change.
    before = deepcopy(w)
    assert base.swmr_writer_step(w, wack(2, 1), QS3) is NOTHING and w == before


def test_fourth_write_acked_by_any_quorum():
    w = base.WriterState(W0)
    for k in range(1, 4):
        base.swmr_writer_step(w, Invoke(b"x%d" % k), QS3)
        base.swmr_writer_step(w, wack(0, k), QS3)
        base.swmr_writer_step(w, wack(1, k), QS3)
    m, _, _, _ = base.swmr_writer_step(w, Invoke(b"v4"), QS3)
    assert m.tag == Tag(4, 0)
    base.swmr_writer_step(w, wack(1, 4), QS3)
    _, _, response, _ = base.swmr_writer_step(w, wack(2, 4), QS3)  # quorum {1,2}
    assert response == Response(b"v4", Tag(4, 0))


def test_stale_write_ack_flagged():
    w = base.WriterState(W0)
    base.swmr_writer_step(w, Invoke(b"a"), QS3)
    for b in (0, 1):
        base.swmr_writer_step(w, wack(b, 1), QS3)
    base.swmr_writer_step(w, Invoke(b"b"), QS3)
    # The previous write's ack is ignored; the simulator counts it stale.
    before = deepcopy(w)
    assert base.swmr_writer_step(w, wack(2, 1), QS3) is NOTHING and w == before


def test_server_relays_to_quorum_peers_and_reader():
    s = ERATO.new_state("s0", 0)
    req = Message(MessageKind.READ_REQUEST, R0, R0, 1)
    m, to, _, _ = base.relay_server_step(s, req, QS3)
    assert list(to) == [0, 1, 2, R0]
    assert m.kind == MessageKind.READ_RELAY and m.tag == Tag(0, 0) and m.value == b""


def test_server_acks_once_after_relay_quorum():
    s = ERATO.new_state("s0", 0)
    m, _, _, adopted = base.relay_server_step(s, relay(1, 3, b"v3"), QS3)
    assert m is None and s.tag == Tag(3, 0) and s.value == b"v3"
    assert adopted == Tag(3, 0)
    m, (dst,), _, adopted = base.relay_server_step(s, relay(2, 0, b""), QS3)  # completes quorum {1,2}
    assert adopted is None
    assert dst == R0 and m.kind == MessageKind.READ_ACK
    assert m.tag == Tag(3, 0) and m.value == b"v3"  # ack carries adopted pair
    # Third relay arrives: no duplicate ack for the same read.
    m, _, _, _ = base.relay_server_step(s, relay(0, 0, b""), QS3)
    assert m is None


def test_server_adoption_is_monotone():
    s = ERATO.new_state("s0", 0)
    base.relay_server_step(s, relay(1, 3, b"v3"), QS3)
    base.relay_server_step(s, relay(2, 2, b"v2"), QS3)
    assert s.tag == Tag(3, 0) and s.value == b"v3"


def test_read_fast_path_uniform_relays():
    r = RelayReaderState(R0)
    m, to, _, _ = erato_reader_step(r, Invoke(), QS3)
    assert len(to) == 3 and m.kind == MessageKind.READ_REQUEST
    _, _, response, _ = erato_reader_step(r, relay(0, 5, b"v5"), QS3)
    assert response is None
    # The fast path answers on the relay delivery itself.
    _, _, response, _ = erato_reader_step(r, relay(1, 5, b"v5"), QS3)
    assert response == Response(b"v5", Tag(5, 0)) and r.mode == "idle"


def test_read_ack_quorum_returns_minimum():
    r = RelayReaderState(R0)
    erato_reader_step(r, Invoke(), QS3)
    erato_reader_step(r, ack(0, 5, b"v5"), QS3)
    _, _, response, _ = erato_reader_step(r, ack(1, 4, b"v4"), QS3)
    assert response == Response(b"v4", Tag(4, 0))


def test_read_incomplete_max_returns_previous_timestamp():
    r = RelayReaderState(R0)
    erato_reader_step(r, Invoke(), QS4)
    erato_reader_step(r, relay(0, 5, b"v5"), QS4)
    erato_reader_step(r, relay(1, 4, b"v4"), QS4)
    _, _, response, _ = erato_reader_step(r, relay(2, 4, b"v4"), QS4)
    assert response == Response(b"v4", Tag(4, 0)) and r.mode == "idle"


def test_read_view2_without_previous_holder_waits_for_acks():
    r = RelayReaderState(R0)
    erato_reader_step(r, Invoke(), QS4)
    erato_reader_step(r, relay(0, 5, b"v5"), QS4)
    erato_reader_step(r, relay(1, 3, b"v3"), QS4)
    _, _, response, _ = erato_reader_step(r, relay(2, 3, b"v3"), QS4)
    assert response is None and r.mode == "await"
    for b in (0, 1):
        _, _, response, _ = erato_reader_step(r, ack(b, 5, b"v5"), QS4)
        assert response is None
    _, _, response, _ = erato_reader_step(r, ack(2, 5, b"v5"), QS4)
    assert response == Response(b"v5", Tag(5, 0))


def test_read_ambiguous_view_waits_for_acks():
    r = RelayReaderState(R0)
    erato_reader_step(r, Invoke(), QS4)
    erato_reader_step(r, relay(0, 5, b"v5"), QS4)
    erato_reader_step(r, relay(1, 5, b"v5"), QS4)
    _, _, response, _ = erato_reader_step(r, relay(2, 4, b"v4"), QS4)
    assert response is None and r.mode == "await"
    # A late relay in await mode changes nothing.
    _, _, response, _ = erato_reader_step(r, relay(3, 5, b"v5"), QS4)
    assert response is None


def test_stale_and_trailing_read_messages():
    r = RelayReaderState(R0)
    erato_reader_step(r, Invoke(), QS3)
    erato_reader_step(r, relay(0, 1, b"a"), QS3)
    _, _, response, _ = erato_reader_step(r, relay(1, 1, b"a"), QS3)
    assert response is not None
    # Same read_op after the response: no send, no response, no change.
    before = deepcopy(r)
    assert erato_reader_step(r, ack(2, 1, b"a"), QS3) is NOTHING and r == before
    # Next read makes op 1 traffic stale, and ignored just the same.
    erato_reader_step(r, Invoke(), QS3)
    before = deepcopy(r)
    assert erato_reader_step(r, ack(2, 1, b"a", op=1), QS3) is NOTHING and r == before


def test_steps_replay_identically():
    r = RelayReaderState(R0)
    erato_reader_step(r, Invoke(), QS3)
    erato_reader_step(r, relay(0, 2, b"x"), QS3)
    twin = deepcopy(r)
    ev = relay(1, 2, b"x")
    assert erato_reader_step(r, ev, QS3) == erato_reader_step(twin, ev, QS3)
    assert r == twin


def test_server_after_its_ack_only_adopts(monkeypatch):
    # One server of majority(5), reader id 5: servers 0, 1 and 2 relay
    # op 1, a quorum, then later relays of op 1 and of an older op come.
    qs, reader_id = build_majority(5), 5
    s = ERATO.new_state("s0", 0)
    scan = type(qs).first_contained_mask
    calls = []
    monkeypatch.setattr(type(qs), "first_contained_mask",
                        lambda q, mask: calls.append(mask) or scan(q, mask))

    def relay5(b, ts, op):
        return relay(b, ts, b"v%d" % ts, op=op, r=reader_id)

    for b in (0, 1):
        m, _, _, _ = base.relay_server_step(s, relay5(b, 1, op=1), qs)
        assert m is None
    m, to, _, _ = base.relay_server_step(s, relay5(2, 1, op=1), qs)
    assert (list(to), m.kind, m.op_seq) == ([reader_id], MessageKind.READ_ACK, 1)
    assert len(calls) == 3  # one scan per relay up to the ack

    # A later relay of the answered read still hands over its newer tag.
    out = base.relay_server_step(s, relay5(3, 2, op=1), qs)
    assert out == (None, (), None, Tag(2, 0)) and s.tag == Tag(2, 0) and s.value == b"v2"
    assert base.relay_server_step(s, relay5(4, 0, op=1), qs) is NOTHING
    assert len(calls) == 3  # and no scan after it

    # A relay of op 1 after op 2 began changes nothing, on this server
    # and on one that never acknowledged op 1.
    fresh = ERATO.new_state("s1", 1)
    base.relay_server_step(fresh, relay5(0, 0, op=1), qs)
    for state in (s, fresh):
        base.relay_server_step(state, relay5(0, 2, op=2), qs)
        before, scans = deepcopy(state), len(calls)
        assert base.relay_server_step(state, relay5(1, 1, op=1), qs) is NOTHING
        assert state == before and len(calls) == scans
