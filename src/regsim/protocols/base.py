"""Shared machinery for the register protocol state machines.

Every protocol is the triple (reader, writer, server) of step functions
with signature step(state, event, qs) -> StepOutput.  States are plain
dataclasses mutated in place; a step is deterministic, so replaying the
same event against a copy of the state reproduces the same output.

A node is its dense int id here (see core): a state's pid, a message's
sender and client, and every send's destination.  Server i is id i and
bit i of every quorum mask, so a broadcast goes to ids 0..n-1 and a
server's reply is recorded under its sender id directly.

An event is an Invoke, which starts an operation at a client, or the
Message being delivered.  A step reports only what the protocol decides:
the one message it sends and the node ids it goes to, its response
(value, tag) and the tag a server took over.
Every protocol sends at most one message per step, to any number of
nodes: range(qs.n) for a broadcast to the servers, (client,) for a
reply, the servers and then the reader for a relay echoed to the
reader.  A step returns them as one StepOutput, the plain tuple
(message, to, response, adopted) built at its return: one is built per
step, and a named tuple's constructor costs several times a plain
tuple's.  The helpers below return their part of it and never change an
output.
A step that decides nothing returns NOTHING, the one empty output,
which the simulator skips without a look.  A client ignores a message
whose op_seq is behind its own counter (a stale one) and a message for
its current operation that arrives after the response; either yields
NOTHING.  How many exchanges an operation took and how many deliveries
were stale the simulator measures on the wire (see netsim).

Every writer and the abd reader run one query/put client (Attiya,
Bar-Noy and Dolev; Lynch and Shvartsman): query a quorum for its
greatest tag, then put a tag/value pair to every server and answer on a
quorum of acks, 4 exchanges in all.  A multi-writer write puts the next
timestamp under its own writer id with its own value; an abd read is a
query followed by a write-back put of the query quorum's greatest pair,
the same machine under the read message kinds (see abd).  An SWMR write
is the put alone, 2 exchanges, its timestamp its op_seq.

Invoke and Response are named tuples, as core's Tag and Message are,
so each compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence, Union

from regsim.core import (
    INITIAL_TAG,
    INITIAL_VALUE,
    Message,
    MessageKind,
    Tag,
)
from regsim.quorum import QuorumSystem
from regsim.views import quorum_extreme


class Invoke(NamedTuple):
    value: Optional[bytes] = None  # payload for writes, None for reads


Event = Union[Invoke, Message]


class Response(NamedTuple):
    value: bytes
    tag: Tag


StepOutput = tuple[Optional[Message], Sequence[int], Optional[Response], Optional[Tag]]

NOTHING: StepOutput = (None, (), None, None)


# --- query/put clients ------------------------------------------------------


@dataclass
class QueryPutState:
    """A writer of either model or an abd reader.  op_seq advances once
    per phase, so acknowledgement filtering by op_seq also separates the
    phases of one operation.  wid is a writer's index, the tiebreak of
    its tags.  tag and value are the pair the put sends and the response
    answers with; acks holds the query's replies by sender."""

    pid: int
    wid: int = 0
    op_seq: int = 0
    phase: str = "idle"  # idle | query | put
    value: Optional[bytes] = INITIAL_VALUE
    tag: Optional[Tag] = None
    acks: dict[int, Message] = field(default_factory=dict)
    ack_mask: int = 0


# (query, query ack, put, put ack) message kinds of a client's phases.
Kinds = tuple[str, str, str, str]
WRITE_KINDS: Kinds = (MessageKind.WRITE_DISCOVER, MessageKind.DISCOVER_ACK,
                      MessageKind.WRITE_REQUEST, MessageKind.WRITE_ACK)
# (state, the query quorum's greatest-tag reply) -> the (tag, value) put.
Pick = Callable[[QueryPutState, Message], tuple[Tag, Optional[bytes]]]


def _put(state: QueryPutState, tag: Tag, value: Optional[bytes], kind: str, qs: QuorumSystem) -> StepOutput:
    """Open the put phase of tag and value."""
    state.op_seq += 1
    state.phase = "put"
    state.tag = tag
    state.value = value
    state.ack_mask = 0
    return Message(kind, state.pid, state.pid, state.op_seq, tag, value), range(qs.n), None, None


def query_put_step(state: QueryPutState, event: Event, qs: QuorumSystem, kinds: Kinds, pick: Pick) -> StepOutput:
    """Query a quorum for its greatest tag, put the pair pick makes of
    it, answer on the put's ack quorum."""
    query, query_ack, put, put_ack = kinds
    if isinstance(event, Invoke):
        assert state.phase == "idle"
        state.op_seq += 1
        state.phase = "query"
        state.value = event.value
        state.acks = {}
        state.ack_mask = 0
        return Message(query, state.pid, state.pid, state.op_seq), range(qs.n), None, None
    # An earlier phase's or operation's ack falls through, like a trailing one.
    if event.op_seq < state.op_seq:
        return NOTHING
    if state.phase == "query" and event.kind == query_ack:
        bit = event.sender
        state.acks[bit] = event
        state.ack_mask |= 1 << bit
        quorum = qs.first_contained_mask(state.ack_mask)
        if quorum:
            tag, value = pick(state, quorum_extreme(state.acks, quorum, smallest=False))
            return _put(state, tag, value, put, qs)
    elif state.phase == "put" and event.kind == put_ack:
        state.ack_mask |= 1 << event.sender
        if qs.first_contained_mask(state.ack_mask):
            state.phase = "idle"
            return None, (), Response(state.value, state.tag), None
    return NOTHING


def _next_tag(state: QueryPutState, top: Message) -> tuple[Tag, Optional[bytes]]:
    """A write puts the next timestamp under its writer id, with its value."""
    return Tag(top.tag.ts + 1, state.wid), state.value


def mw_writer_step(state: QueryPutState, event: Event, qs: QuorumSystem) -> StepOutput:
    """Writer of several: discover the highest timestamp, then put."""
    return query_put_step(state, event, qs, WRITE_KINDS, _next_tag)


def swmr_writer_step(state: QueryPutState, event: Event, qs: QuorumSystem) -> StepOutput:
    """Single writer: the write is the put phase alone, opened at once."""
    if isinstance(event, Invoke):
        assert state.phase == "idle" and event.value is not None
        return _put(state, Tag(state.op_seq + 1, 0), event.value, MessageKind.WRITE_REQUEST, qs)
    return query_put_step(state, event, qs, WRITE_KINDS, _next_tag)


# --- servers ---------------------------------------------------------------


def adopt(state, msg: Message) -> Optional[Tag]:
    """Take over the message's tag/value pair when it is newer; the tag
    taken over, or None."""
    if msg.tag > state.tag:
        state.tag = msg.tag
        state.value = msg.value
        return state.tag
    return None


def handle_writer_message(state: ServerState, msg: Message) -> StepOutput:
    """A server's reply to a writer's WRITE_DISCOVER or WRITE_REQUEST;
    any other message kind is ignored."""
    if msg.kind == MessageKind.WRITE_DISCOVER:
        ack = Message(MessageKind.DISCOVER_ACK, state.pid, msg.client, msg.op_seq, state.tag)
        return ack, (msg.client,), None, None
    if msg.kind != MessageKind.WRITE_REQUEST:
        return NOTHING
    adopted = adopt(state, msg)
    ack = Message(MessageKind.WRITE_ACK, state.pid, msg.client, msg.op_seq, state.tag)
    return ack, (msg.client,), None, adopted


@dataclass
class ServerState:
    """Server of every protocol.  Only relay_server_step keeps reads;
    under plain_server_step it stays empty.  A relay goes to every
    server, as each shares a quorum with every other (see quorum)."""

    pid: int  # its quorum bit
    relay_to_reader: bool
    tag: Tag = INITIAL_TAG
    value: bytes = INITIAL_VALUE
    # Keyed by the client's id: a reader's newest read's op_seq and the
    # mask of the servers that relayed it, 0 once this server acked it.
    reads: dict[int, tuple[int, int]] = field(default_factory=dict)


def relay_server_step(state: ServerState, event: Event, qs: QuorumSystem) -> StepOutput:
    assert isinstance(event, Message)
    kind = event.kind
    if kind == MessageKind.READ_RELAY:
        adopted = adopt(state, event)
        r, ro = event.client, event.op_seq
        seq, mask = state.reads.get(r, (0, 0))
        # A relay of an older read, or of one this server acked, only adopts.
        if seq < ro or seq == ro and mask:
            mask = (mask if seq == ro else 0) | 1 << event.sender
            if qs.first_contained_mask(mask):
                state.reads[r] = (ro, 0)  # at most one ack per (reader, read_op)
                ack = Message(MessageKind.READ_ACK, state.pid, r, ro, state.tag, state.value)
                return ack, (r,), None, adopted
            state.reads[r] = (ro, mask)
        return NOTHING if adopted is None else (None, (), None, adopted)
    if kind == MessageKind.READ_REQUEST:
        relay = Message(MessageKind.READ_RELAY, state.pid, event.client, event.op_seq, state.tag, state.value)
        to = range(qs.n)
        if state.relay_to_reader:
            to = (*to, event.client)
        return relay, to, None, None
    return handle_writer_message(state, event)


def plain_server_step(state: ServerState, event: Event, qs: QuorumSystem) -> StepOutput:
    assert isinstance(event, Message)
    if event.kind == MessageKind.READ_REQUEST:
        adopted = None
    elif event.kind == MessageKind.READ_RELAY:
        adopted = adopt(state, event)  # write-back of the chosen tag by a reading client
    else:
        return handle_writer_message(state, event)
    ack = Message(MessageKind.READ_ACK, state.pid, event.client, event.op_seq, state.tag, state.value)
    return ack, (event.client,), None, adopted
