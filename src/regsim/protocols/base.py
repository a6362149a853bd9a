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
reader.  A step returns them as one StepOutput, built at its return;
the helpers below return their part of it and never change an output.
A step that decides nothing returns NOTHING, the one empty output,
which the simulator skips without a look.  A client ignores a message
whose op_seq is behind its own counter (a stale one) and a message for
its current operation that arrives after the response; either yields
NOTHING.  How many exchanges an operation took and how many deliveries
were stale the simulator measures on the wire (see netsim).

Invoke, Response and StepOutput are named tuples, as core's Tag and
Message are, so each compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

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


class StepOutput(NamedTuple):
    message: Optional[Message] = None  # the one message the step sends
    to: Sequence[int] = ()  # the node ids it goes to, empty when message is None
    response: Optional[Response] = None
    adopted: Optional[Tag] = None  # the tag a server took over


NOTHING = StepOutput()


# --- writers ---------------------------------------------------------------


@dataclass
class SWMRWriterState:
    """Single writer: the timestamp itself sequences its operations."""

    pid: int
    ts: int = 0
    value: bytes = INITIAL_VALUE
    ack_mask: int = 0
    pending: bool = False


def swmr_writer_step(state: SWMRWriterState, event: Event, qs: QuorumSystem) -> StepOutput:
    if isinstance(event, Invoke):
        assert not state.pending and event.value is not None
        state.ts += 1
        state.value = event.value
        state.ack_mask = 0
        state.pending = True
        msg = Message(MessageKind.WRITE_REQUEST, state.pid, state.pid, state.ts, Tag(state.ts, 0), event.value)
        return StepOutput(msg, range(qs.n))
    # An earlier write's ack (op_seq below ts) falls through, like a trailing one.
    if state.pending and event.kind == MessageKind.WRITE_ACK and event.op_seq == state.ts:
        state.ack_mask |= 1 << event.sender
        if qs.first_contained_mask(state.ack_mask):
            state.pending = False
            return StepOutput(response=Response(state.value, Tag(state.ts, 0)))
    return NOTHING


@dataclass
class MWWriterState:
    """Two-phase writer: discover the highest timestamp, then place the tag.

    write_op advances once per phase, so acknowledgement filtering by
    op_seq also separates the phases of one operation.  wid is the
    writer's index, the tiebreak of its tags.
    """

    pid: int
    wid: int
    write_op: int = 0
    phase: str = "idle"  # idle | discover | put
    value: bytes = INITIAL_VALUE
    tag: Optional[Tag] = None
    acks: dict[int, Message] = field(default_factory=dict)
    ack_mask: int = 0


def mw_writer_step(state: MWWriterState, event: Event, qs: QuorumSystem) -> StepOutput:
    if isinstance(event, Invoke):
        assert state.phase == "idle" and event.value is not None
        state.write_op += 1
        state.phase = "discover"
        state.value = event.value
        state.acks = {}
        state.ack_mask = 0
        return StepOutput(Message(MessageKind.WRITE_DISCOVER, state.pid, state.pid, state.write_op), range(qs.n))
    if event.op_seq < state.write_op:
        return NOTHING
    if state.phase == "discover" and event.kind == MessageKind.DISCOVER_ACK:
        bit = event.sender
        state.acks[bit] = event
        state.ack_mask |= 1 << bit
        quorum = qs.first_contained_mask(state.ack_mask)
        if quorum:
            max_ts = quorum_extreme(state.acks, quorum, smallest=False).tag.ts
            state.tag = Tag(max_ts + 1, state.wid)
            state.write_op += 1
            state.phase = "put"
            state.acks = {}
            state.ack_mask = 0
            msg = Message(MessageKind.WRITE_REQUEST, state.pid, state.pid, state.write_op, state.tag, state.value)
            return StepOutput(msg, range(qs.n))
    elif state.phase == "put" and event.kind == MessageKind.WRITE_ACK:
        state.ack_mask |= 1 << event.sender
        if qs.first_contained_mask(state.ack_mask):
            state.phase = "idle"
            return StepOutput(response=Response(state.value, state.tag))
    return NOTHING


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
        return StepOutput(Message(MessageKind.DISCOVER_ACK, state.pid, msg.client, msg.op_seq, state.tag), (msg.client,))
    if msg.kind != MessageKind.WRITE_REQUEST:
        return NOTHING
    # Adoption is gated on per-writer freshness; the ack is not.  A
    # single writer's op_seq is its timestamp, so the gate drops only
    # requests whose tag adopt would ignore anyway.
    adopted = None
    if state.write_ops.get(msg.client, 0) < msg.op_seq:
        state.write_ops[msg.client] = msg.op_seq
        adopted = adopt(state, msg)
    ack = Message(MessageKind.WRITE_ACK, state.pid, msg.client, msg.op_seq, state.tag)
    return StepOutput(ack, (msg.client,), adopted=adopted)


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
    write_ops: dict[int, int] = field(default_factory=dict)


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
                return StepOutput(ack, (r,), adopted=adopted)
            state.reads[r] = (ro, mask)
        return NOTHING if adopted is None else StepOutput(adopted=adopted)
    if kind == MessageKind.READ_REQUEST:
        relay = Message(MessageKind.READ_RELAY, state.pid, event.client, event.op_seq, state.tag, state.value)
        to = range(qs.n)
        if state.relay_to_reader:
            to = (*to, event.client)
        return StepOutput(relay, to)
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
    return StepOutput(ack, (event.client,), adopted=adopted)
