"""Shared machinery for the register protocol state machines.

Every protocol is the triple (reader, writer, server) of step functions
with signature step(state, event, qs) -> StepOutput.  States are plain
dataclasses mutated in place; a step is deterministic, so replaying the
same event against a copy of the state reproduces the same output.

A node is its dense int id here (see core): a state's pid, a message's
sender and client, and every send's destination.  Server i is id i and
bit i of every quorum mask, so a broadcast sends to ids 0..n-1 and a
server's reply is recorded under its sender id directly.

An event is an Invoke, which starts an operation at a client, or the
Message being delivered.  A step reports only what the protocol decides:
its sends, its response (value, tag), the tag a writer chose and the tag
a server took over.  A client ignores a message whose op_seq is behind
its own counter (a stale one) and a message for its current operation
that arrives after the response; either yields an empty output.  How
many exchanges an operation took and how many deliveries were stale the
simulator measures on the wire (see netsim).

Invoke and Response are named tuples, as core's Tag and Message are, so
each compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

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


@dataclass
class StepOutput:
    sends: list[tuple[int, Message]] = field(default_factory=list)
    response: Optional[Response] = None
    # At most one of these per step; the simulator writes them to the trace.
    wtag: Optional[Tag] = None  # the tag a writer decided for its running write
    adopted: Optional[Tag] = None  # the tag a server took over


def broadcast(out: StepOutput, qs: QuorumSystem, msg: Message) -> None:
    out.sends.extend((i, msg) for i in range(qs.n))


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
    out = StepOutput()
    if isinstance(event, Invoke):
        assert not state.pending and event.value is not None
        state.ts += 1
        state.value = event.value
        state.ack_mask = 0
        state.pending = True
        out.wtag = Tag(state.ts, 0)
        broadcast(out, qs, Message(MessageKind.WRITE_REQUEST, state.pid, state.pid, state.ts, out.wtag, event.value))
        return out
    # An earlier write's ack (op_seq below ts) falls through, like a trailing one.
    if state.pending and event.kind == MessageKind.WRITE_ACK and event.op_seq == state.ts:
        state.ack_mask |= 1 << event.sender
        if qs.first_contained_mask(state.ack_mask):
            state.pending = False
            out.response = Response(state.value, Tag(state.ts, 0))
    return out


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
    out = StepOutput()
    if isinstance(event, Invoke):
        assert state.phase == "idle" and event.value is not None
        state.write_op += 1
        state.phase = "discover"
        state.value = event.value
        state.acks = {}
        state.ack_mask = 0
        broadcast(out, qs, Message(MessageKind.WRITE_DISCOVER, state.pid, state.pid, state.write_op))
        return out
    if event.op_seq < state.write_op:
        return out
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
            out.wtag = state.tag
            broadcast(
                out,
                qs,
                Message(MessageKind.WRITE_REQUEST, state.pid, state.pid, state.write_op, state.tag, state.value),
            )
    elif state.phase == "put" and event.kind == MessageKind.WRITE_ACK:
        state.ack_mask |= 1 << event.sender
        if qs.first_contained_mask(state.ack_mask):
            state.phase = "idle"
            out.response = Response(state.value, state.tag)
    return out


# --- servers ---------------------------------------------------------------


def adopt(state, msg: Message, out: StepOutput) -> None:
    """Take over the message's tag/value pair when it is newer."""
    if msg.tag > state.tag:
        state.tag = msg.tag
        state.value = msg.value
        out.adopted = state.tag


def handle_writer_message(state: ServerState, msg: Message, out: StepOutput) -> None:
    """A server's reply to a writer's WRITE_DISCOVER or WRITE_REQUEST;
    any other message kind is ignored."""
    if msg.kind == MessageKind.WRITE_DISCOVER:
        out.sends.append((msg.client, Message(MessageKind.DISCOVER_ACK, state.pid, msg.client, msg.op_seq, state.tag)))
    elif msg.kind == MessageKind.WRITE_REQUEST:
        # Adoption is gated on per-writer freshness; the ack is not.  A
        # single writer's op_seq is its timestamp, so the gate drops only
        # requests whose tag adopt would ignore anyway.
        if state.write_ops.get(msg.client, 0) < msg.op_seq:
            state.write_ops[msg.client] = msg.op_seq
            adopt(state, msg, out)
        out.sends.append((msg.client, Message(MessageKind.WRITE_ACK, state.pid, msg.client, msg.op_seq, state.tag)))


@dataclass
class ServerState:
    """Server of every protocol.  Only relay_server_step reads the relay
    bookkeeping; under plain_server_step it stays empty.  A relay goes to
    every server, as each shares a quorum with every other (see quorum)."""

    pid: int  # its quorum bit
    relay_to_reader: bool
    tag: Tag = INITIAL_TAG
    value: bytes = INITIAL_VALUE
    # Keyed by the client's id.
    operations: dict[int, int] = field(default_factory=dict)
    relays: dict[int, int] = field(default_factory=dict)
    acked: dict[int, int] = field(default_factory=dict)
    write_ops: dict[int, int] = field(default_factory=dict)


def relay_server_step(state: ServerState, event: Event, qs: QuorumSystem) -> StepOutput:
    out = StepOutput()
    assert isinstance(event, Message)
    if event.kind == MessageKind.READ_REQUEST:
        relay = Message(MessageKind.READ_RELAY, state.pid, event.client, event.op_seq, state.tag, state.value)
        broadcast(out, qs, relay)
        if state.relay_to_reader:
            out.sends.append((event.client, relay))
    elif event.kind == MessageKind.READ_RELAY:
        adopt(state, event, out)
        r, ro = event.client, event.op_seq
        if state.operations.get(r, 0) < ro:
            state.operations[r] = ro
            state.relays[r] = 0
        if state.operations[r] == ro:
            state.relays[r] |= 1 << event.sender
            if state.acked.get(r, 0) < ro and qs.first_contained_mask(state.relays[r]):
                state.acked[r] = ro  # at most one ack per (reader, read_op)
                out.sends.append((r, Message(MessageKind.READ_ACK, state.pid, r, ro, state.tag, state.value)))
    else:
        handle_writer_message(state, event, out)
    return out


def plain_server_step(state: ServerState, event: Event, qs: QuorumSystem) -> StepOutput:
    out = StepOutput()
    assert isinstance(event, Message)
    if event.kind == MessageKind.READ_REQUEST:
        out.sends.append((event.client, Message(MessageKind.READ_ACK, state.pid, event.client, event.op_seq, state.tag, state.value)))
    elif event.kind == MessageKind.READ_RELAY:
        # Write-back of the chosen tag by a reading client.
        adopt(state, event, out)
        out.sends.append((event.client, Message(MessageKind.READ_ACK, state.pid, event.client, event.op_seq, state.tag, state.value)))
    else:
        handle_writer_message(state, event, out)
    return out
