"""Query/write-back register baseline.

Reads always take two round trips: query every server for its pair, pick
the quorum maximum, write it back to every server and answer on the
second acknowledgement quorum (no fast path; the simulator counts the
exchanges, see netsim).  The write-back reuses the relay message kind
with the reader as sender; read_op advances once per phase so stale
replies filter out naturally.  Writes are the plain timestamp broadcast
in single-writer mode and the two-phase discover/put in multi-writer
mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from regsim.core import Message, MessageKind
from regsim.protocols.base import NOTHING, Event, Invoke, Response, StepOutput
from regsim.quorum import QuorumSystem
from regsim.views import quorum_extreme


@dataclass
class QueryReaderState:
    pid: int
    read_op: int = 0
    phase: str = "idle"  # idle | query | writeback
    acks: dict[int, Message] = field(default_factory=dict)
    ack_mask: int = 0
    chosen: Optional[Message] = None  # the query quorum's greatest-tag reply


def query_reader_step(state: QueryReaderState, event: Event, qs: QuorumSystem) -> StepOutput:
    if isinstance(event, Invoke):
        assert state.phase == "idle" and event.value is None
        state.read_op += 1
        state.phase = "query"
        state.acks = {}
        state.ack_mask = 0
        return StepOutput(Message(MessageKind.READ_REQUEST, state.pid, state.pid, state.read_op), range(qs.n))
    if event.op_seq < state.read_op or state.phase == "idle" or event.kind != MessageKind.READ_ACK:
        return NOTHING  # stale, trailing, or not an acknowledgement
    bit = event.sender
    state.acks[bit] = event
    state.ack_mask |= 1 << bit
    quorum = qs.first_contained_mask(state.ack_mask)
    if not quorum:
        return NOTHING
    if state.phase == "query":
        best = state.chosen = quorum_extreme(state.acks, quorum, smallest=False)
        state.read_op += 1
        state.phase = "writeback"
        state.acks = {}
        state.ack_mask = 0
        writeback = Message(MessageKind.READ_RELAY, state.pid, state.pid, state.read_op, best.tag, best.value)
        return StepOutput(writeback, range(qs.n))
    state.phase = "idle"
    return StepOutput(response=Response(state.chosen.value, state.chosen.tag))
