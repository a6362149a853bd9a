"""Reader-side collection shared by the relay-based protocols.

A relay read broadcasts one request and then watches two responder sets:
relays echoed directly to the reader (RR) and post-synchronisation
acknowledgements (RA).  The protocols differ only in how they analyse
the first complete relay quorum: the analyser returns its decision, the
message to answer with or None to await the acknowledgement quorum
(views.iterative_analyze's signature).  Without an analyser (the ohsam
and ohmam baselines) every read waits for the acknowledgement quorum.
An acknowledgement quorum answers with its least tag, or, for the
unsafe erato_broken, its greatest.  relay_reader_step applies both
decisions in one place: the read answers there and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from regsim.core import Message, MessageKind
from regsim.protocols.base import NOTHING, Event, Invoke, Response, StepOutput
from regsim.quorum import QuorumSystem
from regsim.views import quorum_extreme


@dataclass
class RelayReaderState:
    pid: int
    read_op: int = 0
    mode: str = "idle"  # idle | collect | await
    rr: dict[int, Message] = field(default_factory=dict)
    rr_mask: int = 0
    ra: dict[int, Message] = field(default_factory=dict)
    ra_mask: int = 0


# (qs, relays by sender bit, relay quorum mask) -> the message to answer
# with, or None to await the acknowledgement quorum.
Analyzer = Callable[[QuorumSystem, Mapping[int, Message], int], Optional[Message]]


def relay_reader_step(
    state: RelayReaderState,
    event: Event,
    qs: QuorumSystem,
    analyze: Optional[Analyzer] = None,
    smallest_ack: bool = True,
) -> StepOutput:
    if isinstance(event, Invoke):
        assert state.mode == "idle" and event.value is None
        state.read_op += 1
        state.mode = "collect"
        state.rr = {}
        state.rr_mask = 0
        state.ra = {}
        state.ra_mask = 0
        request = Message(MessageKind.READ_REQUEST, state.pid, state.pid, state.read_op)
        return request, range(qs.n), None, None
    if event.op_seq < state.read_op or state.mode == "idle":
        return NOTHING  # stale or trailing
    bit = event.sender
    if event.kind == MessageKind.READ_ACK:
        state.ra[bit] = event
        state.ra_mask |= 1 << bit
        quorum = qs.first_contained_mask(state.ra_mask)
        if not quorum:
            return NOTHING
        m = quorum_extreme(state.ra, quorum, smallest_ack)
    elif event.kind == MessageKind.READ_RELAY and state.mode == "collect" and analyze is not None:
        state.rr[bit] = event
        state.rr_mask |= 1 << bit
        quorum = qs.first_contained_mask(state.rr_mask)
        if not quorum:
            return NOTHING
        m = analyze(qs, state.rr, quorum)
        if m is None:
            state.mode = "await"
            return NOTHING
    else:
        return NOTHING
    state.mode = "idle"
    return None, (), Response(m.value, m.tag), None
