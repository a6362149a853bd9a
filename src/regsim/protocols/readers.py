"""Reader-side collection scaffolding shared by the relay-based protocols.

A relay read broadcasts one request and then watches two responder sets:
relays echoed directly to the reader (RR) and post-synchronisation
acknowledgements (RA).  The acknowledgement quorum is always checked first;
how a completed relay quorum is analysed is what distinguishes the
protocols, so that part is injected as a callable.  Without one (the ohsam
and ohmam baselines) every read waits for the acknowledgement quorum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from regsim.core import Message, MessageKind
from regsim.protocols.base import Event, Invoke, Response, StepOutput, broadcast
from regsim.quorum import QuorumSystem, bits


@dataclass
class RelayReaderState:
    pid: int
    read_op: int = 0
    mode: str = "idle"  # idle | collect | await
    rr: dict[int, Message] = field(default_factory=dict)
    rr_mask: int = 0
    ra: dict[int, Message] = field(default_factory=dict)
    ra_mask: int = 0


# Called when the first relay quorum / an acknowledgement quorum completes.
Analyzer = Callable[[RelayReaderState, StepOutput, QuorumSystem, int], None]
AckResponder = Callable[[RelayReaderState, StepOutput, QuorumSystem, int], None]


def quorum_extreme(msgs: dict[int, Message], qmask: int, smallest: bool) -> Message:
    """The quorum member's message with the least/greatest tag (first bit wins ties)."""
    best: Optional[Message] = None
    for b in bits(qmask):
        m = msgs[b]
        if best is None or (m.tag < best.tag if smallest else m.tag > best.tag):
            best = m
    assert best is not None
    return best


def respond_min_acks(state: RelayReaderState, out: StepOutput, qs: QuorumSystem, qi: int) -> None:
    m = quorum_extreme(state.ra, qs.masks[qi], smallest=True)
    state.mode = "idle"
    out.response = Response(m.value, m.tag)


def relay_reader_step(
    state: RelayReaderState,
    event: Event,
    qs: QuorumSystem,
    analyze: Optional[Analyzer] = None,
    on_acks: AckResponder = respond_min_acks,
) -> StepOutput:
    out = StepOutput()
    if isinstance(event, Invoke):
        assert state.mode == "idle" and event.value is None
        state.read_op += 1
        state.mode = "collect"
        state.rr = {}
        state.rr_mask = 0
        state.ra = {}
        state.ra_mask = 0
        broadcast(out, qs, Message(MessageKind.READ_REQUEST, state.pid, state.pid, state.read_op))
        return out
    if event.op_seq < state.read_op or state.mode == "idle":
        return out  # stale or trailing
    bit = event.sender
    if event.kind == MessageKind.READ_ACK:
        state.ra[bit] = event
        state.ra_mask |= 1 << bit
        qi = qs.first_contained_mask(state.ra_mask)
        if qi >= 0:
            on_acks(state, out, qs, qi)
    elif event.kind == MessageKind.READ_RELAY and state.mode == "collect" and analyze is not None:
        state.rr[bit] = event
        state.rr_mask |= 1 << bit
        qi = qs.first_contained_mask(state.rr_mask)
        if qi >= 0:
            analyze(state, out, qs, qi)
    return out
