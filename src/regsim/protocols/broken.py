"""Deliberately unsafe variant of the single-writer relay protocol.

Used only to show the atomicity checker is not vacuous: servers here
acknowledge a read on the first relay they see instead of waiting for a
full relay quorum, and the reader answers the acknowledgement round with
the maximum tag instead of the minimum.  Without the relay-quorum wait an
acknowledged tag carries no completeness guarantee, so under enough delay
variance two non-overlapping reads can return inverted timestamps.

Never use this outside tests.
"""

from __future__ import annotations

from regsim.core import Message, MessageKind
from regsim.protocols import base, erato
from regsim.protocols.base import Event, Response, StepOutput
from regsim.protocols.readers import RelayReaderState, quorum_extreme, relay_reader_step
from regsim.quorum import QuorumSystem

def _respond_max_acks(state: RelayReaderState, out: StepOutput, qs: QuorumSystem, qi: int) -> None:
    m = quorum_extreme(state.ra, qs.masks[qi], smallest=False)
    state.mode = "idle"
    out.response = Response(m.value, m.tag)


def broken_reader_step(state: RelayReaderState, event: Event, qs: QuorumSystem) -> StepOutput:
    return relay_reader_step(state, event, qs, erato._analyze, on_acks=_respond_max_acks)


def broken_server_step(state: base.ServerState, event: Event, qs: QuorumSystem) -> StepOutput:
    assert isinstance(event, Message)
    if event.kind != MessageKind.READ_RELAY:
        return base.relay_server_step(state, event, qs)
    out = StepOutput()
    base.adopt(state, event, out)
    r, ro = event.client, event.op_seq
    if state.operations.get(r, 0) < ro:
        state.operations[r] = ro
        state.relays[r] = 0
    if state.operations[r] == ro:
        state.relays[r] |= 1 << event.sender
        if state.acked.get(r, 0) < ro:  # no relay-quorum wait
            state.acked[r] = ro
            out.sends.append((r, Message(MessageKind.READ_ACK, state.pid, r, ro, state.tag, state.value)))
    return out
