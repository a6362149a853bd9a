"""Single-writer register with quorum-view fast reads.

Writes broadcast the next timestamp and finish on one acknowledgement
quorum.  Reads broadcast a request; every server relays its pair to the
other servers and to the reader, and acknowledges the reader once it has
seen relays from a full quorum.  The reader decides from the first relay
quorum's tag distribution: uniform (complete write) answers on that relay
delivery, a provably incomplete maximum answers there with the preceding
timestamp, and only the ambiguous case waits for the acknowledgement
round's minimum, one hop later.  The simulator counts the exchanges each
answer took (see netsim).
"""

from __future__ import annotations

from regsim.protocols.base import Event, Response, StepOutput
from regsim.protocols.readers import RelayReaderState, relay_reader_step
from regsim.quorum import QuorumSystem, bits
from regsim.views import ViewClass, classify


def _analyze(state: RelayReaderState, out: StepOutput, qs: QuorumSystem, qi: int) -> None:
    qmask = qs.masks[qi]
    cls, top = classify(qs, state.rr, qmask)
    if cls is ViewClass.VIEW1:
        state.mode = "idle"
        out.response = Response(top.value, top.tag)
        return
    if cls is ViewClass.VIEW2:
        # The max write is provably incomplete; answer with the preceding
        # timestamp if some quorum member still reports it.
        for b in bits(qmask):
            m = state.rr[b]
            if m.tag.ts == top.tag.ts - 1:
                state.mode = "idle"
                out.response = Response(m.value, m.tag)
                return
    # VIEW2 with no holder of the preceding timestamp, or VIEW3: wait for
    # the acknowledgement quorum.
    state.mode = "await"


def erato_reader_step(state: RelayReaderState, event: Event, qs: QuorumSystem) -> StepOutput:
    return relay_reader_step(state, event, qs, _analyze)
