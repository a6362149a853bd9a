"""Multi-writer register with iterative quorum-view reads.

Writes discover the highest timestamp from a quorum, then place
(max+1, writer id) with a second round trip, and answer on its
acknowledgement quorum.  Reads reuse the relay scheme; a completed relay
quorum is analysed by views.iterative_analyze, which discards provably
incomplete maxima until a uniform remainder answers on that relay
delivery or ambiguity sends the read to the acknowledgement round.  The
simulator counts the exchanges each answer took (see netsim).
"""

from __future__ import annotations

from regsim.protocols.base import Event, StepOutput
from regsim.protocols.readers import RelayReaderState, relay_reader_step
from regsim.quorum import QuorumSystem
from regsim.views import iterative_analyze


def eratomw_reader_step(state: RelayReaderState, event: Event, qs: QuorumSystem) -> StepOutput:
    return relay_reader_step(state, event, qs, iterative_analyze)
