"""Single-writer register with quorum-view fast reads.

Writes broadcast the next timestamp and finish on one acknowledgement
quorum.  Reads broadcast a request; every server relays its pair to the
other servers and to the reader, and acknowledges the reader once it has
seen relays from a full quorum.  The reader decides from the first relay
quorum's tag distribution (_analyze): uniform (VIEW1, a complete write)
answers on that relay delivery, a provably incomplete maximum (VIEW2)
answers there with the preceding timestamp if a quorum member still
holds it, and otherwise the read waits for the acknowledgement round's
minimum, one hop later.  The analyser only returns that decision;
readers.relay_reader_step applies it.  The simulator counts the
exchanges each answer took (see netsim).
"""

from __future__ import annotations

from typing import Mapping, Optional

from regsim.core import Message
from regsim.protocols.base import Event, StepOutput
from regsim.protocols.readers import RelayReaderState, relay_reader_step
from regsim.quorum import QuorumSystem, bits
from regsim.views import ViewClass, classify


def _analyze(qs: QuorumSystem, msgs: Mapping[int, Message], qmask: int) -> Optional[Message]:
    """The relay quorum's answer, or None to await the acknowledgement quorum."""
    cls, top = classify(qs, msgs, qmask)
    if cls is ViewClass.VIEW1:
        return top
    if cls is ViewClass.VIEW2:
        # The max write is provably incomplete; answer with the preceding
        # timestamp if some quorum member still reports it.
        return next((msgs[b] for b in bits(qmask) if msgs[b].tag.ts == top.tag.ts - 1), None)
    return None


def erato_reader_step(state: RelayReaderState, event: Event, qs: QuorumSystem) -> StepOutput:
    return relay_reader_step(state, event, qs, _analyze)
