"""Deliberately unsafe variant of the single-writer relay protocol.

Used only to show the atomicity checker is not vacuous.  It is erato's
own code with two faults.  Its servers run erato's relay server over
one-relay quorums (one_relay_quorums), in which every server alone is a
quorum, so a server acknowledges a read on the first relay it sees
instead of waiting for a full relay quorum.  Its reader answers the
acknowledgement round with the maximum tag instead of the minimum.
Without the relay-quorum wait an acknowledged tag carries no
completeness guarantee, so under enough delay variance two
non-overlapping reads can return inverted timestamps.

Never use this outside tests.
"""

from __future__ import annotations

from functools import cache

from regsim.protocols import base, erato
from regsim.protocols.base import Event, StepOutput
from regsim.protocols.readers import RelayReaderState, relay_reader_step
from regsim.quorum import QuorumSystem


@cache
def one_relay_quorums(n: int) -> QuorumSystem:
    """n singleton quorums, the 1-of-n system.  They do not intersect, which
    is the fault this variant models."""
    return QuorumSystem(n, k=1)


def broken_reader_step(state: RelayReaderState, event: Event, qs: QuorumSystem) -> StepOutput:
    return relay_reader_step(state, event, qs, erato._analyze, smallest_ack=False)


def broken_server_step(state: base.ServerState, event: Event, qs: QuorumSystem) -> StepOutput:
    return base.relay_server_step(state, event, one_relay_quorums(qs.n))
