"""Query/write-back register baseline.

Reads always take two round trips: query every server for its pair, pick
the quorum maximum, write it back to every server and answer on the
second acknowledgement quorum (no fast path; the simulator counts the
exchanges, see netsim).  An abd read is a query followed by a
write-back put, the same machine as a multi-writer write
(base.query_put_step) under the read message kinds: the write-back
reuses the relay message kind with the reader as sender, and the put
takes the query quorum's greatest pair as it is.  Writes are the plain
timestamp broadcast in single-writer mode and the two-phase
discover/put in multi-writer mode.
"""

from __future__ import annotations

from typing import Optional

from regsim.core import Message, MessageKind, Tag
from regsim.protocols.base import Event, Kinds, QueryPutState, StepOutput, query_put_step
from regsim.quorum import QuorumSystem

READ_KINDS: Kinds = (MessageKind.READ_REQUEST, MessageKind.READ_ACK,
                     MessageKind.READ_RELAY, MessageKind.READ_ACK)


def _put_back(state: QueryPutState, top: Message) -> tuple[Tag, Optional[bytes]]:
    """A read puts back the query quorum's greatest pair."""
    return top.tag, top.value


def query_reader_step(state: QueryPutState, event: Event, qs: QuorumSystem) -> StepOutput:
    return query_put_step(state, event, qs, READ_KINDS, _put_back)
