"""Relay-synchronised baseline without the fast path.

Servers relay read requests among themselves only (never to the reader)
and acknowledge after a full relay quorum; the reader always waits for an
acknowledgement quorum and returns its minimum tag, so every read costs
exactly 3 exchanges.  Writes are the corresponding query-free broadcast:
plain timestamp in single-writer mode, discover/put in multi-writer mode.
"""

from __future__ import annotations

from regsim.core import ProcessId
from regsim.protocols import base
from regsim.protocols.readers import RelayReaderState
from regsim.quorum import QuorumSystem


def make_reader(pid: ProcessId, qs: QuorumSystem) -> RelayReaderState:
    return RelayReaderState(pid)


def make_writer(pid: ProcessId, qs: QuorumSystem, mw: bool):
    return base.MWWriterState(pid) if mw else base.SWMRWriterState(pid)


def make_server(pid: ProcessId, qs: QuorumSystem, mw: bool) -> base.RelayServerState:
    return base.make_relay_server(pid, qs, mw=mw, relay_to_reader=False)
