"""Protocol registry: one row per protocol naming its reader state, its
three step functions and two flags.

mw selects the writer: the one-phase timestamp broadcast, or the
two-phase discover/put.  relay_to_reader says whether relaying servers
echo each relay to the reader as well as to the other servers.
Nothing here says how many op_seq numbers an operation uses: message
attribution reads that from the wire (see trace.replay_wire).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from regsim.protocols import abd, base, broken, erato, erato_mw
from regsim.protocols.base import Event, StepOutput
from regsim.protocols.readers import RelayReaderState, relay_reader_step
from regsim.quorum import QuorumSystem

StepFn = Callable[[object, Event, QuorumSystem], StepOutput]


@dataclass(frozen=True)
class Algorithm:
    name: str
    mw: bool
    reader_state: Callable[[int], object]
    reader_step: StepFn
    writer_step: StepFn
    server_step: StepFn
    relay_to_reader: bool

    def new_state(self, name: str, pid: int):
        """Initial state, under this protocol, of the node with this name
        ("r0", "w1", "s2") and id pid (a server's id is its index)."""
        role = name[0]
        if role == "r":
            return self.reader_state(pid)
        if role == "w":
            return base.QueryPutState(pid, int(name[1:]))
        return base.ServerState(pid, self.relay_to_reader)


ALGORITHMS: dict[str, Algorithm] = {
    "erato": Algorithm(
        "erato", False, RelayReaderState,
        erato.erato_reader_step, base.swmr_writer_step, base.relay_server_step, True,
    ),
    "erato_mw": Algorithm(
        "erato_mw", True, RelayReaderState,
        erato_mw.eratomw_reader_step, base.mw_writer_step, base.relay_server_step, True,
    ),
    "abd": Algorithm(
        "abd", False, base.QueryPutState,
        abd.query_reader_step, base.swmr_writer_step, base.plain_server_step, False,
    ),
    "abd_mw": Algorithm(
        "abd_mw", True, base.QueryPutState,
        abd.query_reader_step, base.mw_writer_step, base.plain_server_step, False,
    ),
    # Relay-synchronised baselines without the fast path: servers relay
    # among themselves only and the reader always waits for the
    # acknowledgement quorum, one hop after the relays.
    "ohsam": Algorithm(
        "ohsam", False, RelayReaderState,
        relay_reader_step, base.swmr_writer_step, base.relay_server_step, False,
    ),
    "ohmam": Algorithm(
        "ohmam", True, RelayReaderState,
        relay_reader_step, base.mw_writer_step, base.relay_server_step, False,
    ),
}

# Known-unsafe variant for checker validation.  Configs may name it; it
# is listed apart so that loops over ALGORITHMS, such as the acceptance
# run matrices and config's list of choices, skip it.
EXTRA_ALGORITHMS: dict[str, Algorithm] = {
    "erato_broken": Algorithm(
        "erato_broken", False, RelayReaderState,
        broken.broken_reader_step, base.swmr_writer_step, broken.broken_server_step, True,
    ),
}


def get_algorithm(name: str) -> Algorithm:
    if name in ALGORITHMS:
        return ALGORITHMS[name]
    if name in EXTRA_ALGORITHMS:
        return EXTRA_ALGORITHMS[name]
    raise KeyError("unknown algorithm %r" % name)
