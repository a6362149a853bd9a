"""Protocol registry: name -> (state factories, step functions, metadata).

read_phases/write_phases say how many op_seq increments one client
operation consumes (two-phase reads and writes burn two), which is what
maps message op_seq values back to operations for attribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from regsim.core import ProcessId
from regsim.protocols import abd, base, broken, erato, erato_mw, ohsam
from regsim.protocols.base import Deliver, Event, Invoke, Response, StepOutput
from regsim.protocols.readers import relay_reader_step
from regsim.quorum import QuorumSystem

StepFn = Callable[[object, Event, QuorumSystem], StepOutput]
MakeFn = Callable[[ProcessId, QuorumSystem], object]


@dataclass(frozen=True)
class Algorithm:
    name: str
    mw: bool
    read_phases: int
    write_phases: int
    make_reader: MakeFn
    make_writer: MakeFn
    make_server: MakeFn
    reader_step: StepFn
    writer_step: StepFn
    server_step: StepFn


ALGORITHMS: dict[str, Algorithm] = {
    "erato": Algorithm(
        "erato", False, 1, 1,
        erato.make_reader, erato.make_writer, erato.make_server,
        erato.erato_reader_step, base.swmr_writer_step, base.relay_server_step,
    ),
    "erato_mw": Algorithm(
        "erato_mw", True, 1, 2,
        erato_mw.make_reader, erato_mw.make_writer, erato_mw.make_server,
        erato_mw.eratomw_reader_step, base.mw_writer_step, base.relay_server_step,
    ),
    "abd": Algorithm(
        "abd", False, 2, 1,
        abd.make_reader,
        lambda pid, qs: abd.make_writer(pid, qs, mw=False),
        lambda pid, qs: abd.make_server(pid, qs, mw=False),
        abd.query_reader_step, base.swmr_writer_step, base.plain_server_step,
    ),
    "abd_mw": Algorithm(
        "abd_mw", True, 2, 2,
        abd.make_reader,
        lambda pid, qs: abd.make_writer(pid, qs, mw=True),
        lambda pid, qs: abd.make_server(pid, qs, mw=True),
        abd.query_reader_step, base.mw_writer_step, base.plain_server_step,
    ),
    "ohsam": Algorithm(
        "ohsam", False, 1, 1,
        ohsam.make_reader,
        lambda pid, qs: ohsam.make_writer(pid, qs, mw=False),
        lambda pid, qs: ohsam.make_server(pid, qs, mw=False),
        relay_reader_step, base.swmr_writer_step, base.relay_server_step,
    ),
    "ohmam": Algorithm(
        "ohmam", True, 1, 2,
        ohsam.make_reader,
        lambda pid, qs: ohsam.make_writer(pid, qs, mw=True),
        lambda pid, qs: ohsam.make_server(pid, qs, mw=True),
        relay_reader_step, base.mw_writer_step, base.relay_server_step,
    ),
}

# Known-unsafe variant for checker validation; excluded from config parsing.
EXTRA_ALGORITHMS: dict[str, Algorithm] = {
    "erato_broken": Algorithm(
        "erato_broken", False, 1, 1,
        broken.make_reader, broken.make_writer, broken.make_server,
        broken.broken_reader_step, base.swmr_writer_step, broken.broken_server_step,
    ),
}


def get_algorithm(name: str) -> Algorithm:
    if name in ALGORITHMS:
        return ALGORITHMS[name]
    if name in EXTRA_ALGORITHMS:
        return EXTRA_ALGORITHMS[name]
    raise KeyError("unknown algorithm %r" % name)


__all__ = [
    "ALGORITHMS",
    "EXTRA_ALGORITHMS",
    "Algorithm",
    "Deliver",
    "Event",
    "Invoke",
    "Response",
    "StepOutput",
    "get_algorithm",
]
