"""Per-operation and aggregate statistics over simulator traces.

Message attribution is read from the wire: every send carries the
originating client and that client's operation sequence number (op_seq).
A client sends only while one of its operations runs, so the first send
of a (client, op_seq) pair comes from the client itself and names the
operation; every later send with that pair, a server's relay or ack
included, belongs to the same operation.  No phase count is needed:
however many numbers an operation burns, each one is introduced by the
client's own send.  Every send must attribute to exactly one operation
of the message's kind; anything else is an accounting bug worth crashing
on.

A run does not need attribution: netsim.run counts each operation's
messages, each response's exchanges and the stale drops while it runs,
and per_operation_stats reads those counts.  attribute_messages
re-derives all three from the records alone, in one pass.  `regsim
check` uses it (see harness.verify_trace) to hold a parsed trace to the
numbers its own wire shows, and the tests use it as the oracle for the
simulator's counts.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from dataclasses import dataclass
from typing import Optional

from regsim.netsim import Trace


@dataclass(frozen=True)
class OpStats:
    algorithm: str
    op_id: int
    process: str  # node name
    kind: str  # "read" | "write"
    invoked_at: float
    latency_s: float
    exchanges: int
    messages: int


@dataclass(frozen=True)
class Summary:
    algorithm: str
    op_kind: str
    count: int
    mean_latency: float
    median_latency: float
    p95_latency: float
    max_latency: float
    exchange_histogram: dict[int, int]
    fast_read_ratio: Optional[float]  # reads only: fraction completing in 2 exchanges


def attribute_messages(trace: Trace) -> dict[int, int]:
    """Map op_id -> number of messages sent on behalf of that operation,
    and recount the wire's other two numbers.

    Counts every send in the trace, including server-to-server relays and
    self-addressed ones, against the client operation that triggered it.
    Updates the per-operation records in place as well.

    The same pass recounts exchanges and stale drops as netsim.run takes
    them: a node's current exchange is 0 at its inv and that of the snd
    its dlv takes up (matched first in, first out on sender, receiver,
    kind, client, op_seq and arrival = dlv time); each snd is its
    sender's current exchange + 1, and a res takes its node's current
    exchange.  A client's dlv is stale when its op_seq is below that of
    the client's latest snd.  A res or end record that claims other
    numbers raises ValueError.
    """
    counts: dict[int, int] = {op_id: 0 for op_id in trace.ops}
    running: dict[str, int] = {}  # client name -> op it last invoked
    op_of: dict[tuple[str, int], int] = {}  # (client name, op_seq) -> op
    exchange_of: dict[str, int] = {}  # node name -> its current exchange
    in_flight: dict[tuple, deque] = {}  # snd fields -> exchanges of the undelivered
    own_seq: dict[str, int] = {}  # client name -> op_seq of its latest snd
    stale = 0
    for rec in trace.records:
        kind = rec[0]
        if kind == "inv":
            running[rec[2]] = rec[3]
            exchange_of[rec[2]] = 0
        elif kind == "snd":
            _, _, src, _dst, msg_kind, client, op_seq, _arrive = rec
            key = (client, op_seq)
            op_id = op_of.get(key)
            if op_id is None:
                op_id = running.get(client)
                if op_id is None or src != client:
                    raise ValueError(
                        "send %s for client %s op_seq %d does not attribute to any operation"
                        % (msg_kind, client, op_seq)
                    )
                op_of[key] = op_id
            expect = "read" if msg_kind.startswith("read") else "write"
            if trace.ops[op_id].kind != expect:
                raise ValueError(
                    "send %s attributed to a %s operation" % (msg_kind, trace.ops[op_id].kind)
                )
            counts[op_id] += 1
            in_flight.setdefault(rec[2:], deque()).append(exchange_of.get(src, 0) + 1)
            if src == client:
                own_seq[src] = op_seq
        elif kind == "dlv":
            _, t, dst, src, msg_kind, client, op_seq = rec
            exchange_of[dst] = in_flight[(src, dst, msg_kind, client, op_seq, t)].popleft()
            if op_seq < own_seq.get(dst, 0):
                stale += 1
        elif kind == "res":
            _, t, pid, op_id, exchanges = rec[:5]
            if exchanges != exchange_of[pid]:
                raise ValueError("res for op %d at %r claims %d exchanges, the wire shows %d"
                                 % (op_id, t, exchanges, exchange_of[pid]))
        elif kind == "end" and rec[3] != stale:
            raise ValueError("end claims %d stale drops, the wire shows %d" % (rec[3], stale))
    for op_id, n in counts.items():
        trace.ops[op_id].messages = n
    return counts


def per_operation_stats(trace: Trace) -> list[OpStats]:
    """Completed operations only, in op_id order, with the message counts
    the simulator took (a parsed trace needs attribute_messages first)."""
    out = []
    for op_id in sorted(trace.ops):
        op = trace.ops[op_id]
        if not op.completed:
            continue
        out.append(OpStats(
            algorithm=trace.algorithm,
            op_id=op.op_id,
            process=op.process,
            kind=op.kind,
            invoked_at=op.invoked_at,
            latency_s=op.responded_at - op.invoked_at,
            exchanges=op.exchanges,
            messages=op.messages,
        ))
    return out


def percentile_nearest_rank(values: list[float], q: float) -> float:
    assert values and 0.0 < q <= 1.0
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def summarize(stats: list[OpStats]) -> list[Summary]:
    groups: dict[tuple[str, str], list[OpStats]] = {}
    for s in stats:
        groups.setdefault((s.algorithm, s.kind), []).append(s)
    out = []
    for (alg, kind), group in sorted(groups.items()):
        lat = [s.latency_s for s in group]
        hist: dict[int, int] = {}
        for s in group:
            hist[s.exchanges] = hist.get(s.exchanges, 0) + 1
        out.append(Summary(
            algorithm=alg,
            op_kind=kind,
            count=len(group),
            mean_latency=statistics.fmean(lat),
            median_latency=statistics.median(lat),
            p95_latency=percentile_nearest_rank(lat, 0.95),
            max_latency=max(lat),
            exchange_histogram=hist,
            fast_read_ratio=(
                sum(1 for s in group if s.exchanges == 2) / len(group)
                if kind == "read" else None
            ),
        ))
    return out
