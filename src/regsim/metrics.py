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
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional

from regsim.core import ProcessId
from regsim.netsim import Trace


@dataclass(frozen=True)
class OpStats:
    algorithm: str
    op_id: int
    process: ProcessId
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
    """Map op_id -> number of messages sent on behalf of that operation.

    Counts every send in the trace, including server-to-server relays and
    self-addressed ones, against the client operation that triggered it.
    Updates the per-operation records in place as well.
    """
    counts: dict[int, int] = {op_id: 0 for op_id in trace.ops}
    running: dict[ProcessId, int] = {}  # client -> op it last invoked
    op_of: dict[tuple[ProcessId, int], int] = {}  # (client, op_seq) -> op
    for rec in trace.records:
        if rec[0] == "inv":
            running[rec[2]] = rec[3]
            continue
        if rec[0] != "snd":
            continue
        _, _, src, _dst, kind, client, op_seq = rec[:7]
        key = (client, op_seq)
        op_id = op_of.get(key)
        if op_id is None:
            op_id = running.get(client)
            if op_id is None or src != client:
                raise ValueError(
                    "send %s for client %s op_seq %d does not attribute to any operation"
                    % (kind, client, op_seq)
                )
            op_of[key] = op_id
        expect = "read" if kind.startswith("read") else "write"
        if trace.ops[op_id].kind != expect:
            raise ValueError(
                "send %s attributed to a %s operation" % (kind, trace.ops[op_id].kind)
            )
        counts[op_id] += 1
    for op_id, n in counts.items():
        trace.ops[op_id].messages = n
    return counts


def per_operation_stats(trace: Trace) -> list[OpStats]:
    """Completed operations only, in op_id order."""
    attribute_messages(trace)
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
