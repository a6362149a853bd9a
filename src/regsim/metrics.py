"""Per-operation and aggregate statistics over simulator traces.

netsim.run counts each operation's messages and exchanges while it runs,
and per_operation_stats reads those counts from the operation records.
A parsed trace's res records carry the exchanges; its message counts
come from trace.replay_wire, which recounts them from the wire.
OpStats and Summary are named tuples, so each compares equal to the
plain tuple of its fields.
"""

from __future__ import annotations

import math
import statistics
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    from regsim.trace import Trace


class OpStats(NamedTuple):
    algorithm: str
    op_id: int
    process: str  # node name
    kind: str  # "read" | "write"
    invoked_at: float
    latency_s: float
    exchanges: int
    messages: int


class Summary(NamedTuple):
    algorithm: str
    op_kind: str
    count: int
    mean_latency: float
    median_latency: float
    p95_latency: float
    max_latency: float
    exchange_histogram: dict[int, int]
    fast_read_ratio: Optional[float]  # reads only: fraction completing in 2 exchanges


def per_operation_stats(trace: Trace) -> list[OpStats]:
    """Completed operations only, in op_id order, with the message counts
    the simulator took (a parsed trace needs trace.replay_wire first)."""
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
