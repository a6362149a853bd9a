"""Deterministic discrete-event simulation of the message-passing network.
run writes what the run does into a trace.Trace, in event order.

Topologies mirror a routed LAN: a chain of one router per server, with
either server i on router i (series) or every server on the first router
(star); clients attach round-robin across the routers.  Link parameters
are fixed: the backbone, client and per-kind server link constants below.
A message's delay is the sum over its path links of propagation plus
transmission (size/bandwidth), plus one uniform jitter draw; there is no
queueing.  Event order is (time, insertion sequence), the RNG is seeded
per run, and nodes perform no computation in simulated time, so a run is
a pure function of (workload, crash schedule, seed).
LinkParams and WorkItem are named tuples, so each compares equal to the
plain tuple of its fields.

Before the first event run refuses, by a ValueError naming its time and
node, a crash or WorkItem not timed in [0, inf) or naming a node the
network lacks, a node's second crash, a server's WorkItem, a reader's
WorkItem with a value and a writer's without one.  An invocation's kind
is its client's role (core.CLIENT_KIND).  Crashed nodes process no event
from their crash time on; messages already in flight from them still
deliver.  A crash scheduled after the run ends is not part of the run:
it writes no crs record, so the node stays live and its pending
operations count against liveness.  Self-addressed messages (a server
relaying to itself) bypass the network with a fixed one-microsecond
local handoff so that delivery always happens strictly after the send.

The simulator, not the protocols, counts three things on the wire.  An
exchange is one message hop along the chain that started at an
invocation: sends made on an invocation are exchange 1, sends made on a
delivery of exchange k are exchange k+1 (a server's loopback relay
included), and a response takes the exchange of the delivery that
triggered it.  A delivery to a live client is a stale drop when its
op_seq is below that of the client's latest send of its own.  An
operation's messages are every send along its chain: each delivery
event carries the op id next to its exchange number, sends made on an
invocation belong to the operation it opens, and sends made on a
delivery to the delivered message's operation, however late they come.

Inside run a node is its dense id (see core): the states, step
functions, running operations and crash times are lists indexed by it,
and the path parameters a 2-D list built once per run.  The trace names
each node by network.names[id], one shared str per node.

run keeps two event sets.  The schedule holds the events known before
the run, built once: the crashes in node order (readers, writers,
servers, then index; see core.node_key), then the invocations by (time,
node), stably sorted by time; it is consumed from the front.  The heap
holds only the deliveries of the messages in flight, ordered by
(arrival, send order).  The next event is the schedule's head when its
time is at most the heap's head time: every scheduled event is known
before any message is sent, so it goes first at equal times.  A run
ends at the first event past the cap, at the cap, or when both sets are
empty, at the last taken event's time.

A step's output goes through one block at the end of the loop body, for
a delivery and an invocation alike: the adopted tag, the wtag, the sends
of its message and the response, in that order.  A write's wtag is the
tag of its WRITE_REQUEST, which only writers send.  A delivery whose
step returns protocols.base.NOTHING, the one output that decides
nothing, skips that block; an empty output that is not NOTHING takes it
and records nothing.

A step sends at most one message, to any number of nodes: its output,
the plain tuple (message, to, response, adopted) that the loop unpacks
by position, names the Message once beside the ids it goes to (see
protocols.base).
The message's kind, names, op_seq and size are read once per output,
and only the delay, the destination and the two records are per send.
Each send's heap entry carries the delivery's dlv record, built at send
time with the very arrival float of its snd record; a delivery to a
live node appends it, one to a crashed node appends nothing.
message_delay, looked up per send, is the one delay function of every
send but a loopback.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from regsim.config import ScenarioConfig
from regsim.core import CLIENT_KIND, MessageKind, node_key, reader, server, writer
from regsim.protocols import Algorithm
from regsim.protocols.base import NOTHING, Invoke
from regsim.quorum import QuorumSystem
from regsim.trace import Trace

MBPS = 1e6
LOOPBACK_DELAY = 1e-6
DEFAULT_JITTER_MAX = ScenarioConfig.jitter_max
DEFAULT_CAP_S = ScenarioConfig.cap_seconds


class LinkParams(NamedTuple):
    bw_bps: float
    prop_s: float


ROUTER_LINK = LinkParams(10 * MBPS, 0.006)
CLIENT_LINK = LinkParams(5 * MBPS, 0.004)
SERIES_SERVER_LINK = LinkParams(10 * MBPS, 0.002)
STAR_SERVER_LINK = LinkParams(50 * MBPS, 0.002)


@dataclass
class Network:
    """The LAN's nodes by id (see core): node id's name, router and access
    link are names[id], router_of[id] and access[id]."""

    names: list[str]
    router_of: list[int]
    access: list[LinkParams]
    jitter_max: float = DEFAULT_JITTER_MAX

    def router_hops(self, a: int, b: int) -> int:
        return abs(self.router_of[a] - self.router_of[b])

    def path_params(self) -> list[list[tuple[float, float]]]:
        """params[src][dst]: (total propagation seconds, total
        seconds-per-bit) of the path from node src to node dst."""
        table = []
        for src, sa in enumerate(self.access):
            row = []
            for dst, da in enumerate(self.access):
                hops = self.router_hops(src, dst)
                prop = sa.prop_s + da.prop_s + hops * ROUTER_LINK.prop_s
                per_bit = 1.0 / sa.bw_bps + 1.0 / da.bw_bps + hops / ROUTER_LINK.bw_bps
                row.append((prop, per_bit))
            table.append(row)
        return table


def build_topology(kind: str, n_servers: int, n_readers: int, n_writers: int) -> Network:
    """Place the nodes of a "series" or "star" LAN on its chain of routers."""
    if n_servers < 1:
        raise ValueError("need at least one server")
    if kind == "series":
        server_routers, server_link = list(range(n_servers)), SERIES_SERVER_LINK
    elif kind == "star":
        server_routers, server_link = [0] * n_servers, STAR_SERVER_LINK
    else:
        raise ValueError("unknown topology kind %r" % kind)
    n_clients = n_readers + n_writers
    names = [server(i) for i in range(n_servers)]
    names += [reader(i) for i in range(n_readers)] + [writer(i) for i in range(n_writers)]
    router_of = server_routers + [ordinal % n_servers for ordinal in range(n_clients)]
    access = [server_link] * n_servers + [CLIENT_LINK] * n_clients
    return Network(names, router_of, access)


def message_delay(
    params: tuple[float, float], size_bits: int, jitter_max: float, rng: random.Random
) -> float:
    """Propagation + transmission over one path (see Network.path_params)
    + jitter; the path must join two different nodes.  The jitter is
    jitter_max * rng.random(), one draw, bit for bit rng.uniform(0.0,
    jitter_max); with jitter_max 0 there is no draw.  run calls this once
    per send that is not a loopback."""
    prop, per_bit = params
    d = prop + size_bits * per_bit
    if jitter_max > 0.0:
        d += jitter_max * rng.random()
    return d


class WorkItem(NamedTuple):
    time: float
    pid: str  # the invoking client's name; its role fixes the operation's kind
    value: Optional[bytes] = None  # a write's payload


def _node_at(what: str, t: float, name: str, node_id: dict[str, int]) -> int:
    """The id of the node a crash or work item at time t names, refusing
    a time outside [0, inf) and a name the network lacks."""
    if not 0 <= t < math.inf:
        raise ValueError("%s at %r names %s: its time is not in [0, inf)" % (what, t, name))
    if name not in node_id:
        raise ValueError("%s at %r names %s, which the network lacks" % (what, t, name))
    return node_id[name]


def run(
    network: Network,
    algorithm: Algorithm,
    qs: QuorumSystem,
    workload: Sequence[WorkItem],
    crash_schedule: Sequence[tuple[str, float]] = (),
    seed: int = 0,
    cap_s: float = DEFAULT_CAP_S,
) -> Trace:
    if not 0 <= cap_s:  # nan is past no event: the run would have no cap
        raise ValueError("cap_s %r is not in [0, inf]" % cap_s)
    rng = random.Random("%d:net" % seed)
    trace = Trace(algorithm=algorithm.name, seed=seed)
    records = trace.records
    # Inside the loop a node is its id; records and the operation index
    # name it by names[id], one shared str per node.
    names = network.names
    node_id = {name: pid for pid, name in enumerate(names)}
    steps = {"r": algorithm.reader_step, "w": algorithm.writer_step, "s": algorithm.server_step}
    states = [algorithm.new_state(name, pid) for pid, name in enumerate(names)]
    step_of = [steps[name[0]] for name in names]
    paths = network.path_params()
    jitter_max = network.jitter_max
    crashed_at = [math.inf] * len(names)
    for name, t in crash_schedule:
        pid = _node_at("crash", t, name, node_id)
        if crashed_at[pid] != math.inf:
            raise ValueError("crash schedule names %s twice" % name)
        crashed_at[pid] = t

    for t, name, value in workload:
        _node_at("work item", t, name, node_id)
        kind = CLIENT_KIND.get(name[0])
        if kind is None:
            raise ValueError("work item at %r names %s, not a client" % (t, name))
        if kind == "read" and value is not None:
            raise ValueError("work item at %r names %s, a reader, with a value" % (t, name))
        if kind == "write" and value is None:
            raise ValueError("work item at %r names %s, a writer, without a value" % (t, name))
    # The schedule, (time, pid, item), reversed so that its front is its
    # last entry and a pop frees what it consumes.  item is the
    # invocation's WorkItem, or None for a crash.
    schedule = [(crashed_at[pid], pid, None)
                for pid in sorted(range(len(names)), key=lambda pid: node_key(names[pid]))
                if crashed_at[pid] < math.inf]
    schedule += [(item.time, node_id[item.pid], item)
                 for item in sorted(workload, key=lambda w: (w.time, node_key(w.pid)))]
    schedule.sort(key=lambda e: e[0])
    schedule.reverse()
    due = schedule[-1][0] if schedule else math.inf  # the schedule head's time
    # Heap entries: (arrival, tick, dst, msg, exchange, op, dlv).  tick
    # is the send order, so no two entries tie and the fields after it
    # are never compared.  msg is delivered to node dst, with its
    # exchange number, its op and its dlv record, built at send time.
    heap: list[tuple] = []
    heappush, heappop = heapq.heappush, heapq.heappop
    tick = itertools.count()

    current_op: list[Optional[int]] = [None] * len(names)
    # op_seq of each client's latest send of its own; servers stay at 0.
    # A client advances its counter (read_op, op_seq) and sends
    # with the new value in the same step, so a delivery below it belongs
    # to an earlier phase or operation: exactly what the step ignores.
    own_seq = [0] * len(names)
    next_op = 1
    stale_drops = skipped_invokes = 0

    t = 0.0
    while heap or schedule:
        if heap and heap[0][0] < due:
            if heap[0][0] > cap_s:
                break
            t, _, pid, msg, exchange, op, dlv = heappop(heap)
            if crashed_at[pid] <= t:
                continue
            records.append(dlv)
            if msg.op_seq < own_seq[pid]:
                stale_drops += 1
            out = step_of[pid](states[pid], msg, qs)
            if out is NOTHING:
                continue
        else:
            if due > cap_s:
                break
            t, pid, item = schedule.pop()
            due = schedule[-1][0] if schedule else math.inf
            if item is None:
                trace.add(("crs", t, names[pid]))
                continue
            if crashed_at[pid] <= t:
                continue
            if current_op[pid] is not None:
                skipped_invokes += 1
                continue
            # Writes carry their intended value from invocation on, so a
            # crashed write still shows what it was writing.
            kind, value = CLIENT_KIND[names[pid][0]], item.value
            trace.add(("inv", t, names[pid], next_op, kind, value.hex() if value is not None else "-"))
            op = current_op[pid] = next_op
            next_op += 1
            exchange = 0
            out = step_of[pid](states[pid], Invoke(value), qs)
        # Record the step's decisions.  exchange and op are those of the
        # event that triggered it: exchange 0 and the opened op for an
        # invocation.
        message, to, res, adopted = out
        name = names[pid]
        if adopted is not None:
            records.append(("tag", t, name, adopted.ts, adopted.wid))
        if message is not None:
            trace.ops[op].messages += len(to)
            msg_kind, op_seq, size = message.kind, message.op_seq, message.size_bits()
            if msg_kind == MessageKind.WRITE_REQUEST:
                trace.add(("wtag", t, name, current_op[pid], message.tag.ts, message.tag.wid))
            if message.client == pid:
                own_seq[pid] = op_seq
            client, sender = names[message.client], names[message.sender]
            row = paths[pid]
            hop = exchange + 1
            for dst in to:
                if dst == pid:
                    arrive = t + LOOPBACK_DELAY
                else:
                    arrive = t + message_delay(row[dst], size, jitter_max, rng)
                dst_name = names[dst]
                records.append(("snd", t, name, dst_name, msg_kind, client, op_seq, arrive))
                heappush(heap, (arrive, next(tick), dst, message, hop, op,
                                ("dlv", arrive, dst_name, sender, msg_kind, client, op_seq)))
        if res is not None:
            trace.add(("res", t, name, current_op[pid], exchange, res.tag.ts, res.tag.wid, res.value.hex()))
            current_op[pid] = None

    end_time = cap_s if heap or schedule else t
    pending_live = any(
        op.responded_at is None and trace.live(op.process) for op in trace.ops.values()
    )
    unreached = [e for e in schedule if e[2] is not None and crashed_at[e[1]] > e[0]]
    incomplete = pending_live or bool(unreached)
    trace.add(("end", end_time, "incomplete" if incomplete else "complete",
               stale_drops, skipped_invokes))
    return trace
