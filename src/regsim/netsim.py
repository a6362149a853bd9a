"""Deterministic discrete-event simulation of the message-passing network.

Topologies mirror a routed LAN: a chain of one router per server, with
either server i on router i (series) or every server on the first router
(star); clients attach round-robin across the routers.  Link parameters
are fixed: the backbone, client and per-kind server link constants below.
A message's delay is the sum over its path links of propagation plus
transmission (size/bandwidth), plus one uniform jitter draw; there is no
queueing.  Event order is (time, insertion sequence), the RNG is seeded
per run, and nodes perform no computation in simulated time, so a run is
a pure function of (workload, crash schedule, seed).

A node crashes at most once: a crash schedule naming a node twice raises
ValueError.  Crashed nodes process no event from their crash time on;
messages already in flight from them still deliver.  A crash scheduled
after the run ends is not part of the run: it writes no crs record, so
the node stays live and its pending operations count against liveness.
Self-addressed messages (a server relaying to itself) bypass the network
with a fixed one-microsecond local handoff so that delivery always
happens strictly after the send.

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
each node by network.names[id], one shared str per node.  Events at
equal times keep node order (readers, writers, servers, then index; see
core.node_key): crashes are queued first in that order, then the
invocations.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from regsim.config import ScenarioConfig
from regsim.core import OperationRecord, Tag, node_key, reader, server, writer
from regsim.protocols import Algorithm, Invoke
from regsim.quorum import QuorumSystem

MBPS = 1e6
LOOPBACK_DELAY = 1e-6
DEFAULT_JITTER_MAX = ScenarioConfig.jitter_max
DEFAULT_CAP_S = ScenarioConfig.cap_seconds


@dataclass(frozen=True)
class LinkParams:
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
    + one jitter draw; the path must join two different nodes."""
    prop, per_bit = params
    d = prop + size_bits * per_bit
    if jitter_max > 0.0:
        d += rng.uniform(0.0, jitter_max)
    return d


@dataclass(frozen=True)
class WorkItem:
    time: float
    pid: str  # the invoking client's name
    kind: str  # "read" | "write"
    value: Optional[bytes] = None


# A client's role letter -> the operation kind its invocations run.
_CLIENT_KIND = {"r": "read", "w": "write"}


@dataclass
class Trace:
    """Everything observable about one run, in event order.  add is the
    only writer of crash_at, stale_drops, skipped_invokes, incomplete and
    end_time: they hold what the crs and end records say, so a simulated
    trace equals the trace parsed from its text, and live(pid) means the
    node did not crash during the run."""

    algorithm: str = ""
    seed: int = 0
    records: list[tuple] = field(default_factory=list)
    ops: dict[int, OperationRecord] = field(default_factory=dict)
    crash_at: dict[str, float] = field(default_factory=dict)
    stale_drops: int = 0
    skipped_invokes: int = 0
    incomplete: bool = False
    end_time: float = 0.0
    config: Optional[ScenarioConfig] = None  # the scenario, when run from one
    _ended: bool = field(default=False, init=False, repr=False)

    def add(self, rec: tuple) -> None:
        """Append one record; inv/res/wtag/crs/end records also update the
        operation index and run status.  A record that contradicts the
        index raises ValueError: a second inv or res for one op id, a res
        or wtag with no earlier inv, a res or wtag from another process
        than the invoker or timed before its inv, a wtag for a read, a
        second crs for one node and a second end.  So do an inv by a
        server, an inv whose operation kind is neither read nor write,
        one whose kind is not its client's (a reader reads, a writer
        writes), a write whose value is not hex, a read with a value
        other than "-", and an end whose status is neither complete nor
        incomplete."""
        self.records.append(rec)
        kind = rec[0]
        if kind == "inv":
            _, t, pid, op_id, op_kind, value_hex = rec
            if op_id in self.ops:
                raise ValueError("second inv for op %s" % op_id)
            if op_kind not in ("read", "write"):
                raise ValueError("inv for op %s: unknown operation kind %r" % (op_id, op_kind))
            if pid.startswith("s"):
                raise ValueError("inv for op %s from server %s" % (op_id, pid))
            if op_kind != _CLIENT_KIND[pid[0]]:
                raise ValueError("inv for op %s: %s runs %ss, not %ss"
                                 % (op_id, pid, _CLIENT_KIND[pid[0]], op_kind))
            if (value_hex == "-") != (op_kind == "read"):
                raise ValueError("inv for op %s: a %s's value must be %s, got %r"
                                 % (op_id, op_kind, "'-'" if op_kind == "read" else "hex", value_hex))
            value = bytes.fromhex(value_hex) if value_hex != "-" else None
            self.ops[op_id] = OperationRecord(op_id, pid, op_kind, t, value=value)
        elif kind == "res":
            _, t, pid, op_id, exchanges, ts, wid, value_hex = rec
            op = self.ops.get(op_id)
            if op is None:
                raise ValueError("res for op %s with no earlier inv" % op_id)
            if op.responded_at is not None:
                raise ValueError("second res for op %s" % op_id)
            if pid != op.process:
                raise ValueError(
                    "res for op %s from %s, but %s invoked it" % (op_id, pid, op.process)
                )
            if t < op.invoked_at:
                raise ValueError(
                    "res for op %s at %s precedes its inv at %s" % (op_id, t, op.invoked_at)
                )
            op.responded_at = t
            op.exchanges = exchanges
            op.tag = Tag(ts, wid)
            op.value = bytes.fromhex(value_hex)
        elif kind == "wtag":
            _, t, pid, op_id, ts, wid = rec
            op = self.ops.get(op_id)
            if op is None:
                raise ValueError("wtag for op %s with no earlier inv" % op_id)
            if pid != op.process:
                raise ValueError(
                    "wtag for op %s from %s, but %s invoked it" % (op_id, pid, op.process)
                )
            if t < op.invoked_at:
                raise ValueError(
                    "wtag for op %s at %s precedes its inv at %s" % (op_id, t, op.invoked_at)
                )
            if op.kind != "write":
                raise ValueError("wtag for op %s, which is a %s" % (op_id, op.kind))
            op.tag = Tag(ts, wid)
        elif kind == "crs":
            _, t, pid = rec
            if pid in self.crash_at:
                raise ValueError("second crs for %s" % pid)
            self.crash_at[pid] = t
        elif kind == "end":
            if self._ended:
                raise ValueError("second end record")
            _, self.end_time, status, self.stale_drops, self.skipped_invokes = rec
            if status not in ("complete", "incomplete"):
                raise ValueError("end status %r is neither complete nor incomplete" % status)
            self._ended = True
            self.incomplete = status == "incomplete"

    def live(self, pid: str) -> bool:
        return pid not in self.crash_at

    def operations(self) -> list[OperationRecord]:
        return [self.ops[k] for k in sorted(self.ops)]


def run(
    network: Network,
    algorithm: Algorithm,
    qs: QuorumSystem,
    workload: Sequence[WorkItem],
    crash_schedule: Sequence[tuple[str, float]] = (),
    seed: int = 0,
    cap_s: float = DEFAULT_CAP_S,
) -> Trace:
    rng = random.Random("%d:net" % seed)
    trace = Trace(algorithm=algorithm.name, seed=seed)
    records = trace.records
    # Inside the loop a node is its id; records and the operation index
    # name it by names[id], one shared str per node.
    names = network.names
    node_id = names.index
    steps = {"r": algorithm.reader_step, "w": algorithm.writer_step, "s": algorithm.server_step}
    states = [algorithm.new_state(name, pid, qs) for pid, name in enumerate(names)]
    step_of = [steps[name[0]] for name in names]
    paths = network.path_params()
    jitter_max = network.jitter_max
    crashed_at = [math.inf] * len(names)
    for name, t in crash_schedule:
        pid = node_id(name)
        if crashed_at[pid] != math.inf:
            raise ValueError("crash schedule names %s twice" % name)
        crashed_at[pid] = t

    heap: list[tuple] = []
    seq = 0

    def push(t: float, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, payload))
        seq += 1

    for pid in sorted(range(len(names)), key=lambda pid: node_key(names[pid])):
        if crashed_at[pid] < math.inf:
            push(crashed_at[pid], "crash", pid)
    for item in sorted(workload, key=lambda w: (w.time, node_key(w.pid))):
        push(item.time, "invoke", (node_id(item.pid), item))

    current_op: list[Optional[int]] = [None] * len(names)
    # op_seq of each client's latest send of its own; servers stay at 0.
    # A client advances its counter (read_op, ts, write_op) and sends
    # with the new value in the same step, so a delivery below it belongs
    # to an earlier phase or operation: exactly what the step ignores.
    own_seq = [0] * len(names)
    next_op = 1
    stale_drops = skipped_invokes = 0

    def handle_output(pid: int, t: float, out, exchange: int, op: int) -> None:
        """Record a step's decisions; exchange and op are those of the
        event that triggered it, exchange 0 and the opened op for an
        invocation."""
        op_id = current_op[pid]
        name = names[pid]
        if out.wtag is not None:
            trace.add(("wtag", t, name, op_id, out.wtag.ts, out.wtag.wid))
        if out.adopted is not None:
            records.append(("tag", t, name, out.adopted.ts, out.adopted.wid))
        sends = out.sends
        if sends:
            trace.ops[op].messages += len(sends)
            last = sends[-1][1]
            if last.client == pid:
                own_seq[pid] = last.op_seq
            row = paths[pid]
            for dst, msg in sends:
                if dst == pid:
                    delay = LOOPBACK_DELAY
                else:
                    delay = message_delay(row[dst], msg.size_bits(), jitter_max, rng)
                arrive = t + delay
                records.append(
                    ("snd", t, name, names[dst], msg.kind, names[msg.client], msg.op_seq, arrive)
                )
                push(arrive, "deliver", (dst, msg, exchange + 1, op))
        res = out.response
        if res is not None:
            current_op[pid] = None
            trace.add(("res", t, name, op_id, exchange, res.tag.ts, res.tag.wid, res.value.hex()))

    last_t = 0.0
    while heap:
        if heap[0][0] > cap_s:
            break
        t, _, kind, payload = heapq.heappop(heap)
        last_t = t
        if kind == "crash":
            trace.add(("crs", t, names[payload]))
            continue
        if kind == "invoke":
            pid, item = payload
            if crashed_at[pid] <= t:
                continue
            if current_op[pid] is not None:
                skipped_invokes += 1
                continue
            # Writes carry their intended value from invocation on, so a
            # crashed write still shows what it was writing.
            value = item.value if item.kind == "write" else None
            trace.add(("inv", t, names[pid], next_op, item.kind, value.hex() if value is not None else "-"))
            op = current_op[pid] = next_op
            next_op += 1
            handle_output(pid, t, step_of[pid](states[pid], Invoke(value), qs), 0, op)
            continue
        dst, msg, exchange, op = payload
        if crashed_at[dst] <= t:
            continue
        records.append(("dlv", t, names[dst], names[msg.sender], msg.kind, names[msg.client], msg.op_seq))
        if msg.op_seq < own_seq[dst]:
            stale_drops += 1
        handle_output(dst, t, step_of[dst](states[dst], msg, qs), exchange, op)

    end_time = min(last_t, cap_s) if not heap else cap_s
    pending_live = any(
        op.responded_at is None and trace.live(op.process) for op in trace.ops.values()
    )
    unreached = [e for e in heap if e[2] == "invoke" and crashed_at[e[3][0]] > e[0]]
    incomplete = pending_live or bool(unreached)
    trace.add(("end", end_time, "incomplete" if incomplete else "complete",
               stale_drops, skipped_invokes))
    return trace
