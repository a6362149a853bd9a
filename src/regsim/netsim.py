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

Crashed nodes process no event from their crash time on; messages already
in flight from them still deliver.  Self-addressed messages (a server
relaying to itself) bypass the network with a fixed one-microsecond local
handoff so that delivery always happens strictly after the send.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from regsim.core import OperationRecord, ProcessId, Role, Tag, reader, server, writer
from regsim.protocols import Algorithm, Invoke
from regsim.quorum import QuorumSystem

MBPS = 1e6
LOOPBACK_DELAY = 1e-6
DEFAULT_JITTER_MAX = 0.001
DEFAULT_CAP_S = 300.0


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
    router_of: dict[ProcessId, int]
    access: dict[ProcessId, LinkParams]
    jitter_max: float = DEFAULT_JITTER_MAX
    _params: dict[tuple[ProcessId, ProcessId], tuple[float, float]] = field(default_factory=dict)

    def router_hops(self, a: ProcessId, b: ProcessId) -> int:
        return abs(self.router_of[a] - self.router_of[b])

    def path_params(self, src: ProcessId, dst: ProcessId) -> tuple[float, float]:
        """(total propagation seconds, total seconds-per-bit) for the path."""
        key = (src, dst)
        got = self._params.get(key)
        if got is None:
            sa, da = self.access[src], self.access[dst]
            hops = self.router_hops(src, dst)
            prop = sa.prop_s + da.prop_s + hops * ROUTER_LINK.prop_s
            per_bit = 1.0 / sa.bw_bps + 1.0 / da.bw_bps + hops / ROUTER_LINK.bw_bps
            got = self._params[key] = (prop, per_bit)
        return got


def build_topology(kind: str, n_servers: int, n_readers: int, n_writers: int) -> Network:
    """Place the nodes of a "series" or "star" LAN on its chain of routers."""
    if n_servers < 1:
        raise ValueError("need at least one server")
    if kind == "series":
        server_routers, server_link = range(n_servers), SERIES_SERVER_LINK
    elif kind == "star":
        server_routers, server_link = [0] * n_servers, STAR_SERVER_LINK
    else:
        raise ValueError("unknown topology kind %r" % kind)

    router_of: dict[ProcessId, int] = {}
    access: dict[ProcessId, LinkParams] = {}
    for i, router in enumerate(server_routers):
        router_of[server(i)] = router
        access[server(i)] = server_link
    clients = [reader(i) for i in range(n_readers)] + [writer(i) for i in range(n_writers)]
    for ordinal, pid in enumerate(clients):
        router_of[pid] = ordinal % n_servers
        access[pid] = CLIENT_LINK
    return Network(router_of, access)


def message_delay(net: Network, src: ProcessId, dst: ProcessId, size_bits: int, rng: random.Random) -> float:
    """Path propagation + transmission + one jitter draw; src must differ from dst."""
    assert src != dst, "loopback is handled by the simulator"
    prop, per_bit = net.path_params(src, dst)
    d = prop + size_bits * per_bit
    if net.jitter_max > 0.0:
        d += rng.uniform(0.0, net.jitter_max)
    return d


@dataclass(frozen=True)
class WorkItem:
    time: float
    pid: ProcessId
    kind: str  # "read" | "write"
    value: Optional[bytes] = None


@dataclass
class Trace:
    """Everything observable about one run, in event order."""

    algorithm: str = ""
    seed: int = 0
    records: list[tuple] = field(default_factory=list)
    ops: dict[int, OperationRecord] = field(default_factory=dict)
    crash_at: dict[ProcessId, float] = field(default_factory=dict)
    stale_drops: int = 0
    skipped_invokes: int = 0
    incomplete: bool = False
    end_time: float = 0.0
    meta: dict[str, str] = field(default_factory=dict)  # config echo for reports
    _ended: bool = field(default=False, init=False, repr=False)

    def add(self, rec: tuple) -> None:
        """Append one record; inv/res/wtag/crs/end records also update the
        operation index and run status.  A record that contradicts the
        index raises ValueError: a second inv or res for one op id, a res
        or wtag with no earlier inv, a res or wtag from another process
        than the invoker or timed before its inv, a wtag for a read, and
        a second end.  So do an inv by a server, an inv whose operation
        kind is neither read nor write and an end whose status is neither
        complete nor incomplete."""
        self.records.append(rec)
        kind = rec[0]
        if kind == "inv":
            _, t, pid, op_id, op_kind, value_hex = rec
            if op_id in self.ops:
                raise ValueError("second inv for op %s" % op_id)
            if op_kind not in ("read", "write"):
                raise ValueError("inv for op %s: unknown operation kind %r" % (op_id, op_kind))
            if pid.role is Role.SERVER:
                raise ValueError("inv for op %s from server %s" % (op_id, pid))
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
            self.crash_at[pid] = min(t, self.crash_at.get(pid, t))
        elif kind == "end":
            if self._ended:
                raise ValueError("second end record")
            _, self.end_time, status, self.stale_drops, self.skipped_invokes = rec
            if status not in ("complete", "incomplete"):
                raise ValueError("end status %r is neither complete nor incomplete" % status)
            self._ended = True
            self.incomplete = status == "incomplete"

    def live(self, pid: ProcessId) -> bool:
        return pid not in self.crash_at

    def operations(self) -> list[OperationRecord]:
        return [self.ops[k] for k in sorted(self.ops)]


def run(
    network: Network,
    algorithm: Algorithm,
    qs: QuorumSystem,
    workload: Sequence[WorkItem],
    crash_schedule: Sequence[tuple[ProcessId, float]] = (),
    seed: int = 0,
    cap_s: float = DEFAULT_CAP_S,
) -> Trace:
    rng = random.Random("%d:net" % seed)
    trace = Trace(algorithm=algorithm.name, seed=seed)
    steps = (algorithm.reader_step, algorithm.writer_step, algorithm.server_step)
    states = {pid: algorithm.new_state(pid, qs) for pid in network.router_of}
    step_of = {pid: steps[pid.role] for pid in states}
    for pid, t in crash_schedule:
        trace.crash_at[pid] = min(t, trace.crash_at.get(pid, t))

    heap: list[tuple] = []
    seq = 0

    def push(t: float, kind: str, payload) -> None:
        nonlocal seq
        heapq.heappush(heap, (t, seq, kind, payload))
        seq += 1

    for pid in sorted(trace.crash_at):
        push(trace.crash_at[pid], "crash", pid)
    for item in sorted(workload, key=lambda w: (w.time, w.pid)):
        push(item.time, "invoke", item)

    def dead(pid: ProcessId, t: float) -> bool:
        return trace.crash_at.get(pid, float("inf")) <= t

    current_op: dict[ProcessId, Optional[int]] = {pid: None for pid in states}
    next_op = 1

    def handle_output(pid: ProcessId, t: float, out) -> None:
        if out.stale:
            trace.stale_drops += 1
        op_id = current_op[pid]
        if out.wtag is not None:
            trace.add(("wtag", t, pid, op_id, out.wtag.ts, out.wtag.wid))
        if out.adopted is not None:
            trace.records.append(("tag", t, pid, out.adopted.ts, out.adopted.wid))
        for dst, msg in out.sends:
            if dst == pid:
                delay = LOOPBACK_DELAY
            else:
                delay = message_delay(network, pid, dst, msg.size_bits(), rng)
            arrive = t + delay
            trace.records.append(
                ("snd", t, pid, dst, msg.kind.value, msg.client, msg.op_seq, arrive)
            )
            push(arrive, "deliver", (dst, msg))
        res = out.response
        if res is not None:
            current_op[pid] = None
            trace.add(("res", t, pid, op_id, res.exchanges, res.tag.ts, res.tag.wid, res.value.hex()))

    last_t = 0.0
    while heap:
        if heap[0][0] > cap_s:
            break
        t, _, kind, payload = heapq.heappop(heap)
        last_t = t
        if kind == "crash":
            trace.add(("crs", t, payload))
            continue
        if kind == "invoke":
            item: WorkItem = payload
            pid = item.pid
            if dead(pid, t):
                continue
            if current_op[pid] is not None:
                trace.skipped_invokes += 1
                continue
            # Writes carry their intended value from invocation on, so a
            # crashed write still shows what it was writing.
            value = item.value if item.kind == "write" else None
            trace.add(("inv", t, pid, next_op, item.kind, value.hex() if value is not None else "-"))
            current_op[pid] = next_op
            next_op += 1
            handle_output(pid, t, step_of[pid](states[pid], Invoke(value), qs))
            continue
        dst, msg = payload
        if dead(dst, t):
            continue
        trace.records.append(("dlv", t, dst, msg.sender, msg.kind.value, msg.client, msg.op_seq))
        handle_output(dst, t, step_of[dst](states[dst], msg, qs))

    end_time = min(last_t, cap_s) if not heap else cap_s
    pending_live = any(
        op.responded_at is None and trace.live(op.process) for op in trace.ops.values()
    )
    unreached = [e for e in heap if e[2] == "invoke" and not dead(e[3].pid, e[0])]
    incomplete = pending_live or bool(unreached)
    trace.add(("end", end_time, "incomplete" if incomplete else "complete",
               trace.stale_drops, trace.skipped_invokes))
    return trace
