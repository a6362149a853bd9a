"""The simulator written plainly from the netsim module docstring: the
tests' reference for netsim.run, whose loop is tuned for speed.

Events sit in one list and the next is the least by (time, insertion
sequence).  Each event builds its own records, with no shared dlv record
and no per-message cache, and every record goes through Trace.add.  A
send that is not a loopback draws its delay from the same
netsim.message_delay call, so both runs draw the same random numbers.
"""

import itertools
import math
import random

from regsim import netsim
from regsim.core import CLIENT_KIND, MessageKind, node_key
from regsim.protocols.base import Invoke
from regsim.trace import Trace


def reference_run(network, algorithm, qs, workload, crash_schedule=(), seed=0,
                  cap_s=netsim.DEFAULT_CAP_S):
    rng = random.Random("%d:net" % seed)
    trace = Trace(algorithm=algorithm.name, seed=seed)
    names = network.names
    paths = network.path_params()
    states = [algorithm.new_state(name, pid) for pid, name in enumerate(names)]
    step = {"r": algorithm.reader_step, "w": algorithm.writer_step, "s": algorithm.server_step}
    for item in workload:
        if item.pid[0] not in CLIENT_KIND:
            raise ValueError("work item names %s, not a client" % item.pid)
    crashed_at = {}
    for name, t in crash_schedule:
        if name in crashed_at:
            raise ValueError("crash schedule names %s twice" % name)
        crashed_at[name] = t

    def crashed(name, t):
        return crashed_at.get(name, math.inf) <= t

    events = []  # (time, insertion sequence, kind, node name, payload)
    seq = itertools.count()

    def push(t, kind, name, payload):
        events.append((t, next(seq), kind, name, payload))

    for name in sorted(crashed_at, key=node_key):
        push(crashed_at[name], "crash", name, None)
    for item in sorted(workload, key=lambda w: (w.time, node_key(w.pid))):
        push(item.time, "invoke", item.pid, item)

    running = {}  # client name -> its open op id
    own_seq = {}  # client name -> op_seq of its latest send of its own
    stale = skipped = 0
    next_op = 1
    last_t = 0.0

    def output(name, t, out, exchange, op):
        pid = names.index(name)
        if out.adopted is not None:
            trace.add(("tag", t, name, out.adopted.ts, out.adopted.wid))
        msg = out.message
        if msg is not None and msg.kind == MessageKind.WRITE_REQUEST:
            trace.add(("wtag", t, name, running[name], msg.tag.ts, msg.tag.wid))
        for dst in out.to:
            trace.ops[op].messages += 1
            if msg.client == pid:
                own_seq[name] = msg.op_seq
            if dst == pid:
                arrive = t + netsim.LOOPBACK_DELAY
            else:
                arrive = t + netsim.message_delay(
                    paths[pid][dst], msg.size_bits(), network.jitter_max, rng)
            to = names[dst]
            trace.add(("snd", t, name, to, msg.kind, names[msg.client], msg.op_seq, arrive))
            push(arrive, "deliver", to, (msg, exchange + 1, op))
        if out.response is not None:
            tag = out.response.tag
            trace.add(("res", t, name, running.pop(name), exchange, tag.ts, tag.wid,
                       out.response.value.hex()))

    while events:
        event = min(events)
        if event[0] > cap_s:
            break
        events.remove(event)
        t, _, kind, name, payload = event
        last_t = t
        if kind == "crash":
            trace.add(("crs", t, name))
        elif crashed(name, t):
            continue
        elif kind == "deliver":
            msg, exchange, op = payload
            trace.add(("dlv", t, name, names[msg.sender], msg.kind, names[msg.client], msg.op_seq))
            if msg.op_seq < own_seq.get(name, 0):
                stale += 1
            out = step[name[0]](states[names.index(name)], msg, qs)
            output(name, t, out, exchange, op)
        elif name in running:
            skipped += 1
        else:
            op_kind = CLIENT_KIND[name[0]]
            value = payload.value if op_kind == "write" else None
            trace.add(("inv", t, name, next_op, op_kind,
                       "-" if value is None else value.hex()))
            running[name] = op = next_op
            next_op += 1
            output(name, t, step[name[0]](states[names.index(name)], Invoke(value), qs), 0, op)

    pending = any(op.responded_at is None and trace.live(op.process) for op in trace.ops.values())
    unreached = any(kind == "invoke" and not crashed(name, t) for t, _, kind, name, _ in events)
    status = "incomplete" if pending or unreached else "complete"
    trace.add(("end", cap_s if events else last_t, status, stale, skipped))
    return trace
