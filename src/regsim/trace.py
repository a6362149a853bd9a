"""The Trace that netsim.run writes, its text format and its wire replay.

Trace log: a run header on line 1, the scenario config as key=value
fields that config.py writes and reads back (ScenarioConfig.describe,
parse_header); then one event per line, tab separated, first field the
record type, last record the end record.  A node appears by its name,
which has exactly one spelling (see core.parse_pid).  One table
(_REC_TYPES) gives every record kind its number of fields and, but for
snd and dlv, its format string, so a record is written with a single %,
and its builder, which turns a line's fields into the record in one call
once their count is checked.  snd and dlv lines, 90-99 % of a run's, are
written and read inline.  Writing turns each time into text once: a
time that is the last snd's or dlv's very float reuses that text, as the
sends a delivery triggers do, and a snd's arrival text waits in a map
until the dlv at that time takes it.  Reading parses each message once:
a broadcast's lines parse their shared fields once, a snd that passes
its checks foretells its delivery, the dlv record and the exact text of
its line spelled with the snd's own fields, and a dlv line with that
text takes the record unparsed; any other dlv line is parsed field by
field.  A snd's or dlv's time spelled as the last snd's or dlv's reuses
that float.  Both maps hold only messages in flight.
Parsing and re-serializing a trace reproduces it byte for byte, and a
parsed trace shares its time floats as a simulated one does.  The
parser splits the text into lines a bounded chunk at a time, never the
whole text at once, and checks each line by itself and against the
operations of the lines before it.  One table (_MESSAGE_KINDS) holds the
message kinds: the parser refuses a kind it lacks and gives each record
the simulator's own MessageKind str, and replay_wire reads from it
whether a message serves a read or a write (see trace_from_text).
replay_wire holds the whole wire to its rules in one pass.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

from regsim.config import ConfigError, ScenarioConfig, parse_header
from regsim.core import CLIENT_KIND, MessageKind, OperationRecord, Tag, parse_pid


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
        server or with an op id below 1 (run numbers operations from 1),
        an inv whose operation kind is neither read nor write, one whose
        kind is not its client's (a reader reads, a writer writes), a
        write whose value is not hex, a read with a value other than
        "-", and an end whose status is neither complete nor incomplete
        or that counts fewer than 0 stale drops or skipped invocations."""
        self.records.append(rec)
        kind = rec[0]
        if kind == "inv":
            _, t, pid, op_id, op_kind, value_hex = rec
            if op_id < 1:
                raise ValueError("inv for op %s: op ids start at 1" % op_id)
            if op_id in self.ops:
                raise ValueError("second inv for op %s" % op_id)
            if op_kind not in ("read", "write"):
                raise ValueError("inv for op %s: unknown operation kind %r" % (op_id, op_kind))
            if pid.startswith("s"):
                raise ValueError("inv for op %s from server %s" % (op_id, pid))
            if op_kind != CLIENT_KIND[pid[0]]:
                raise ValueError("inv for op %s: %s runs %ss, not %ss"
                                 % (op_id, pid, CLIENT_KIND[pid[0]], op_kind))
            if (value_hex == "-") != (op_kind == "read"):
                raise ValueError("inv for op %s: a %s's value must be %s, got %r"
                                 % (op_id, op_kind, "'-'" if op_kind == "read" else "hex", value_hex))
            value = bytes.fromhex(value_hex) if value_hex != "-" else None
            self.ops[op_id] = OperationRecord(op_id, pid, op_kind, t, value=value)
        elif kind == "res":
            _, t, pid, op_id, exchanges, ts, wid, value_hex = rec
            op = self._own_op(kind, t, pid, op_id)
            op.responded_at = t
            op.exchanges = exchanges
            op.tag = Tag(ts, wid)
            op.value = bytes.fromhex(value_hex)
        elif kind == "wtag":
            _, t, pid, op_id, ts, wid = rec
            op = self._own_op(kind, t, pid, op_id)
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
            if self.stale_drops < 0 or self.skipped_invokes < 0:
                raise ValueError("end counts below 0: %d stale drops, %d skipped invocations" % rec[3:])
            self._ended = True
            self.incomplete = status == "incomplete"

    def _own_op(self, kind: str, t: float, pid: str, op_id: int) -> OperationRecord:
        """The operation a res or wtag record reports on, or ValueError
        unless it has an earlier inv, a res is its first, and the record
        is by its invoker and not timed before its inv."""
        op = self.ops.get(op_id)
        if op is None:
            raise ValueError("%s for op %s with no earlier inv" % (kind, op_id))
        if kind == "res" and op.responded_at is not None:
            raise ValueError("second res for op %s" % op_id)
        if pid != op.process:
            raise ValueError("%s for op %s from %s, but %s invoked it" % (kind, op_id, pid, op.process))
        if t < op.invoked_at:
            raise ValueError("%s for op %s at %s precedes its inv at %s" % (kind, op_id, t, op.invoked_at))
        return op

    def live(self, pid: str) -> bool:
        return pid not in self.crash_at

    def operations(self) -> list[OperationRecord]:
        return [self.ops[k] for k in sorted(self.ops)]



# ---------------------------------------------------------------- trace io

class _MessageKindTable(dict):
    """A dict in which looking up a missing token raises ValueError: an
    unknown message kind is a bad trace line."""

    def __missing__(self, token: str):
        raise ValueError("unknown message kind %r" % token)


# The seven message kinds: each token's MessageKind constant, which a
# parsed record holds in place of a copy of its own, and the kind of
# operation (read or write) whose sends carry it.
_MESSAGE_KINDS = _MessageKindTable({
    kind: (kind, op_kind) for kind, op_kind in (
        (MessageKind.READ_REQUEST, "read"),
        (MessageKind.READ_RELAY, "read"),
        (MessageKind.READ_ACK, "read"),
        (MessageKind.WRITE_REQUEST, "write"),
        (MessageKind.WRITE_ACK, "write"),
        (MessageKind.WRITE_DISCOVER, "write"),
        (MessageKind.DISCOVER_ACK, "write"),
    )
})


class _NodeNames(dict):
    """Node name -> itself, each distinct name validated by parse_pid on
    its first lookup, so all records naming a node share the str of its
    first mention."""

    def __missing__(self, token: str) -> str:
        self[token] = pid = parse_pid(token)
        return pid


# One entry per record kind: its number of tab-separated fields, the
# record-type token included, then its format string and its builder,
# which turns the line's fields into the record, names being a
# _NodeNames.  snd and dlv, 90-99 % of a run's records, have neither:
# trace_to_text and trace_from_text write and read them inline (see
# their time caches and the foretold dlv lines).  A float's %r is its
# str, so both directions reproduce the text.
_REC_TYPES: dict[str, tuple] = {
    "inv": (6, "%s\t%r\t%s\t%d\t%s\t%s",
            lambda p, names: ("inv", float(p[1]), names[p[2]], int(p[3]), p[4], p[5])),
    "res": (8, "%s\t%r\t%s\t%d\t%d\t%d\t%d\t%s",
            lambda p, names: ("res", float(p[1]), names[p[2]], int(p[3]), int(p[4]), int(p[5]),
                              int(p[6]), p[7])),
    "snd": (8, None, None),
    "dlv": (7, None, None),
    "tag": (5, "%s\t%r\t%s\t%d\t%d",
            lambda p, names: ("tag", float(p[1]), names[p[2]], int(p[3]), int(p[4]))),
    "wtag": (6, "%s\t%r\t%s\t%d\t%d\t%d",
             lambda p, names: ("wtag", float(p[1]), names[p[2]], int(p[3]), int(p[4]), int(p[5]))),
    "crs": (3, "%s\t%r\t%s", lambda p, names: ("crs", float(p[1]), names[p[2]])),
    "end": (5, "%s\t%r\t%s\t%d\t%d",
            lambda p, names: ("end", float(p[1]), p[2], int(p[3]), int(p[4]))),
}

_ARITY = {kind: arity for kind, (arity, _, _) in _REC_TYPES.items()}
_FORMATS = {kind: fmt for kind, (_, fmt, _) in _REC_TYPES.items()}
_BUILDERS = {kind: build for kind, (_, _, build) in _REC_TYPES.items()}

# About how many characters of a trace's text trace_from_text splits into
# lines at a time.
_CHUNK_CHARS = 1 << 16


def _line_chunks(text: str):
    """Yield text.splitlines() in pieces: the lines of about _CHUNK_CHARS
    characters of text at a time, cut just after a "\n".  No cut falls
    inside a line break, "\r\n" included, so the pieces joined are
    exactly text.splitlines(); a text with no "\n" is one piece."""
    start, size = 0, len(text)
    while start < size:
        cut = text.find("\n", start + _CHUNK_CHARS) + 1 or size
        yield text[start:cut].splitlines()
        start = cut


def header_line(algorithm: str, seed: int, config: Optional[ScenarioConfig]) -> str:
    """The run header line, without its line end, of a trace that
    read_header reads as (algorithm, seed, config): the scenario's
    fields (ScenarioConfig.describe), or algorithm and seed alone."""
    header = {"algorithm": algorithm, "seed": seed} if config is None else config.describe()
    return "\t".join(["run"] + ["%s=%s" % pair for pair in header.items()])


def trace_to_text(trace: Trace) -> str:
    """The trace's text: its run header, then one line per record.  A
    snd's or dlv's time that is the very float of the last snd's or
    dlv's time reuses that text, as the sends a delivery triggers do;
    a snd's arrival text waits in a map until a dlv at that time takes
    it, so the map holds only messages not yet delivered.  Any other
    time is written by repr."""
    lines = [header_line(trace.algorithm, trace.seed, trace.config)]
    append = lines.append
    formats = _FORMATS
    # Arrival -> its text: equal floats have one repr, but for the zeros.
    in_flight: dict[float, str] = {}
    take = in_flight.pop
    last_t = last_text = None
    for rec in trace.records:
        kind = rec[0]
        if kind == "snd":
            _, t, src, dst, msg_kind, client, op_seq, arrive = rec
            if t is not last_t:
                last_t, last_text = t, repr(t)
            arrive_text = repr(arrive)
            if arrive:  # else a dlv at -0.0 could take the text "0.0"
                in_flight[arrive] = arrive_text
            append(f"snd\t{last_text}\t{src}\t{dst}\t{msg_kind}\t{client}\t{op_seq}\t{arrive_text}")
        elif kind == "dlv":
            _, t, dst, src, msg_kind, client, op_seq = rec
            text = take(t, None)
            if text is None:
                text = last_text if t is last_t else repr(t)
            last_t, last_text = t, text
            append(f"dlv\t{text}\t{dst}\t{src}\t{msg_kind}\t{client}\t{op_seq}")
        else:
            append(formats[kind] % rec)
    append("")  # the join ends the text in "\n", with no second copy
    return "\n".join(lines)


def first_line(text: str) -> str:
    """Line 1 of text as text.splitlines(True) cuts it, its line end
    included, or '' for an empty text.  Only the text up to the first
    "\n" is split, never the whole text."""
    head = text[:text.find("\n") + 1 or None]  # line 1 lies within it
    return (head.splitlines(True) or [""])[0]


def read_header(text: str) -> tuple[str, int, Optional[ScenarioConfig]]:
    """(algorithm, seed, scenario or None) of a trace's run header, its
    first_line without the line end.  A line 1 that is not a run header
    raises ValueError("line 1: no run header"), one that
    config.parse_header refuses ValueError("line 1: ...")."""
    parts = (first_line(text).splitlines() or [""])[0].split("\t")
    if parts[0] != "run":
        raise ValueError("line 1: no run header")
    try:
        return parse_header(parts[1:])
    except ConfigError as exc:
        raise ValueError("line 1: %s" % exc) from None


def _record(parts: list[str], line: str, names: _NodeNames) -> tuple:
    """The record of a line's fields, parts, that trace_from_text does
    not read inline: a wrong field count, an unknown record type or a
    non-finite time raises ValueError."""
    kind = parts[0]
    if len(parts) != _ARITY.get(kind, 0):
        raise ValueError("bad trace record %r" % line)
    rec = _BUILDERS[kind](parts, names)
    if not math.isfinite(rec[1]):
        raise ValueError("%s time %s is not finite" % (kind, parts[1]))
    return rec


def trace_from_text(text: str) -> Trace:
    """Parse a trace log; a run header that read_header refuses, a
    malformed line, one that contradicts an earlier line (see Trace.add),
    a run header not on line 1, a record after the end record, or a trace
    with no end record (reported at its last line) raises
    ValueError("line N: ...").

    Every record's time and every snd's arrival must be finite, and a snd
    must arrive strictly after it is sent: every link and the loopback
    handoff take time.  A snd's or dlv's message kind must be one of
    MessageKind's, and the record holds that constant itself.  What only
    the wire as a whole shows, deliveries, crashes and counts, is
    replay_wire's to check.

    Each message is parsed once, and a broadcast's shared fields once: a
    snd line whose src, kind, client and op_seq texts are the last snd
    line's takes their values and parses only its dst and arrival.  A
    snd that passes its checks foretells its delivery: it files the dlv
    record netsim.run would write, timed at the snd's very arrival float,
    under the text of that dlv's line spelled with the snd's own fields.
    A line with that text takes the record as it is, since the snd's
    fields already passed every check a dlv line gets.  A snd to a node
    whose crs line came before it foretells nothing, as the crashed node
    takes no delivery.  Any other dlv line, one spelled otherwise than
    its snd (-0.0, 07, 5e-1), a second copy of a line in flight, one that
    matches no snd or one to a crashed node (replay_wire refuses the
    last two), is parsed field by field.

    Lines are split from the text in bounded chunks (_line_chunks), so
    besides the trace it returns the parse holds one chunk's lines and
    the messages in flight, not a list of every line.
    """
    trace = Trace()
    trace.algorithm, trace.seed, trace.config = read_header(text)
    lines = enumerate(chain.from_iterable(_line_chunks(text)), start=1)
    next(lines)  # the run header, which read_header has read
    append = trace.records.append
    crash_at = trace.crash_at
    names = _NodeNames()
    snd_arity, dlv_arity = _ARITY["snd"], _ARITY["dlv"]
    kinds = _MESSAGE_KINDS
    isfinite, inf = math.isfinite, math.inf
    shared_text = None  # the src, kind, client and op_seq texts of the last snd line
    # The text of each foretold dlv line -> (its time's text, its record).
    foretold: dict[str, tuple[str, tuple]] = {}
    take = foretold.pop
    # A snd's or dlv's time spelled as the last snd's or dlv's is that
    # line's float, so a parsed trace shares its time floats as a
    # simulated one does.
    last_text = last_t = None
    lineno = 1  # a trace of its header alone has no end record at line 1
    try:
        for lineno, line in lines:
            hit = take(line, None)
            if hit is not None:
                last_text, rec = hit
                last_t = rec[1]
                append(rec)
                continue
            if not line:
                continue
            parts = line.split("\t")
            kind = parts[0]
            if kind == "snd" and len(parts) == snd_arity:
                _, t_text, src, dst, msg_kind, client, op_seq, arrive_text = parts
                if t_text != last_text:
                    last_t, last_text = float(t_text), t_text
                if (src, msg_kind, client, op_seq) != shared_text:
                    # In field order, so that a line's first fault is the one reported.
                    src_id, dst_id, kind_id = names[src], names[dst], kinds[msg_kind][0]
                    client_id, seq, shared_text = names[client], int(op_seq), (src, msg_kind, client, op_seq)
                    tail = f"\t{src}\t{msg_kind}\t{client}\t{op_seq}"
                else:  # a broadcast's next line
                    dst_id = names[dst]
                t, arrive = last_t, float(arrive_text)
                if not -inf < t < arrive < inf:
                    if not isfinite(t):
                        raise ValueError("snd time %s is not finite" % t_text)
                    if not isfinite(arrive):
                        raise ValueError("snd arrival %s is not finite" % arrive_text)
                    raise ValueError(
                        "snd of %s (client %s, op %s) from %s to %s at %s arrives at %s, "
                        "not after its send"
                        % (msg_kind, client, op_seq, src, dst, t_text, arrive_text)
                    )
                append(("snd", t, src_id, dst_id, kind_id, client_id, seq, arrive))
                if dst in crash_at:  # a crashed node takes no delivery
                    continue
                foretold[f"dlv\t{arrive_text}\t{dst}{tail}"] = (
                    arrive_text, ("dlv", arrive, dst_id, src_id, kind_id, client_id, seq))
            elif kind == "dlv" and len(parts) == dlv_arity:
                _, t_text, dst, src, msg_kind, client, op_seq = parts
                if t_text != last_text:
                    last_t, last_text = float(t_text), t_text
                rec = ("dlv", last_t, names[dst], names[src], kinds[msg_kind][0], names[client],
                       int(op_seq))
                if not isfinite(last_t):
                    raise ValueError("dlv time %s is not finite" % t_text)
                append(rec)
            elif kind == "run":
                raise ValueError("run header not on line 1")
            else:
                rec = _record(parts, line, names)
                if kind == "tag":
                    append(rec)
                else:
                    trace.add(rec)
                    if kind == "end":
                        break
        else:
            raise ValueError("trace has no end record")
        for lineno, line in lines:
            if line:
                parts = line.split("\t")
                if parts[0] != "end":
                    raise ValueError("%s record after the end record" % parts[0])
                trace.add(_record(parts, line, names))  # refuses a second end
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None
    return trace


def replay_wire(trace: Trace) -> dict[int, int]:
    """Replay the wire of a complete trace in one pass over its records;
    map op_id -> number of messages sent on behalf of that operation, and
    set each operation record's messages to it.

    A record that breaks a rule below raises ValueError("line N: ..."),
    N being the record's line in the trace's text: its index + 2, after
    the run header.  Per record, the rules come in this order.
    - No node acts at or after its crash, wherever the crs sits: every
      record but crs and end is an act of the node it names first, the
      sender of a snd, the receiver of a dlv, the process of an inv, res
      or wtag, and the adopting server of a tag.
    - No record, crs and end included, is timed before the record above
      it: netsim.run takes its events in time order.
    - A client invokes only once its last operation has its res.
    - Each inv's op id is above every earlier inv's: netsim.run numbers
      operations in inv order.
    - Only a server adopts a tag: a tag by a reader or writer is refused.
    - Each dlv takes up an earlier snd not yet delivered with the same
      sender, receiver, kind, client, op_seq and an arrival equal to the
      dlv's time, first in, first out.  A snd never delivered is legal:
      in flight at the cap, or sent to a crashed node.
    - Every send attributes to exactly one operation, of the kind
      _MESSAGE_KINDS gives the message's kind.  A send carries the
      originating client and that client's operation sequence number
      (op_seq).  The first send of a (client, op_seq) pair comes from
      the client itself, within its own step, and takes that step's
      operation, as netsim.run's sends do; every later send with that
      pair, a server's relay or ack included, belongs to the same one.
    - A step is an inv or a dlv, and every snd, res, wtag and tag is an
      output of the step before it: made by its node at its time.
    - Each res's exchanges and the end's stale drops are what the wire
      shows, counted as netsim.run counts them: an inv's step is
      exchange 0 of the op it opens, a dlv's step the exchange and op
      its snd carried; a snd carries its step's exchange + 1 and its own
      op, and a res claims its step's exchange.  A client's dlv is stale
      when its op_seq is below that of the client's latest snd.
    """
    crash_at = trace.crash_at
    ops = trace.ops
    counts: dict[int, int] = {op_id: 0 for op_id in ops}
    op_of: dict[tuple[str, int], int] = {}  # (client name, op_seq) -> op
    open_op: dict[str, int] = {}  # client name -> its op that has no res yet
    in_flight: dict[tuple, deque] = {}  # snd fields -> (exchange, op) of the undelivered, never empty
    own_seq: dict[str, int] = {}  # client name -> op_seq of its latest snd
    step_t = step_node = exchange = op = None  # the last inv's or dlv's time and node, exchange and op
    last_op = 0  # the op id of the last inv
    last_t = -math.inf
    stale = 0
    lineno = 0
    try:
        for lineno, rec in enumerate(trace.records, start=2):
            kind, t, node = rec[:3]  # an end's third field is its status, which names no node
            if kind != "crs" and t >= crash_at.get(node, math.inf):
                raise ValueError("%s %s %s at %s, at or after its crash at %s"
                                 % (kind, "to" if kind == "dlv" else "by", node, t, crash_at[node]))
            if t < last_t:
                raise ValueError("%s at %s precedes the record before it, at %s" % (kind, t, last_t))
            last_t = t
            if kind == "inv":
                if node in open_op:
                    raise ValueError("inv for op %d by %s while its op %d runs" % (rec[3], node, open_op[node]))
                if rec[3] <= last_op:
                    raise ValueError("inv for op %d after the inv for op %d" % (rec[3], last_op))
                step_t, step_node, exchange, op = t, node, 0, rec[3]
                last_op = op
                open_op[node] = op
            elif kind == "dlv":
                _, _, dst, src, msg_kind, client, op_seq = rec
                key = (src, dst, msg_kind, client, op_seq, t)
                pending = in_flight.get(key)
                if not pending:
                    raise ValueError("dlv of %s (client %s, op %s) from %s to %s at %s "
                                     "matches no earlier snd" % (msg_kind, client, op_seq, src, dst, t))
                step_t, step_node = t, dst
                exchange, op = pending.popleft()
                if not pending:
                    del in_flight[key]
                if op_seq < own_seq.get(dst, 0):
                    stale += 1
            elif kind == "end":
                if rec[3] != stale:
                    raise ValueError("end claims %d stale drops, the wire shows %d" % (rec[3], stale))
            elif kind != "crs":  # a snd, res, wtag or tag: an output of the current step
                if kind == "tag" and not node.startswith("s"):
                    raise ValueError("tag by %s, which is not a server" % node)
                if kind == "snd":
                    _, _, src, _dst, msg_kind, client, op_seq, _arrive = rec
                    op_id = op_of.get((client, op_seq))
                    if op_id is None:
                        if src != client or step_node != client:
                            raise ValueError("send %s for client %s op_seq %d does not attribute "
                                             "to any operation" % (msg_kind, client, op_seq))
                        op_id = op_of[(client, op_seq)] = op
                    expect = _MESSAGE_KINDS[msg_kind][1]
                    if ops[op_id].kind != expect:
                        raise ValueError("send %s attributed to a %s operation"
                                         % (msg_kind, ops[op_id].kind))
                if t != step_t or node != step_node:
                    raise ValueError("%s by %s at %s is no output of the inv or dlv before it"
                                     % (kind, node, t))
                if kind == "snd":
                    counts[op_id] += 1
                    in_flight.setdefault(rec[2:], deque()).append((exchange + 1, op_id))
                    if src == client:
                        own_seq[src] = op_seq
                elif kind == "res":
                    if rec[4] != exchange:
                        raise ValueError("res for op %d at %r claims %d exchanges, the wire shows %d"
                                         % (rec[3], t, rec[4], exchange))
                    open_op.pop(node, None)
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None
    for op_id, n in counts.items():
        ops[op_id].messages = n
    return counts
