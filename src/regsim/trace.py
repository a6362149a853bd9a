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
written and read inline, each time turned into text and back about once
through two caches: a snd's or dlv's time that is the last snd's or
dlv's (the same float when writing, the same text when reading) reuses
that text or float, as the sends a delivery triggers do, and a snd's
arrival waits in a map until the dlv at that time takes it, so the map
holds only the messages in flight.  Parsing and re-serializing a trace
reproduces it byte for byte, and a parsed trace shares its time floats
as a simulated one does.  The parser splits the text into lines a
bounded chunk at a time, never the whole text at once, and checks each
line by itself and against the operations of the lines before it.  One
table (_MESSAGE_KINDS) holds the message kinds: the parser refuses a
kind it lacks and gives each record the simulator's own MessageKind str,
and replay_wire reads from it whether a message serves a read or a write
(see trace_from_text).  replay_wire holds the whole wire to its rules in
one pass.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from typing import Optional

from regsim.config import ConfigError, ScenarioConfig, parse_header
from regsim.core import MessageKind, OperationRecord, Tag, parse_pid

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
            if self.stale_drops < 0 or self.skipped_invokes < 0:
                raise ValueError("end counts below 0: %d stale drops, %d skipped invocations" % rec[3:])
            self._ended = True
            self.incomplete = status == "incomplete"

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


# One entry per record kind: its number of tab-separated fields, the
# record-type token included, then its format string and its builder,
# which turns the line's fields into the record, name being parse_pid or
# a cache of it.  snd and dlv, 90-99 % of a run's records, have neither:
# trace_to_text and trace_from_text write and read them inline, turning
# each time into text and back about once (see their time caches).  A
# float's %r is its str, so both directions reproduce the text.
_REC_TYPES: dict[str, tuple] = {
    "inv": (6, "%s\t%r\t%s\t%d\t%s\t%s",
            lambda p, name: ("inv", float(p[1]), name(p[2]), int(p[3]), p[4], p[5])),
    "res": (8, "%s\t%r\t%s\t%d\t%d\t%d\t%d\t%s",
            lambda p, name: ("res", float(p[1]), name(p[2]), int(p[3]), int(p[4]), int(p[5]),
                             int(p[6]), p[7])),
    "snd": (8, None, None),
    "dlv": (7, None, None),
    "tag": (5, "%s\t%r\t%s\t%d\t%d",
            lambda p, name: ("tag", float(p[1]), name(p[2]), int(p[3]), int(p[4]))),
    "wtag": (6, "%s\t%r\t%s\t%d\t%d\t%d",
             lambda p, name: ("wtag", float(p[1]), name(p[2]), int(p[3]), int(p[4]), int(p[5]))),
    "crs": (3, "%s\t%r\t%s", lambda p, name: ("crs", float(p[1]), name(p[2]))),
    "end": (5, "%s\t%r\t%s\t%d\t%d",
            lambda p, name: ("end", float(p[1]), p[2], int(p[3]), int(p[4]))),
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

    Lines are split from the text in bounded chunks (_line_chunks), so
    besides the trace it returns the parse holds one chunk's lines, not a
    list of every line.
    """
    trace = Trace()
    trace.algorithm, trace.seed, trace.config = read_header(text)
    lines = chain.from_iterable(_line_chunks(text))
    next(lines)  # the run header, which read_header has read
    append = trace.records.append
    # Each distinct node name is validated once, and all records naming
    # the node share the str of its first mention.
    name = cache(parse_pid)
    arity = _ARITY
    snd_arity, dlv_arity = arity["snd"], arity["dlv"]
    builders = _BUILDERS
    kinds = _MESSAGE_KINDS
    isfinite = math.isfinite
    # A snd's or dlv's time spelled as the last snd's or dlv's is that
    # line's float; a snd's arrival is turned into a float once, held
    # under its text until a dlv at that text takes it.  So a parsed
    # trace shares its time floats as a simulated one does.
    arrivals: dict[str, float] = {}
    take = arrivals.pop
    last_text = last_t = None
    lineno = 1  # a trace of its header alone has no end record at line 1
    try:
        for lineno, line in enumerate(lines, start=2):
            if not line:
                continue
            parts = line.split("\t")
            kind = parts[0]
            if trace._ended and kind != "end":  # Trace.add refuses a second end
                raise ValueError("%s record after the end record" % kind)
            if kind == "snd" and len(parts) == snd_arity:
                _, t_text, src, dst, msg_kind, client, op_seq, arrive_text = parts
                if t_text != last_text:
                    last_t, last_text = float(t_text), t_text
                arrive = arrivals.get(arrive_text)
                rec = ("snd", last_t, name(src), name(dst), kinds[msg_kind][0], name(client),
                       int(op_seq), float(arrive_text) if arrive is None else arrive)
                t, arrive = last_t, rec[7]
                if not isfinite(t):
                    raise ValueError("snd time %s is not finite" % t_text)
                if not isfinite(arrive):
                    raise ValueError("snd arrival %s is not finite" % arrive_text)
                if arrive <= t:
                    raise ValueError(
                        "snd of %s (client %s, op %s) from %s to %s at %s arrives at %s, "
                        "not after its send"
                        % (msg_kind, client, op_seq, src, dst, t_text, arrive_text)
                    )
                arrivals[arrive_text] = arrive
                append(rec)
            elif kind == "dlv" and len(parts) == dlv_arity:
                _, t_text, dst, src, msg_kind, client, op_seq = parts
                t = take(t_text, None)
                if t is None:
                    t = last_t if t_text == last_text else float(t_text)
                last_t, last_text = t, t_text
                rec = ("dlv", t, name(dst), name(src), kinds[msg_kind][0], name(client), int(op_seq))
                if not isfinite(t):
                    raise ValueError("dlv time %s is not finite" % t_text)
                append(rec)
            else:
                if kind == "run":
                    raise ValueError("run header not on line 1")
                if len(parts) != arity.get(kind, 0):
                    raise ValueError("bad trace record %r" % line)
                rec = builders[kind](parts, name)
                if not isfinite(rec[1]):
                    raise ValueError("%s time %s is not finite" % (kind, parts[1]))
                if kind == "tag":
                    append(rec)
                else:
                    trace.add(rec)
        if not trace._ended:
            raise ValueError("trace has no end record")
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None
    return trace


def replay_wire(trace: Trace) -> dict[int, int]:
    """Replay the wire of a complete trace in one pass over its records;
    map op_id -> number of messages sent on behalf of that operation, and
    set each operation record's messages to it.

    A record that breaks a rule below raises ValueError("line N: ..."),
    N being the record's line in the trace's text: its index + 2, after
    the run header.  Per record, the crash rule comes first.
    - No node acts at or after its crash, wherever the crs sits: every
      record but crs and end is an act of the node it names first, the
      sender of a snd, the receiver of a dlv, the process of an inv, res
      or wtag, and the adopting server of a tag.
    - Only a server adopts a tag: a tag by a reader or writer is refused.
    - Each dlv takes up an earlier snd not yet delivered with the same
      sender, receiver, kind, client, op_seq and an arrival equal to the
      dlv's time, first in, first out.  A snd never delivered is legal:
      in flight at the cap, or sent to a crashed node.
    - Every send attributes to exactly one operation, of the kind
      _MESSAGE_KINDS gives the message's kind.  A send carries the
      originating client and that client's operation sequence number
      (op_seq), and a client sends only while one of its operations
      runs, so the first send of a (client, op_seq) pair comes from the
      client itself and names the operation; every later send with that
      pair, a server's relay or ack included, belongs to the same
      operation.
    - Each res's exchanges and the end's stale drops are what the wire
      shows, counted as netsim.run counts them: a node's current
      exchange is 0 at its inv and that of the snd its dlv takes up;
      each snd is its sender's current exchange + 1, and a res takes its
      node's current exchange.  A client's dlv is stale when its op_seq
      is below that of the client's latest snd.
    """
    crash_at = trace.crash_at
    ops = trace.ops
    counts: dict[int, int] = {op_id: 0 for op_id in ops}
    running: dict[str, int] = {}  # client name -> op it last invoked
    op_of: dict[tuple[str, int], int] = {}  # (client name, op_seq) -> op
    exchange_of: dict[str, int] = {}  # node name -> its current exchange
    in_flight: dict[tuple, deque] = {}  # snd fields -> exchanges of the undelivered, never empty
    own_seq: dict[str, int] = {}  # client name -> op_seq of its latest snd
    stale = 0
    lineno = 0
    try:
        for lineno, rec in enumerate(trace.records, start=2):
            kind = rec[0]
            if kind == "crs":
                continue
            if kind == "end":
                if rec[3] != stale:
                    raise ValueError("end claims %d stale drops, the wire shows %d" % (rec[3], stale))
                continue
            t, node = rec[1], rec[2]
            if t >= crash_at.get(node, math.inf):
                raise ValueError("%s %s %s at %s, at or after its crash at %s"
                                 % (kind, "to" if kind == "dlv" else "by", node, t, crash_at[node]))
            if kind == "inv":
                running[node] = rec[3]
                exchange_of[node] = 0
            elif kind == "snd":
                _, _, src, _dst, msg_kind, client, op_seq, _arrive = rec
                op_id = op_of.get((client, op_seq))
                if op_id is None:
                    op_id = running.get(client)
                    if op_id is None or src != client:
                        raise ValueError("send %s for client %s op_seq %d does not attribute "
                                         "to any operation" % (msg_kind, client, op_seq))
                    op_of[(client, op_seq)] = op_id
                expect = _MESSAGE_KINDS[msg_kind][1]
                if ops[op_id].kind != expect:
                    raise ValueError("send %s attributed to a %s operation"
                                     % (msg_kind, ops[op_id].kind))
                counts[op_id] += 1
                in_flight.setdefault(rec[2:], deque()).append(exchange_of.get(src, 0) + 1)
                if src == client:
                    own_seq[src] = op_seq
            elif kind == "dlv":
                _, _, dst, src, msg_kind, client, op_seq = rec
                key = (src, dst, msg_kind, client, op_seq, t)
                pending = in_flight.get(key)
                if not pending:
                    raise ValueError("dlv of %s (client %s, op %s) from %s to %s at %s "
                                     "matches no earlier snd" % (msg_kind, client, op_seq, src, dst, t))
                exchange_of[dst] = pending.popleft()
                if not pending:
                    del in_flight[key]
                if op_seq < own_seq.get(dst, 0):
                    stale += 1
            elif kind == "tag" and not node.startswith("s"):
                raise ValueError("tag by %s, which is not a server" % node)
            elif kind == "res" and rec[4] != exchange_of[node]:
                raise ValueError("res for op %d at %r claims %d exchanges, the wire shows %d"
                                 % (rec[3], t, rec[4], exchange_of[node]))
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None
    for op_id, n in counts.items():
        ops[op_id].messages = n
    return counts
