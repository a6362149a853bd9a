"""Scenario execution and persistence: wire a config into quorums,
topology, workload and protocol, run the simulation, check the result,
and emit trace logs / CSV rows.

File formats are part of the external contract:

Trace log: a run header on line 1, the scenario config as key=value
fields that config.py writes and reads back (ScenarioConfig.describe,
parse_header); then one event per line, tab separated, first field the
record type, last record the end record.  A node appears by its name,
which has exactly one spelling (see core.parse_pid).  One table
(_REC_TYPES) gives every record kind its format string, so a record is
written with a single %, and its builder, which turns a line's fields
into the record in one call once their count is checked; parsing and
re-serializing a trace reproduces it byte for byte.  The parser checks
each line by itself and against the operations of the lines before it
(see trace_from_text); replay_wire holds the whole wire to its rules in
one pass.  verify_trace adds what only `regsim check` pays for: the
replay, the header's scenario validates, the text is canonical, and a
trace whose header holds a scenario is what re-running that scenario
writes.

Operation CSV: one row per completed operation, fixed column schema
(CSV_HEADER below); same seed, same config, same bytes.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import cache
from itertools import zip_longest
from pathlib import Path

from regsim.checker import Verdict, check_atomicity_tagged, extract_history
from regsim.config import ConfigError, ScenarioConfig, build_quorum_system, parse_header, validate
from regsim.core import parse_pid, reader, server, writer
from regsim.metrics import OpStats, per_operation_stats, summarize
from regsim.netsim import Network, Trace, build_topology, run
from regsim.protocols import get_algorithm
from regsim.workload import build_workload

CSV_HEADER = (
    "algorithm,topology,n_servers,n_readers,n_writers,scheme,seed,"
    "op_id,process,op_kind,invoked_at,latency_s,exchanges,messages"
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ATOMICITY = 3
EXIT_LIVENESS = 4


def outcome_exit_code(atomic: bool, incomplete: bool) -> int:
    """The exit code of a run, a checked trace or a sweep: an atomicity
    violation outranks a liveness failure."""
    if not atomic:
        return EXIT_ATOMICITY
    return EXIT_LIVENESS if incomplete else EXIT_OK


# ---------------------------------------------------------------- trace io

# One entry per record kind: its format string, the record-type token
# included, and its builder, which turns the line's tab-split fields into
# the record, name being parse_pid or a cache of it.  A float's %r is its
# str, so both directions reproduce the text.
_REC_TYPES: dict[str, tuple] = {
    "inv": ("%s\t%r\t%s\t%d\t%s\t%s",
            lambda p, name: ("inv", float(p[1]), name(p[2]), int(p[3]), p[4], p[5])),
    "res": ("%s\t%r\t%s\t%d\t%d\t%d\t%d\t%s",
            lambda p, name: ("res", float(p[1]), name(p[2]), int(p[3]), int(p[4]), int(p[5]),
                             int(p[6]), p[7])),
    "snd": ("%s\t%r\t%s\t%s\t%s\t%s\t%d\t%r",
            lambda p, name: ("snd", float(p[1]), name(p[2]), name(p[3]), p[4], name(p[5]),
                             int(p[6]), float(p[7]))),
    "dlv": ("%s\t%r\t%s\t%s\t%s\t%s\t%d",
            lambda p, name: ("dlv", float(p[1]), name(p[2]), name(p[3]), p[4], name(p[5]),
                             int(p[6]))),
    "tag": ("%s\t%r\t%s\t%d\t%d",
            lambda p, name: ("tag", float(p[1]), name(p[2]), int(p[3]), int(p[4]))),
    "wtag": ("%s\t%r\t%s\t%d\t%d\t%d",
             lambda p, name: ("wtag", float(p[1]), name(p[2]), int(p[3]), int(p[4]), int(p[5]))),
    "crs": ("%s\t%r\t%s", lambda p, name: ("crs", float(p[1]), name(p[2]))),
    "end": ("%s\t%r\t%s\t%d\t%d",
            lambda p, name: ("end", float(p[1]), p[2], int(p[3]), int(p[4]))),
}

_FORMATS = {kind: fmt for kind, (fmt, _) in _REC_TYPES.items()}
# Per record kind, the number of tab-separated fields and the builder.
_BUILDERS = {kind: (fmt.count("\t") + 1, build) for kind, (fmt, build) in _REC_TYPES.items()}


def trace_to_text(trace: Trace) -> str:
    if trace.config is None:
        header = {"algorithm": trace.algorithm, "seed": trace.seed}
    else:
        header = trace.config.describe()
    lines = ["\t".join(["run"] + ["%s=%s" % pair for pair in header.items()])]
    lines += [_FORMATS[rec[0]] % rec for rec in trace.records]
    return "\n".join(lines) + "\n"


def trace_from_text(text: str) -> Trace:
    """Parse a trace log; a first line that is not a run header, a
    malformed line, one that contradicts an earlier line (see Trace.add),
    a run header not on line 1 or one config.parse_header refuses, a
    record after the end record, or a trace with no end record (reported
    at its last line) raises ValueError("line N: ...").

    Every record's time and every snd's arrival must be finite, and a snd
    must arrive strictly after it is sent: every link and the loopback
    handoff take time.  What only the wire as a whole shows, deliveries,
    crashes and counts, is replay_wire's to check.
    """
    lines = text.splitlines()
    if not lines or lines[0].split("\t", 1)[0] != "run":
        raise ValueError("line 1: no run header")
    trace = Trace()
    append = trace.records.append
    # Each distinct node name is validated once, and all records naming
    # the node share the str of its first mention.
    name = cache(parse_pid)
    builders = _BUILDERS
    ended = False
    isfinite = math.isfinite
    lineno = 0
    try:
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            parts = line.split("\t")
            kind = parts[0]
            if ended and kind != "end":  # Trace.add refuses a second end
                raise ValueError("%s record after the end record" % kind)
            if kind == "run":
                if lineno != 1:
                    raise ValueError("run header not on line 1")
                trace.algorithm, trace.seed, trace.config = parse_header(parts[1:])
                continue
            arity, build = builders.get(kind, (0, None))
            if len(parts) != arity:
                raise ValueError("bad trace record %r" % line)
            rec = build(parts, name)
            if not isfinite(rec[1]):
                raise ValueError("%s time %s is not finite" % (kind, parts[1]))
            if kind == "snd":
                if not isfinite(rec[7]):
                    raise ValueError("snd arrival %s is not finite" % parts[7])
                if rec[7] <= rec[1]:
                    raise ValueError(
                        "snd of %s (client %s, op %s) from %s to %s at %s arrives at %s, "
                        "not after its send"
                        % (parts[4], parts[5], parts[6], parts[2], parts[3], parts[1], parts[7])
                    )
                append(rec)
            elif kind == "dlv" or kind == "tag":
                append(rec)
            else:
                trace.add(rec)
                ended = kind == "end"
        if not ended:
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
    - Each dlv takes up an earlier snd not yet delivered with the same
      sender, receiver, kind, client, op_seq and an arrival equal to the
      dlv's time, first in, first out.  A snd never delivered is legal:
      in flight at the cap, or sent to a crashed node.
    - Every send attributes to exactly one operation, of the message's
      kind.  A send carries the originating client and that client's
      operation sequence number (op_seq), and a client sends only while
      one of its operations runs, so the first send of a (client, op_seq)
      pair comes from the client itself and names the operation; every
      later send with that pair, a server's relay or ack included,
      belongs to the same operation.
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
    in_flight: dict[tuple, deque] = {}  # snd fields -> exchanges of the undelivered
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
                expect = "read" if msg_kind.startswith("read") else "write"
                if ops[op_id].kind != expect:
                    raise ValueError("send %s attributed to a %s operation"
                                     % (msg_kind, ops[op_id].kind))
                counts[op_id] += 1
                in_flight.setdefault(rec[2:], deque()).append(exchange_of.get(src, 0) + 1)
                if src == client:
                    own_seq[src] = op_seq
            elif kind == "dlv":
                _, _, dst, src, msg_kind, client, op_seq = rec
                pending = in_flight.get((src, dst, msg_kind, client, op_seq, t))
                if not pending:
                    raise ValueError("dlv of %s (client %s, op %s) from %s to %s at %s "
                                     "matches no earlier snd" % (msg_kind, client, op_seq, src, dst, t))
                exchange_of[dst] = pending.popleft()
                if op_seq < own_seq.get(dst, 0):
                    stale += 1
            elif kind == "res" and rec[4] != exchange_of[node]:
                raise ValueError("res for op %d at %r claims %d exchanges, the wire shows %d"
                                 % (rec[3], t, rec[4], exchange_of[node]))
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None
    for op_id, n in counts.items():
        ops[op_id].messages = n
    return counts


def verify_trace(text: str) -> Trace:
    """Parse a trace as `regsim check` does: trace_from_text, then the
    checks only check pays for, each raising ValueError:
    - the wire replays (replay_wire, "line N: ...");
    - the header's scenario, if it has one, passes config.validate, and
      a bare header names a known algorithm ("line 1: ...");
    - the text is exactly what trace_to_text writes for the parsed trace,
      so every number and node has one spelling, the header keys are in
      their order and no line is blank ("line N: ..." at the first line
      that differs);
    - if the header holds a scenario, the text is exactly what
      trace_to_text writes for run_scenario of it ("line N: re-run
      gives ..." at the first line that differs).  A bare header names
      no scenario, so its trace is not re-run.
    They stay out of trace_from_text because the replay costs about half
    a parse, validating a scenario scans quorums, re-serialising costs
    about three quarters of a parse and the re-run about two parses, and
    the parse alone is what a benchmark's re-check times.
    """
    trace = trace_from_text(text)
    replay_wire(trace)
    try:
        if trace.config is None:
            get_algorithm(trace.algorithm)
        else:
            validate(trace.config)
    except ConfigError as exc:
        raise ValueError("line 1: %s" % exc) from None
    except KeyError as exc:
        raise ValueError("line 1: %s" % exc.args[0]) from None
    canonical = trace_to_text(trace)
    if canonical != text:
        raise ValueError("line %d: %r is not canonical, trace_to_text writes %r"
                         % _first_difference(text, canonical))
    if trace.config is not None:
        rerun = trace_to_text(run_scenario(trace.config).trace)
        if rerun != text:
            lineno, found, expected = _first_difference(text, rerun)
            raise ValueError("line %d: re-run gives %r, trace has %r" % (lineno, expected, found))
    return trace


def _first_difference(text: str, expected: str) -> tuple[int, str, str]:
    """(line number, line of text, line of expected) at the first line
    where two different texts differ; a missing line reads as ''."""
    pairs = zip_longest(text.splitlines(True), expected.splitlines(True), fillvalue="")
    return next((lineno, found, want)
                for lineno, (found, want) in enumerate(pairs, start=1) if found != want)


# ---------------------------------------------------------------- running

def build_network(config: ScenarioConfig) -> Network:
    net = build_topology(config.topology, config.n_servers, config.n_readers, config.n_writers)
    net.jitter_max = config.jitter_max
    return net


def crash_schedule(config: ScenarioConfig) -> list:
    out = [(server(i), t) for i, t in config.crash_servers]
    out += [(reader(i), t) for i, t in config.crash_readers]
    out += [(writer(i), t) for i, t in config.crash_writers]
    return out


@dataclass
class RunResult:
    config: ScenarioConfig
    trace: Trace
    verdict: Verdict
    stats: list[OpStats]

    def csv_text(self) -> str:
        prefix = "%s,%s,%d,%d,%d,%s,%d" % (
            self.config.algorithm, self.config.topology, self.config.n_servers,
            self.config.n_readers, self.config.n_writers, self.config.scheme,
            self.config.seed,
        )
        lines = [CSV_HEADER]
        for s in self.stats:
            lines.append("%s,%d,%s,%s,%s,%s,%d,%d" % (
                prefix, s.op_id, s.process, s.kind,
                repr(s.invoked_at), repr(s.latency_s), s.exchanges, s.messages,
            ))
        return "\n".join(lines) + "\n"

    def exit_code(self) -> int:
        return outcome_exit_code(self.verdict.ok, self.trace.incomplete)


def run_scenario(config: ScenarioConfig) -> RunResult:
    qs = build_quorum_system(config)
    net = build_network(config)
    trace = run(
        net,
        get_algorithm(config.algorithm),
        qs,
        build_workload(config),
        crash_schedule(config),
        seed=config.seed,
        cap_s=config.cap_seconds,
    )
    trace.config = config
    stats = per_operation_stats(trace)
    verdict = check_atomicity_tagged(extract_history(trace))
    return RunResult(config, trace, verdict, stats)


def write_outputs(result: RunResult, out_dir: Path) -> dict[str, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "trace": out_dir / "trace.log",
        "csv": out_dir / "results.csv",
        "verdict": out_dir / "verdict.txt",
    }
    paths["trace"].write_text(trace_to_text(result.trace))
    paths["csv"].write_text(result.csv_text())
    v = result.verdict
    status = "ok" if v.ok else "%s: %s (witness %s)" % (v.violated, v.detail, list(v.witness))
    liveness = "incomplete" if result.trace.incomplete else "complete"
    paths["verdict"].write_text("atomicity: %s\nliveness: %s\n" % (status, liveness))
    return paths


# ----------------------------------------------------------------- sweeps

AGGREGATE_HEADER = (
    "algorithm,topology,n_servers,n_readers,n_writers,scheme,seeds,op_kind,"
    "count,mean_latency_s,median_latency_s,p95_latency_s,max_latency_s,fast_read_ratio"
)


class SweepError(RuntimeError):
    def __init__(self, report: list[str], exit_code: int):
        super().__init__("\n".join(report))
        self.report = report
        self.exit_code = exit_code


def _cell_key(config: ScenarioConfig) -> tuple:
    return (config.algorithm, config.topology, config.n_servers,
            config.n_readers, config.n_writers, config.scheme)


def _cell_name(key: tuple) -> str:
    return "%s_%s_s%d_r%d_w%d_%s" % key


def _refuse_pooled_cells(configs: list[ScenarioConfig]) -> None:
    """Raise ConfigError naming the cell file if two configs of one cell
    differ in a field other than seed, or are the same config twice:
    the cell's files and its aggregate row would pool them."""
    first_of_cell: dict[tuple, ScenarioConfig] = {}
    seen: set[ScenarioConfig] = set()
    for config in configs:
        key = _cell_key(config)
        cell = "sweep: cell %s.csv" % _cell_name(key)
        first = first_of_cell.setdefault(key, config)
        differ = [f.name for f in fields(config)
                  if f.name != "seed" and getattr(config, f.name) != getattr(first, f.name)]
        if differ:
            raise ConfigError(["%s would pool runs that differ in %s" % (cell, differ[0])])
        if config in seen:
            raise ConfigError(["%s would pool seed %d twice" % (cell, config.seed)])
        seen.add(config)


def _sweep_job(config: ScenarioConfig):
    result = run_scenario(config)
    return (
        config,
        result.verdict,
        result.trace.incomplete,
        result.stats,
        result.csv_text(),
    )


def sweep(
    configs: list[ScenarioConfig],
    out_dir: Path,
    parallelism: int = 1,
) -> dict[str, Path]:
    """Run every config, write one op-level CSV per cell (all its seeds)
    plus an aggregate CSV across seeds.  Raises SweepError if any run
    violates atomicity or does not finish.  Before any run or file,
    raises ConfigError if parallelism is below 1 or a cell would pool
    runs that are not one scenario's seeds (see _refuse_pooled_cells).
    At most parallelism worker processes run, and never more than there
    are configs or CPUs: a fork pool starts all its workers at once."""
    if parallelism < 1:
        raise ConfigError(["sweep: parallelism must be at least 1, got %d" % parallelism])
    _refuse_pooled_cells(configs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = min(parallelism, len(configs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_job, configs, chunksize=1))
    else:
        outcomes = [_sweep_job(c) for c in configs]

    failures: list[str] = []
    cells: dict[tuple, list] = {}
    for config, verdict, incomplete, stats, csv_text in outcomes:
        label = "%s seed %d" % (_cell_name(_cell_key(config)), config.seed)
        code = outcome_exit_code(verdict.ok, incomplete)
        if code == EXIT_ATOMICITY:
            failures.append("%s: atomicity %s — %s" % (label, verdict.violated, verdict.detail))
        elif code == EXIT_LIVENESS:
            failures.append("%s: liveness cap hit with operations pending" % label)
        cells.setdefault(_cell_key(config), []).append((config, stats, csv_text))

    paths: dict[str, Path] = {}
    agg_lines = [AGGREGATE_HEADER]
    for key in sorted(cells):
        runs = cells[key]
        body = []
        for _, _, csv_text in runs:
            body += csv_text.splitlines()[1:]
        cell_path = out_dir / (_cell_name(key) + ".csv")
        cell_path.write_text("\n".join([CSV_HEADER] + body) + "\n")
        paths[_cell_name(key)] = cell_path
        pooled = [s for _, stats, _ in runs for s in stats]
        for summary in summarize(pooled):
            ratio = "" if summary.fast_read_ratio is None else repr(summary.fast_read_ratio)
            agg_lines.append("%s,%s,%d,%d,%d,%s,%d,%s,%d,%s,%s,%s,%s,%s" % (
                key[0], key[1], key[2], key[3], key[4], key[5], len(runs),
                summary.op_kind, summary.count,
                repr(summary.mean_latency), repr(summary.median_latency),
                repr(summary.p95_latency), repr(summary.max_latency), ratio,
            ))
    agg_path = out_dir / "aggregate.csv"
    agg_path.write_text("\n".join(agg_lines) + "\n")
    paths["aggregate"] = agg_path

    if failures:
        atomic = all(outcome[1].ok for outcome in outcomes)
        capped = any(outcome[2] for outcome in outcomes)
        raise SweepError(failures, outcome_exit_code(atomic, capped))
    return paths
