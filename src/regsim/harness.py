"""Scenario execution and persistence: wire a config into quorums,
topology, workload and protocol, run the simulation, check the result,
and emit trace logs / CSV rows.

File formats are part of the external contract:

Trace log: a run header on line 1, the scenario config as key=value
fields that config.py writes and reads back (ScenarioConfig.describe,
parse_header); then one event per line, tab separated, first field the
record type, last record the end record.  A node appears by its name,
which has exactly one spelling (see core.parse_pid).  One table
(_REC_TYPES) gives every field of every record kind its parser and its
%-conversion, so a record is written with a single % on its kind's
format string, and parsing and re-serializing a trace reproduces it byte
for byte.  Besides the per-line checks of Trace.add, the parser enforces
the wire invariants: every send arrives after it is sent, every delivery
takes up an earlier matching send, and no node acts (sends, receives,
invokes, responds or adopts a tag) at or after its crash (see
trace_from_text).  verify_trace adds what only `regsim check` pays for:
the header's scenario validates, the text is canonical, and the wire's
counts are what its records show.

Operation CSV: one row per completed operation, fixed column schema
(CSV_HEADER below); same seed, same config, same bytes.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache
from itertools import zip_longest
from pathlib import Path

from regsim.checker import Verdict, check_atomicity_tagged, extract_history
from regsim.config import ConfigError, ScenarioConfig, build_quorum_system, parse_header, validate
from regsim.core import parse_pid, reader, server, writer
from regsim.metrics import OpStats, Summary, attribute_messages, per_operation_stats, summarize
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


# ---------------------------------------------------------------- trace io

# Each field after the leading record-type token, as (parser, % conversion).
# A float's %r is its str, so both directions reproduce the text.
_FLOAT = (float, "%r")
_INT = (int, "%d")
_STR = (str, "%s")
_NAME = (parse_pid, "%s")

_REC_TYPES: dict[str, tuple] = {
    "inv": (_FLOAT, _NAME, _INT, _STR, _STR),
    "res": (_FLOAT, _NAME, _INT, _INT, _INT, _INT, _STR),
    "snd": (_FLOAT, _NAME, _NAME, _STR, _NAME, _INT, _FLOAT),
    "dlv": (_FLOAT, _NAME, _NAME, _STR, _NAME, _INT),
    "tag": (_FLOAT, _NAME, _INT, _INT),
    "wtag": (_FLOAT, _NAME, _INT, _INT, _INT),
    "crs": (_FLOAT, _NAME),
    "end": (_FLOAT, _STR, _INT, _INT),
}

# One format string per record kind, the record-type token included.
_FORMATS: dict[str, str] = {
    kind: "\t".join(["%s"] + [conversion for _, conversion in fields])
    for kind, fields in _REC_TYPES.items()
}


def trace_to_text(trace: Trace) -> str:
    if trace.config is None:
        header = {"algorithm": trace.algorithm, "seed": trace.seed}
    else:
        header = trace.config.describe()
    lines = ["\t".join(["run"] + ["%s=%s" % pair for pair in header.items()])]
    lines += [_FORMATS[rec[0]] % rec for rec in trace.records]
    return "\n".join(lines) + "\n"


def trace_from_text(text: str) -> Trace:
    """Parse a trace log; a malformed line, one that contradicts an
    earlier line (see Trace.add), a message send or delivery the wire
    cannot explain, a run header not on line 1 or one config.parse_header
    refuses, a record after the end record, or a trace with no end record
    (reported at its last line) raises ValueError("line N: ...").

    Every record's time and every snd's arrival must be finite, and a snd
    must arrive strictly after it is sent: every link and the loopback
    handoff take time.  Each dlv must take up an earlier snd not
    yet delivered with the same sender, receiver, message kind, client,
    op_seq, and an arrival time written as the dlv's time; a snd never
    delivered is legal (in flight at the cap, or sent to a crashed node).
    No node may act at or after its crs, wherever the crs sits in the
    file: it acts in every record that names it first, as the sender of a
    snd, the receiver of a dlv, the process of an inv, res or wtag, and
    the adopting server of a tag.
    """
    trace = Trace()
    append = trace.records.append
    # One converter per token, the record type included: each distinct
    # node name is validated once, and all records naming the node share
    # the str of its first mention.
    name = cache(parse_pid)
    converters = {
        kind: (str,) + tuple(name if parse is parse_pid else parse for parse, _ in fields)
        for kind, fields in _REC_TYPES.items()
    }
    # snd tokens (src, dst, kind, client, op_seq, arrival) -> sends not
    # yet delivered; and node name -> (its latest act's time, line, kind).
    in_flight: dict[tuple, int] = {}
    last_act: dict[str, tuple[float, int, str]] = {}
    ended = False
    isfinite = math.isfinite
    lineno = 0
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
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
            convs = converters.get(kind)
            if convs is None or len(parts) != len(convs):
                raise ValueError("bad trace record %r" % line)
            rec = tuple([conv(part) for conv, part in zip(convs, parts)])
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
                key = tuple(parts[2:])
                in_flight[key] = in_flight.get(key, 0) + 1
                append(rec)
            elif kind == "dlv":
                _, t, dst, src, msg_kind, client, op_seq = parts
                key = (src, dst, msg_kind, client, op_seq, t)
                pending = in_flight.pop(key, 0)
                if not pending:
                    raise ValueError(
                        "dlv of %s (client %s, op %s) from %s to %s at %s matches no earlier snd"
                        % (msg_kind, client, op_seq, src, dst, t)
                    )
                if pending > 1:
                    in_flight[key] = pending - 1
                append(rec)
            elif kind == "tag":
                append(rec)
            else:
                trace.add(rec)
                if kind == "crs" or kind == "end":
                    ended = kind == "end"
                    continue
            # Every other record is an act of the node it names first.
            latest = last_act.get(rec[2])
            if latest is None or rec[1] > latest[0]:
                last_act[rec[2]] = (rec[1], lineno, kind)
        for node, crashed_at in trace.crash_at.items():
            latest = last_act.get(node)
            if latest is not None and latest[0] >= crashed_at:
                t, lineno, kind = latest
                raise ValueError("%s %s %s at %s, at or after its crash at %s"
                                 % (kind, "to" if kind == "dlv" else "by", node, t, crashed_at))
        if not ended:
            raise ValueError("trace has no end record")
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None
    return trace


def verify_trace(text: str) -> Trace:
    """Parse a trace as `regsim check` does: trace_from_text, then the
    checks only check pays for, each raising ValueError:
    - the header's scenario, if it has one, passes config.validate
      ("line 1: ...");
    - the text is exactly what trace_to_text writes for the parsed trace,
      so every number and node has one spelling, the header keys are in
      their order and no line is blank ("line N: ..." at the first line
      that differs);
    - every send attributes to an operation, and each res's exchanges
      and the end's stale drops are what the wire shows
      (metrics.attribute_messages).
    They stay out of trace_from_text because validating a scenario scans
    quorums and re-serialising costs about half a parse, and the parse
    alone is what a benchmark's re-check times.
    """
    trace = trace_from_text(text)
    if trace.config is not None:
        try:
            validate(trace.config)
        except ConfigError as exc:
            raise ValueError("line 1: %s" % exc) from None
    canonical = trace_to_text(trace)
    if canonical != text:
        pairs = zip_longest(text.splitlines(True), canonical.splitlines(True), fillvalue="")
        for lineno, (found, expected) in enumerate(pairs, start=1):
            if found != expected:
                raise ValueError("line %d: %r is not canonical, trace_to_text writes %r"
                                 % (lineno, found, expected))
    attribute_messages(trace)
    return trace


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

    def summaries(self) -> list[Summary]:
        return summarize(self.stats)

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
        if not self.verdict.ok:
            return EXIT_ATOMICITY
        if self.trace.incomplete:
            return EXIT_LIVENESS
        return EXIT_OK


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
    violates atomicity or does not finish."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            outcomes = list(pool.map(_sweep_job, configs, chunksize=1))
    else:
        outcomes = [_sweep_job(c) for c in configs]

    failures: list[str] = []
    worst = EXIT_OK
    cells: dict[tuple, list] = {}
    for config, verdict, incomplete, stats, csv_text in outcomes:
        label = "%s seed %d" % (_cell_name(_cell_key(config)), config.seed)
        if not verdict.ok:
            failures.append("%s: atomicity %s — %s" % (label, verdict.violated, verdict.detail))
            worst = EXIT_ATOMICITY
        elif incomplete:
            failures.append("%s: liveness cap hit with operations pending" % label)
            if worst == EXIT_OK:
                worst = EXIT_LIVENESS
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
        raise SweepError(failures, worst)
    return paths
