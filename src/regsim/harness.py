"""Scenario execution and persistence: wire a config into quorums,
topology, workload and protocol, run the simulation, check the result,
and emit trace logs / CSV rows.

File formats are part of the external contract:

Trace log: one event per line, tab separated, first field the record
type.  Every field is written with str; for a float that is its repr, so
parsing and re-serializing a trace reproduces it byte for byte, and a
process id has exactly one spelling (see core.parse_pid).  In-memory view
classification notes are not persisted.  Besides the per-line checks of
Trace.add, the parser enforces the wire invariants: every delivery takes
up an earlier matching send, and no node acts (sends, receives, invokes,
responds or adopts a tag) at or after its crash (see trace_from_text).

Operation CSV: one row per completed operation, fixed column schema
(CSV_HEADER below); same seed, same config, same bytes.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from regsim.checker import Verdict, check_atomicity_tagged, extract_history
from regsim.config import ScenarioConfig, build_quorum_system
from regsim.core import parse_pid, reader, server, writer
from regsim.metrics import OpStats, Summary, per_operation_stats, summarize
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

_REC_TYPES: dict[str, tuple] = {
    # field converters after the leading record-type token
    "inv": (float, parse_pid, int, str, str),
    "res": (float, parse_pid, int, int, int, int, str),
    "snd": (float, parse_pid, parse_pid, str, parse_pid, int, float),
    "dlv": (float, parse_pid, parse_pid, str, parse_pid, int),
    "tag": (float, parse_pid, int, int),
    "wtag": (float, parse_pid, int, int, int),
    "crs": (float, parse_pid),
    "end": (float, str, int, int),
}


def trace_to_text(trace: Trace) -> str:
    head = ["run", "algorithm=%s" % trace.algorithm, "seed=%d" % trace.seed]
    head += ["%s=%s" % (k, v) for k, v in sorted(trace.meta.items()) if k not in ("algorithm", "seed")]
    # One formatter per token, the record type included: each node's name
    # is formatted once per trace, every other field goes through str.
    name = cache(str)
    formatters = {
        kind: (str,) + tuple(name if conv is parse_pid else str for conv in convs)
        for kind, convs in _REC_TYPES.items()
    }
    lines = ["\t".join(head)]
    lines += [
        "\t".join([fmt(field) for fmt, field in zip(formatters[rec[0]], rec)])
        for rec in trace.records
    ]
    return "\n".join(lines) + "\n"


def trace_from_text(text: str) -> Trace:
    """Parse a trace log; a malformed line, one that contradicts an
    earlier line (see Trace.add), or a message delivery the wire cannot
    explain raises ValueError("line N: ...").

    Each dlv must take up an earlier snd not yet delivered with the same
    sender, receiver, message kind, client, op_seq, and an arrival time
    written as the dlv's time; a snd never delivered is legal (in flight
    at the cap, or sent to a crashed node).  No node may act at or after
    its crs, wherever the crs sits in the file: it acts in every record
    that names it first, as the sender of a snd, the receiver of a dlv,
    the process of an inv, res or wtag, and the adopting server of a tag.
    """
    trace = Trace()
    append = trace.records.append
    # One converter per token, the record type included: each distinct
    # process name is parsed once, and all records naming it share one
    # ProcessId.
    pid = cache(parse_pid)
    converters = {
        kind: (str,) + tuple(pid if conv is parse_pid else conv for conv in convs)
        for kind, convs in _REC_TYPES.items()
    }
    # snd tokens (src, dst, kind, client, op_seq, arrival) -> sends not
    # yet delivered; and node token -> (its latest act's time, line, kind).
    in_flight: dict[tuple, int] = {}
    last_act: dict[str, tuple[float, int, str]] = {}
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line:
                continue
            parts = line.split("\t")
            kind = parts[0]
            if kind == "run":
                for part in parts[1:]:
                    key, _, val = part.partition("=")
                    if key == "algorithm":
                        trace.algorithm = val
                    elif key == "seed":
                        trace.seed = int(val)
                    else:
                        trace.meta[key] = val
                continue
            convs = converters.get(kind)
            if convs is None or len(parts) != len(convs):
                raise ValueError("bad trace record %r" % line)
            rec = tuple([conv(part) for conv, part in zip(convs, parts)])
            if kind == "snd":
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
                    continue
            # Every other record is an act of the node it names first.
            latest = last_act.get(parts[2])
            if latest is None or rec[1] > latest[0]:
                last_act[parts[2]] = (rec[1], lineno, kind)
        for node, crashed_at in trace.crash_at.items():
            latest = last_act.get(str(node))
            if latest is not None and latest[0] >= crashed_at:
                t, lineno, kind = latest
                raise ValueError("%s %s %s at %s, at or after its crash at %s"
                                 % (kind, "to" if kind == "dlv" else "by", node, t, crashed_at))
    except ValueError as exc:
        raise ValueError("line %d: %s" % (lineno, exc)) from None
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
    trace.meta = config.describe()
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
