"""Scenario execution and persistence: wire a config into quorums,
topology, workload and protocol, run the simulation, check the result,
and emit trace logs / CSV rows.

The trace log's format is trace.py's.  verify_trace is what `regsim
check` runs: a trace whose header holds a scenario must be exactly what
re-running that scenario writes, and the re-run's wire must replay; a
bare header's trace is parsed, replayed and must be canonical.

Operation CSV: one row per completed operation, fixed column schema
(CSV_HEADER below); same seed, same config, same bytes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from itertools import zip_longest
from pathlib import Path
from typing import Optional

from regsim.checker import Verdict, check_atomicity_tagged, extract_history
from regsim.config import ConfigError, ScenarioConfig, build_quorum_system, validate
from regsim.core import reader, server, writer
from regsim.metrics import OpStats, per_operation_stats, summarize
from regsim.netsim import Network, build_topology, run
from regsim.protocols import get_algorithm
from regsim.trace import (
    Trace,
    first_line,
    header_line,
    read_header,
    replay_wire,
    trace_from_text,
    trace_to_text,
)
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


def verify_trace(text: str) -> tuple[Trace, Optional[Verdict]]:
    """The trace `regsim check` judges and the re-run's verdict (None for
    a bare header), or ValueError("line N: ...") at the first fault
    found.  read_header reads line 1, and its scenario passes
    config.validate or a bare header names a known algorithm
    ("line 1: ...").  Then the text is held to the trace its header
    says wrote it, whose wire replays (replay_wire):
    - a scenario header's trace is run_scenario of it: a run is a pure
      function of its config and seed, so the text must be exactly what
      trace_to_text writes for the re-run ("line N: re-run gives ..." at
      the first line that differs).  That one comparison implies the
      parse, the replay of the parsed wire and the canonical compare,
      as a parsed text equals the trace it was written from.  Line 1 is
      compared before the re-run, with the header_line it would write,
      so a header that is not the canonical one runs nothing;
    - a bare header names no scenario, so its trace is trace_from_text
      of the text, whose parse and replay refuse first; then the text
      must be exactly what trace_to_text writes for it, so every number
      and node has one spelling, the header keys are in their order and
      no line is blank ("line N: ... is not canonical" at the first line
      that differs).
    The replay, the scenario's validation and the comparison stay out of
    trace_from_text, which is what a benchmark's re-check times.
    """
    algorithm, seed, config = read_header(text)
    try:
        if config is None:
            get_algorithm(algorithm)
        else:
            validate(config)
    except ConfigError as exc:
        raise ValueError("line 1: %s" % exc) from None
    except KeyError as exc:
        raise ValueError("line 1: %s" % exc.args[0]) from None
    if config is None:
        trace, verdict = trace_from_text(text), None
        refusal = "%(found)r is not canonical, trace_to_text writes %(want)r"
    else:
        refusal = "re-run gives %(want)r, trace has %(found)r"
        header, found = header_line(algorithm, seed, config) + "\n", first_line(text)
        if found != header:  # the re-run would write that header first
            raise ValueError("line 1: " + refusal % {"found": found, "want": header})
        result = run_scenario(config)
        trace, verdict = result.trace, result.verdict
    replay_wire(trace)
    expected = trace_to_text(trace)
    if expected != text:
        lineno, found, want = _first_difference(text, expected)
        raise ValueError("line %d: " % lineno + refusal % {"found": found, "want": want})
    return trace, verdict


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
