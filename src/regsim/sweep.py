"""Sweeps: run a grid of scenarios, serially or in a pool of worker
processes, and write one operation CSV per cell (all its seeds) plus an
aggregate CSV across seeds.  Only the CLI imports this module, so
concurrent.futures, and logging and threading with it, stay out of every
other import of regsim: a run or a check needs none of them.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import fields
from pathlib import Path

from regsim.config import CSV_FIELDS, ConfigError, ScenarioConfig
from regsim.harness import CSV_HEADER, EXIT_ATOMICITY, EXIT_LIVENESS, outcome_exit_code, run_scenario
from regsim.metrics import summarize

# A cell's columns: every scenario column of the operation CSV but the seed.
_CELL_FIELDS = CSV_FIELDS[:-1]
AGGREGATE_HEADER = ",".join(_CELL_FIELDS + (
    "seeds", "op_kind", "count", "mean_latency_s", "median_latency_s", "p95_latency_s",
    "max_latency_s", "fast_read_ratio"))


class SweepError(RuntimeError):
    def __init__(self, report: list[str], exit_code: int):
        super().__init__("\n".join(report))
        self.report = report
        self.exit_code = exit_code


def _cell_key(config: ScenarioConfig) -> tuple:
    return tuple(getattr(config, name) for name in _CELL_FIELDS)


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
    are configs or CPUs: a fork pool starts all its workers at once.
    The pool's module, and multiprocessing with it, loads only when more
    than one worker runs."""
    if parallelism < 1:
        raise ConfigError(["sweep: parallelism must be at least 1, got %d" % parallelism])
    _refuse_pooled_cells(configs)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = min(parallelism, len(configs), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
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
        prefix = ",".join(map(str, key))
        body = []
        for _, _, csv_text in runs:
            body += csv_text.splitlines()[1:]
        cell_path = out_dir / (_cell_name(key) + ".csv")
        cell_path.write_text("\n".join([CSV_HEADER] + body) + "\n")
        paths[_cell_name(key)] = cell_path
        pooled = [s for _, stats, _ in runs for s in stats]
        for summary in summarize(pooled):
            ratio = "" if summary.fast_read_ratio is None else repr(summary.fast_read_ratio)
            agg_lines.append("%s,%d,%s,%d,%s,%s,%s,%s,%s" % (
                prefix, len(runs),
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
