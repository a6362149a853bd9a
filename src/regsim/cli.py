"""Command line interface.

    regsim run <config.ini>     simulate one scenario, check it, report
    regsim sweep <grid.ini>     run a config grid, write per-cell + aggregate CSVs
    regsim check <trace.log>    re-verify a persisted trace
    regsim report <csv...>      summarize operation CSVs

Exit codes: 0 ok, 1 output error (a closed stdout ends quietly), 2 config or
input error, 3 atomicity violation, 4 liveness cap hit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv as csv_module
import io
import math
import os
import sys
from pathlib import Path
from typing import Optional

from regsim.checker import check_atomicity_tagged, extract_history
from regsim.config import ConfigError, csv_int, parse_config, parse_csv_scenario, parse_grid, with_overrides
from regsim.core import CLIENT_KIND, parse_pid
from regsim.harness import (
    CSV_HEADER,
    EXIT_ATOMICITY,
    EXIT_CONFIG,
    EXIT_LIVENESS,
    EXIT_OK,
    EXIT_OUTPUT,
    outcome_exit_code,
    run_scenario,
    verify_trace,
    write_outputs,
)
from regsim.metrics import OpStats, summarize
from regsim.sweep import SweepError, sweep


class _InputError(Exception):
    """An input file that cannot be read or is not UTF-8, with the error's text."""


def _read_text(path: str, **open_args) -> str:
    try:
        with open(path, encoding="utf-8", **open_args) as fh:
            return fh.read()
    except OSError as exc:
        raise _InputError(exc) from None
    except UnicodeDecodeError as exc:
        raise _InputError("%s: %s" % (path, exc)) from None


def _print_summaries(result_like_stats) -> None:
    for s in summarize(result_like_stats):
        ratio = "" if s.fast_read_ratio is None else "  fast=%.3f" % s.fast_read_ratio
        hist = " ".join("%d:%d" % kv for kv in sorted(s.exchange_histogram.items()))
        print(
            "%-12s %-5s n=%-5d mean=%.6fs median=%.6fs p95=%.6fs max=%.6fs exch[%s]%s"
            % (s.algorithm, s.op_kind, s.count, s.mean_latency, s.median_latency,
               s.p95_latency, s.max_latency, hist, ratio)
        )


def _cmd_run(args) -> int:
    config = with_overrides(parse_config(_read_text(args.config)), seed=args.seed,
                            jitter_max=args.jitter_max, cap_seconds=args.cap_seconds)
    result = run_scenario(config)
    print("scenario: %s on %s, %d servers (%s quorums), %d readers, %d writers, seed %d"
          % (config.algorithm, config.topology, config.n_servers, config.quorums,
             config.n_readers, config.n_writers, config.seed))
    completed = len(result.stats)
    total = len(result.trace.ops)
    print("operations: %d completed of %d invoked; %d stale deliveries; %d skipped invocations"
          % (completed, total, result.trace.stale_drops, result.trace.skipped_invokes))
    _print_summaries(result.stats)
    if args.out_dir:
        paths = write_outputs(result, Path(args.out_dir))
        for name, p in sorted(paths.items()):
            print("wrote %s: %s" % (name, p))
    v = result.verdict
    code = result.exit_code()
    if code == EXIT_ATOMICITY:
        print("atomicity VIOLATED (%s): %s" % (v.violated, v.detail), file=sys.stderr)
    elif code == EXIT_LIVENESS:
        print("liveness: cap %.1fs hit with operations pending" % config.cap_seconds,
              file=sys.stderr)
    else:
        print("atomicity: ok; all operations of live clients completed")
    return code


def _cmd_sweep(args) -> int:
    try:
        configs = parse_grid(_read_text(args.grid))
        print("sweep: %d runs" % len(configs))
        paths = sweep(configs, Path(args.out_dir), parallelism=args.parallelism)
    except SweepError as exc:
        for line in exc.report:
            print("failed: %s" % line, file=sys.stderr)
        return exc.exit_code
    for name, p in sorted(paths.items()):
        print("wrote %s" % p)
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        # No newline translation: the file's own line breaks are judged.
        trace, verdict = verify_trace(_read_text(args.trace, newline=""))
        if verdict is None or args.strict:
            # Raises ValueError on overlapping operations of one client.
            verdict = check_atomicity_tagged(extract_history(trace), strict=args.strict)
    except ValueError as exc:
        print("input error: %s: %s" % (args.trace, exc), file=sys.stderr)
        return EXIT_CONFIG
    if trace.config is None:
        print("re-run: skipped, the run header names no scenario")
    code = outcome_exit_code(verdict.ok, trace.incomplete)
    if code == EXIT_ATOMICITY:
        print("atomicity VIOLATED (%s): %s (witness %s)"
              % (verdict.violated, verdict.detail, list(verdict.witness)), file=sys.stderr)
        return code
    print("atomicity: ok (%d operations, %d completed)"
          % (len(trace.ops), sum(1 for o in trace.ops.values() if o.completed)))
    if code == EXIT_LIVENESS:
        print("liveness: trace ended with live operations pending", file=sys.stderr)
    return code


def _at_least(row: dict, column: str, least: int, convert=None):
    """The column's value, refused unless finite and at least least: an
    int as config.csv_int reads it, or convert of the column's text."""
    v = csv_int(row, column) if convert is None else convert(row[column])
    if not least <= v < math.inf:
        raise ValueError("%s: expected a finite value >= %d, got %s" % (column, least, row[column]))
    return v


def _op_stats(row: dict) -> OpStats:
    """A per-operation CSV row as OpStats.  ValueError, naming the first
    bad column, for a row that `run` never writes; its scenario columns
    are held to config.validate, whose first error it gives."""
    if None in row or None in row.values():
        raise ValueError("expected %d fields" % len(CSV_HEADER.split(",")))
    try:
        config = parse_csv_scenario(row)
    except ConfigError as exc:
        raise ValueError(exc.errors[0]) from None
    op_id = _at_least(row, "op_id", 1)
    process = parse_pid(row["process"])
    kind = CLIENT_KIND.get(process[0])
    if kind is None:
        raise ValueError("process %s is not a client" % process)
    count_column = "n_readers" if kind == "read" else "n_writers"
    count = getattr(config, count_column)
    if int(process[1:]) >= count:
        raise ValueError("process %s: %s is %d" % (process, count_column, count))
    if row["op_kind"] != kind:
        raise ValueError("op_kind: %s runs %ss, got %r" % (process, kind, row["op_kind"]))
    return OpStats(
        algorithm=config.algorithm,
        op_id=op_id,
        process=process,
        kind=kind,
        invoked_at=_at_least(row, "invoked_at", 0, float),
        latency_s=_at_least(row, "latency_s", 0, float),
        exchanges=_at_least(row, "exchanges", 0),
        messages=_at_least(row, "messages", 0),
    )


def _cmd_report(args) -> int:
    stats: list[OpStats] = []
    for path in args.csv:
        reader = csv_module.DictReader(io.StringIO(_read_text(path, newline=""), newline=""))
        if reader.fieldnames != CSV_HEADER.split(","):
            print("%s: not a per-operation csv (header %r)"
                  % (path, ",".join(reader.fieldnames or [])), file=sys.stderr)
            return EXIT_CONFIG
        for row in reader:
            try:
                stats.append(_op_stats(row))
            except ValueError as exc:
                print("%s: line %d: %s" % (path, reader.line_num, exc), file=sys.stderr)
                return EXIT_CONFIG
    if not stats:
        print("no operations found", file=sys.stderr)
        return EXIT_OK
    _print_summaries(stats)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="regsim",
        description="Simulate and verify quorum-based atomic register protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--jitter-max", type=float, default=None)
    p_run.add_argument("--cap-seconds", type=float, default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of scenarios")
    p_sweep.add_argument("grid")
    p_sweep.add_argument("--out-dir", default="sweep-out")
    p_sweep.add_argument("--parallelism", type=int, default=1)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_check = sub.add_parser("check", help="verify a persisted trace log")
    p_check.add_argument("trace")
    p_check.add_argument("--strict", action="store_true",
                         help="order unfinished tagged writes too")
    p_check.set_defaults(fn=_cmd_check)

    p_report = sub.add_parser("report", help="summarize operation CSVs")
    p_report.add_argument("csv", nargs="+")
    p_report.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except ConfigError as exc:
        for e in exc.errors:
            print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except _InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:  # what stdout still buffers goes to devnull, not to the exit's flush
        with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())  # fails on a stdout with no descriptor
        return EXIT_OUTPUT
    except OSError as exc:
        print("output error: %s" % exc, file=sys.stderr)
        return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
