"""Command line interface.

    regsim run <config.ini>     simulate one scenario, check it, report
    regsim sweep <grid.ini>     run a config grid, write per-cell + aggregate CSVs
    regsim check <trace.log>    re-verify a persisted trace
    regsim report <csv...>      summarize operation CSVs

Exit codes: 0 ok, 2 config or input error, 3 atomicity violation, 4 liveness cap hit.
"""

from __future__ import annotations

import argparse
import csv as csv_module
import sys
from pathlib import Path
from typing import Optional

from regsim.checker import check_atomicity_tagged, extract_history
from regsim.config import ConfigError, parse_config, parse_grid, with_overrides
from regsim.core import parse_pid
from regsim.harness import (
    CSV_HEADER,
    EXIT_ATOMICITY,
    EXIT_CONFIG,
    EXIT_LIVENESS,
    EXIT_OK,
    SweepError,
    run_scenario,
    sweep,
    verify_trace,
    write_outputs,
)
from regsim.metrics import OpStats, summarize


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
    try:
        config = parse_config(Path(args.config).read_text())
        config = with_overrides(
            config,
            seed=args.seed,
            jitter_max=args.jitter_max,
            cap_seconds=args.cap_seconds,
        )
    except ConfigError as exc:
        for e in exc.errors:
            print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
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
    if not v.ok:
        print("atomicity VIOLATED (%s): %s" % (v.violated, v.detail), file=sys.stderr)
    elif result.trace.incomplete:
        print("liveness: cap %.1fs hit with operations pending" % config.cap_seconds,
              file=sys.stderr)
    else:
        print("atomicity: ok; all operations of live clients completed")
    return result.exit_code()


def _cmd_sweep(args) -> int:
    try:
        configs = parse_grid(Path(args.grid).read_text())
    except ConfigError as exc:
        for e in exc.errors:
            print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    print("sweep: %d runs" % len(configs))
    try:
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
        trace = verify_trace(Path(args.trace).read_text())
        # Raises ValueError on overlapping operations of one client.
        verdict = check_atomicity_tagged(extract_history(trace), strict=args.strict)
    except ValueError as exc:
        print("input error: %s: %s" % (args.trace, exc), file=sys.stderr)
        return EXIT_CONFIG
    if not verdict.ok:
        print("atomicity VIOLATED (%s): %s (witness %s)"
              % (verdict.violated, verdict.detail, list(verdict.witness)), file=sys.stderr)
        return EXIT_ATOMICITY
    print("atomicity: ok (%d operations, %d completed)"
          % (len(trace.ops), sum(1 for o in trace.ops.values() if o.completed)))
    if trace.incomplete:
        print("liveness: trace ended with live operations pending", file=sys.stderr)
        return EXIT_LIVENESS
    return EXIT_OK


def _cmd_report(args) -> int:
    stats: list[OpStats] = []
    for path in args.csv:
        with open(path, newline="") as fh:
            reader = csv_module.DictReader(fh)
            if reader.fieldnames != CSV_HEADER.split(","):
                print("%s: not a per-operation csv (header %r)"
                      % (path, ",".join(reader.fieldnames or [])), file=sys.stderr)
                return EXIT_CONFIG
            for row in reader:
                try:
                    if None in row or None in row.values():
                        raise ValueError("expected %d fields" % len(reader.fieldnames))
                    stats.append(OpStats(
                        algorithm=row["algorithm"],
                        op_id=int(row["op_id"]),
                        process=parse_pid(row["process"]),
                        kind=row["op_kind"],
                        invoked_at=float(row["invoked_at"]),
                        latency_s=float(row["latency_s"]),
                        exchanges=int(row["exchanges"]),
                        messages=int(row["messages"]),
                    ))
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
        return args.fn(args)
    except OSError as exc:  # an input that is missing or unreadable
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
