"""regsim benchmark: seeded scenario workloads through the run and check paths.

    python3 perfbench/run.py --workload relay_m9 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, one child each

Each scenario goes through the calls `regsim run --out-dir` and
`regsim check` make: `run_scenario`, `RunResult.csv_text` and
`trace_to_text` (the run path), then `trace_from_text`, `extract_history`
and `check_atomicity_tagged` on the serialized trace (the check path).
The loop is closed: one scenario at a time, one process, one thread.

--trace 0 cycles through the workload's scenario list for --seconds and
prints the end-to-end metrics.  Their times are scaled to a reference host
speed, measured between scenarios with fixed kernels (see hostspeed.py).  --trace 1 runs each scenario untraced and
with spans around every layer (see tracing.py), alternating, for
--seconds and at least OVERHEAD_ROUNDS rounds; it prints the per-layer
metrics and writes the spans to .bench_out/spans_<workload>.tsv.  Either
way the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.

A run fails if its verdict is not ok, a live client's operation is left
pending, the re-check disagrees with the run, or its trace or CSV digest
differs from the golden one (default seed) or from an earlier run of the
same scenario in this process.  A traced run also fails if its spans do
not nest or its counts differ from the golden ones (default seed) or from
an earlier traced run of the same scenario.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import gc
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
GOLDEN_COUNTS_PATH = BENCH_DIR / "golden_counts.json"
SPAN_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 0
# setup_s is the median over this many fresh processes.
SETUP_SAMPLES = 15
# The end-to-end loop samples the host's speed after the scenario that
# ends this much scenario time since the last sample.  The host switches
# speed every few seconds; a sample costs 30-100 ms.
SPEED_EVERY_S = 0.5
# The scaling probe repeats a check until this much time has passed, so
# that the small prefixes are not timed at clock resolution.
PROBE_MIN_S = 0.05
PROBE_FRACTIONS = (0.25, 0.5, 1.0)
# The traced run repeats every scenario on both sides at least this often,
# so that trace_overhead compares fastest repeats, not single runs.
OVERHEAD_ROUNDS = 3
# Per-layer counts of deterministic work.  Every traced repeat of a
# scenario must give the same values, and at the default seed the values
# in golden_counts.json; any seed prints them so two commits can be compared.
COUNTS = ("quorum.scan_calls", "views.classify_calls", "protocols.steps", "protocols.sends",
          "protocols.stale_drops", "netsim.events", "netsim.records", "checker.history_ops",
          "checker.rt_pairs", "harness.trace_bytes")

clock = time.perf_counter


def load_program() -> None:
    """Import regsim from this checkout's sources, never from elsewhere."""
    if not (SRC / "regsim" / "__init__.py").is_file():
        sys.exit("benchmark: no regsim sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import regsim

    if Path(regsim.__file__).resolve().parent != SRC / "regsim":
        sys.exit("benchmark: imported regsim from %s, not %s" % (regsim.__file__, SRC))


@dataclass
class Outcome:
    index: int
    run_s: float
    check_s: float
    ops: int
    history_ops: int
    records: int
    digests: tuple[str, str]
    problems: list[str] = field(default_factory=list)
    # Reference seconds per host second around this run; 0 until measure()
    # sets it.
    scale: float = 0.0


@dataclass
class Artifacts:
    result: object
    text: str
    history: object


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs scenarios of one workload and checks every output.

    Each run starts from a collected heap and the caller drops the previous
    run's artifacts first, so the cyclic collector's share of a run does not
    depend on what earlier runs left behind.  With a recorder, the run is
    one "scenario" span and its spans carry a new scenario id,
    `rec.scenario`.
    """

    def __init__(self, configs: list, golden: list | None) -> None:
        self.configs = configs
        self.golden = golden
        self.first_digests: dict[int, tuple[str, str]] = {}

    def run(self, index: int, rec=None) -> tuple[Outcome, Artifacts]:
        gc.collect()
        if rec is None:
            return self._run(index)
        rec.scenario += 1
        with rec.span("scenario"):
            return self._run(index)

    def _run(self, index: int) -> tuple[Outcome, Artifacts]:
        from regsim import checker, harness

        config = self.configs[index]
        t0 = clock()
        result = harness.run_scenario(config)
        csv = result.csv_text()
        text = harness.trace_to_text(result.trace)
        t1 = clock()
        history = checker.extract_history(harness.trace_from_text(text))
        verdict = checker.check_atomicity_tagged(history)
        t2 = clock()

        trace = result.trace
        outcome = Outcome(index, t1 - t0, t2 - t1, len(result.stats), len(history.ops),
                          len(trace.records), (sha256(text), sha256(csv)))
        problems = outcome.problems
        if not result.verdict.ok:
            problems.append("atomicity %s: %s" % (result.verdict.violated, result.verdict.detail))
        if trace.incomplete or any(
            not op.completed and trace.live(op.process) for op in trace.ops.values()
        ):
            problems.append("live operations left pending")
        if verdict != result.verdict or len(history.ops) != len(trace.ops):
            problems.append("re-check of the serialized trace disagrees with the run")
        first = self.first_digests.setdefault(index, outcome.digests)
        if outcome.digests != first:
            problems.append("digests differ from this scenario's first run")
        if self.golden is not None and list(outcome.digests) != self.golden[index]:
            problems.append("digests differ from the golden ones")
        return outcome, Artifacts(result, text, history)


# ------------------------------------------------------------ end to end

def measure(runner: Runner, seconds: float, speed: hostspeed.HostSpeed) -> list[Outcome]:
    """Closed loop over the scenario list, in whole passes, until `seconds`
    have passed.  The host's speed is sampled before the first scenario,
    after each scenario that ends SPEED_EVERY_S since the last sample, and
    at the end; each scenario is scaled by the samples around it."""
    outcomes: list[Outcome] = []
    before = speed.sample()
    start = since = clock()
    while not outcomes or clock() - start < seconds:
        for i in range(len(runner.configs)):
            outcomes.append(runner.run(i)[0])
            if clock() - since >= SPEED_EVERY_S:
                before = _scale_since(outcomes, before, speed)
                since = clock()
    _scale_since(outcomes, before, speed)
    return outcomes


def _scale_since(outcomes: list[Outcome], before: float, speed: hostspeed.HostSpeed) -> float:
    """Sample the host's speed and scale the trailing outcomes that have no
    scale yet by the mean of it and `before`; return the new sample."""
    after = speed.sample()
    for o in reversed(outcomes):
        if o.scale:
            break
        o.scale = (before + after) / 2
    return after


def setup_seconds(workload: str, seed: int, speed: hostspeed.HostSpeed) -> float:
    """Median time of fresh processes that only import, generate and warm
    up, each scaled by the host's speed before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    before = speed.sample()
    for _ in range(SETUP_SAMPLES):
        t0 = clock()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        elapsed = clock() - t0
        after = speed.sample()
        samples.append(elapsed * (before + after) / 2)
        before = after
    return statistics.median(samples)


def pass_seconds(outcomes: list[Outcome], scaled: bool = True) -> tuple[float, float]:
    """Run-path and check-path time of one pass: the sum over scenarios of
    each one's median repeat, in reference seconds or, unscaled, host seconds."""
    run_s: dict[int, list[float]] = {}
    check_s: dict[int, list[float]] = {}
    for o in outcomes:
        factor = o.scale if scaled else 1.0
        run_s.setdefault(o.index, []).append(o.run_s * factor)
        check_s.setdefault(o.index, []).append(o.check_s * factor)
    return (sum(map(statistics.median, run_s.values())),
            sum(map(statistics.median, check_s.values())))


def end_to_end(outcomes: list[Outcome], setup_s: float) -> dict[str, tuple[float, str]]:
    """Rates over one pass, each scenario timed by its median repeat in
    reference seconds.  The counts of a scenario are the same on every repeat."""
    per_scenario = {o.index: o for o in outcomes}
    run_total, check_total = pass_seconds(outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    return {
        "setup_s": (setup_s, "s"),
        "runs_per_s": (len(per_scenario) / run_total, "1/s"),
        "ops_per_s": (sum(o.ops for o in per_scenario.values()) / run_total, "1/s"),
        "records_per_s": (sum(o.records for o in per_scenario.values()) / run_total, "1/s"),
        "recheck_ops_per_s": (sum(o.history_ops for o in per_scenario.values()) / check_total, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_run_share": ((len(outcomes) - failed) / len(outcomes), "ratio"),
    }


# -------------------------------------------------------------- per layer

def rt_pairs(history) -> int:
    """Real-time-ordered pairs of completed operations (a responds before b is invoked)."""
    done = [op for op in history.ops if op.completed]
    ends = sorted(op.responded_at for op in done)
    return sum(bisect_left(ends, op.invoked_at) for op in done)


def _timed_mean(fn) -> float:
    calls, start = 0, clock()
    while True:
        fn()
        calls += 1
        elapsed = clock() - start
        if elapsed >= PROBE_MIN_S:
            return elapsed / calls


def scaling_exponent(history, end_time: float) -> float:
    """Log-log slope of check time over history prefixes cut by invocation time."""
    from regsim.checker import check_atomicity_tagged
    from regsim.core import History

    xs, ys = [], []
    for fraction in PROBE_FRACTIONS:
        cut = fraction * end_time
        ops = [op for op in history.ops if fraction == 1.0 or op.invoked_at < cut]
        prefix = History(ops=ops, initial_tag=history.initial_tag)
        xs.append(math.log(len(ops)))
        ys.append(math.log(_timed_mean(lambda: check_atomicity_tagged(prefix))))
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def trace_counts(art: Artifacts) -> dict[str, float]:
    """Per-layer counts read from one run's outputs."""
    trace = art.result.trace
    kinds = Counter(rec[0] for rec in trace.records)
    reads = [s for s in art.result.stats if s.kind == "read"]
    return {
        "protocols.sends": kinds["snd"],
        "protocols.msgs_per_op": kinds["snd"] / len(trace.ops),
        "protocols.fast_read_ratio": (
            sum(1 for s in reads if s.exchanges == 2) / len(reads) if reads else 0.0
        ),
        "protocols.stale_drops": trace.stale_drops,
        "netsim.events": kinds["inv"] + kinds["dlv"] + kinds["crs"],
        "netsim.records": len(trace.records),
        "checker.history_ops": len(art.history.ops),
        "checker.rt_pairs": rt_pairs(art.history),
        "harness.trace_bytes": len(art.text),
    }


def span_layers(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer times and call counts of one scenario's spans."""
    return {
        "workload.build_s": totals["workload.build"],
        "quorum.build_s": totals["quorum.build"],
        "quorum.scan_calls": totals["quorum.scan#n"],
        "quorum.scan_s": totals["quorum.scan"],
        "views.classify_calls": totals["views.classify#n"],
        "views.classify_s": totals["views.classify"],
        "protocols.steps": totals["protocols.step#n"],
        "protocols.step_self_s": totals["protocols.step#self"],
        "netsim.run_s": totals["netsim.run"],
        "netsim.self_s": totals["netsim.run#self"],
        "metrics.attribute_s": totals["metrics.attribute"],
        "checker.check_s": totals["checker.check"],
        "harness.to_text_s": totals["harness.to_text"],
        "harness.csv_s": totals["harness.csv"],
        "harness.from_text_s": totals["harness.from_text"],
        "bench.glue_share": totals["scenario#self"] / totals["scenario"],
    }


def per_layer(runner: Runner, workload: str, seconds: float, golden_counts: list | None,
              units: dict[str, str]) -> tuple[dict, list[Outcome], dict[int, dict]]:
    """Rounds over the scenario list for `seconds`, and at least
    OVERHEAD_ROUNDS of them.  Each round runs every scenario untraced and
    traced, alternating which goes first so that neither side always meets
    a cold interpreter.

    Each scenario counts by its fastest repeat, in host seconds: span
    times come from its fastest traced repeat, and trace_overhead is the
    fastest traced over the fastest untraced repeats.  Every traced repeat
    must give the scenario's first counts, and at the default seed the
    golden ones.  Returns the metrics, every outcome and the first counts.
    """
    import tracing

    rec = tracing.Recorder()
    outcomes: list[Outcome] = []
    plain: dict[int, float] = {}
    traced: list[tuple[int, int, Outcome, dict]] = []
    probes: dict[int, tuple] = {}
    start, rounds = clock(), 0
    while rounds < OVERHEAD_ROUNDS or clock() - start < seconds:
        for i in range(len(runner.configs)):
            for with_spans in ((False, True) if (i + rounds) % 2 == 0 else (True, False)):
                if not with_spans:
                    outcome = runner.run(i)[0]
                    plain[i] = min(plain.get(i, math.inf), outcome.run_s + outcome.check_s)
                else:
                    with tracing.traced(rec):
                        outcome, art = runner.run(i, rec)
                    traced.append((i, rec.scenario, outcome, trace_counts(art)))
                    probes.setdefault(i, (art.history, art.result.trace.end_time))
                    del art
                outcomes.append(outcome)
        rounds += 1

    errors = tracing.nesting_errors(rec.spans)
    totals = tracing.layer_totals(rec.spans)
    first: dict[int, dict] = {}
    best: dict[int, tuple[float, dict]] = {}
    for i, scenario, outcome, row in traced:
        row.update(span_layers(totals[scenario]))
        if errors:
            outcome.problems.append("inconsistent spans: %s" % errors[0])
        counts = {name: int(row[name]) for name in COUNTS}
        if counts != first.setdefault(i, counts):
            outcome.problems.append("counts differ from this scenario's first traced run")
        if golden_counts is not None and counts != golden_counts[i]:
            outcome.problems.append("counts differ from the golden ones")
        busy_s = outcome.run_s + outcome.check_s
        if i not in best or busy_s < best[i][0]:
            best[i] = (busy_s, row)

    rows = [row for _, row in best.values()]
    values = {name: statistics.fmean(row[name] for row in rows) for name in rows[0]}
    values["checker.scaling_exp"] = statistics.median(scaling_exponent(*p) for p in probes.values())
    # Time inside the program's calls, with and without the span wrappers.
    values["trace_overhead"] = sum(t for t, _ in best.values()) / sum(plain.values())
    tracing.write_spans(rec.spans, SPAN_DIR / ("spans_%s.tsv" % workload))
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, outcomes, first


# ------------------------------------------------------------------ main

def report(metrics: dict[str, tuple[float, str]], outcomes: list[Outcome]) -> dict:
    failed = sum(1 for o in outcomes if o.problems)
    for o in outcomes:
        for p in o.problems:
            print("FAILED scenario %d: %s" % (o.index, p))
    for name, (value, unit) in metrics.items():
        print("%-28s %18.6f %s" % (name, value, unit))
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_workload(args) -> dict:
    load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit("benchmark: unknown workload %r" % args.workload)
    configs = workloads.generate(args.workload, args.seed)
    Runner([workloads.warmup_config(configs)], golden=None).run(0)
    if args.setup_probe:
        os._exit(0)  # skip interpreter teardown, which is not set-up

    golden = golden_counts = None
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN_PATH.read_text())[args.workload]
        golden_counts = json.loads(GOLDEN_COUNTS_PATH.read_text())[args.workload]
    runner = Runner(configs, golden)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    counts = {}
    if args.trace:
        metrics, outcomes, counts = per_layer(runner, args.workload, args.seconds,
                                              golden_counts, declared)
    else:
        speed = hostspeed.HostSpeed(workloads.MEMORY_WEIGHT.get(args.workload, 0.0))
        setup_s = setup_seconds(args.workload, args.seed, speed)
        outcomes = measure(runner, args.seconds, speed)
        metrics = end_to_end(outcomes, setup_s)
    if {name: unit for name, (_, unit) in metrics.items()} != declared:
        sys.exit("benchmark: metrics do not match BENCHMARK.json")

    print("workload %s seed %d: %d scenarios per pass" % (args.workload, args.seed, len(configs)))
    for index in sorted(runner.first_digests):
        trace_digest, csv_digest = runner.first_digests[index]
        print("digest %s %d %d trace %s csv %s"
              % (args.workload, args.seed, index, trace_digest, csv_digest))
    for index in sorted(counts):
        print("counts %s %d %d %s"
              % (args.workload, args.seed, index, json.dumps(counts[index], sort_keys=True)))
    if not args.trace:
        print("pass in host seconds: run %.6f check %.6f; reference s per host s: median %.4f"
              % (*pass_seconds(outcomes, scaled=False), statistics.median(o.scale for o in outcomes)))
    return report(metrics, outcomes)


def run_all(args) -> dict:
    """Each workload in a fresh child process, so peak RSS is its own."""
    load_program()
    import workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        print("== %s" % name)
        print(out, end="")
        results[name] = json.loads(out.splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="sweep_matrix, relay_m9, long_history or all (default)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
