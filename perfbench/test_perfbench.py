"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from regsim import harness  # noqa: E402
from regsim.quorum import QuorumSystem  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _configs_in_fresh_process(name: str, seed: int, hashseed: str) -> str:
    code = ("import sys; sys.path[:0] = [%r, %r]; import workloads; "
            "print(repr(workloads.generate(%r, %d)))" % (str(run.SRC), str(BENCH_DIR), name, seed))
    return subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True,
                          env={"PYTHONHASHSEED": hashseed}).stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_generation_is_a_pure_function_of_the_seed(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7) != workloads.generate(name, 8)
    assert _configs_in_fresh_process(name, 7, "1") == _configs_in_fresh_process(name, 7, "2")
    assert _configs_in_fresh_process(name, 7, "1").strip() == repr(workloads.generate(name, 7))


def test_sweep_matrix_covers_the_roadmap_matrix():
    configs = workloads.generate("sweep_matrix", 0)
    cells = {(c.algorithm, c.quorums, c.n_servers, c.topology) for c in configs}
    assert len(cells) == len(configs) == 4 * 3 * 2
    assert all(len(c.crash_servers) == 1 and len(c.crash_readers) == 1 for c in configs)


def test_golden_digests_and_counts_cover_every_scenario_of_the_default_seed():
    golden = json.loads(run.GOLDEN_PATH.read_text())
    counts = json.loads(run.GOLDEN_COUNTS_PATH.read_text())
    for name in workloads.WORKLOADS:
        n = len(workloads.generate(name, run.DEFAULT_SEED))
        assert len(golden[name]) == len(counts[name]) == n
        assert all(set(c) == set(run.COUNTS) for c in counts[name])


def test_declared_names_and_layer_mapping():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    mapping = json.loads((BENCH_DIR / "layers.json").read_text())
    mapping.pop("_doc")
    assert set(mapping) == {m["name"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in mapping.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_the_declared_ones(trace, key):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "sweep_matrix", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=170,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(NAME.fullmatch(n) for n in result["metrics"])


def test_spans_nest_and_the_wrappers_come_off_again():
    config = workloads.warmup_config(workloads.generate("relay_m9", 0))
    runner = run.Runner([config], golden=None)
    originals = (harness.run_scenario, harness.get_algorithm, QuorumSystem.first_contained_mask)
    rec = tracing.Recorder()
    with tracing.traced(rec):
        outcome, _ = runner.run(0, rec)
    assert (harness.run_scenario, harness.get_algorithm, QuorumSystem.first_contained_mask) == originals
    assert not outcome.problems
    assert tracing.nesting_errors(rec.spans) == []
    by_id = {s[1]: s for s in rec.spans}
    for _, sid, parent, _, start, end in rec.spans:
        if parent:
            p = by_id[parent]
            assert end - start <= p[5] - p[4]
    assert min(tracing.self_times(rec.spans).values()) >= 0
    names = {s[3] for s in rec.spans}
    assert {"scenario", "harness.run_scenario", "netsim.run", "protocols.step",
            "quorum.scan", "views.classify", "checker.check", "harness.from_text"} <= names
    assert {s[0] for s in rec.spans} == {1}


def test_nesting_errors_flags_a_child_outside_its_parent():
    spans = [(1, 1, 0, "scenario", 0.0, 1.0), (1, 2, 1, "netsim.run", 0.5, 1.5)]
    assert any("outside its parent" in e for e in tracing.nesting_errors(spans))
    spans = [(1, 1, 0, "scenario", 0.0, 1.0), (1, 2, 1, "a", 0.0, 0.6), (1, 3, 1, "b", 0.0, 0.6)]
    assert any("negative self time" in e for e in tracing.nesting_errors(spans))


def test_traced_and_untraced_runs_give_identical_digests():
    config = workloads.warmup_config(workloads.generate("long_history", 0))
    runner = run.Runner([config], golden=None)
    plain, _ = runner.run(0)
    rec = tracing.Recorder()
    with tracing.traced(rec):
        traced, _ = runner.run(0, rec)
    assert traced.digests == plain.digests and not traced.problems


def test_traced_runs_fail_on_counts_other_than_the_golden_ones():
    config = workloads.warmup_config(workloads.generate("relay_m9", 0))
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    _, outcomes, counts = run.per_layer(run.Runner([config], None), "test", 0.0, None, units)
    assert not any(o.problems for o in outcomes)
    assert set(counts[0]) == set(run.COUNTS)
    wrong = [dict(counts[0], **{"quorum.scan_calls": counts[0]["quorum.scan_calls"] + 1})]
    _, outcomes, _ = run.per_layer(run.Runner([config], None), "test", 0.0, wrong, units)
    failed = [o for o in outcomes if o.problems]
    assert len(failed) == run.OVERHEAD_ROUNDS
    assert all(o.problems == ["counts differ from the golden ones"] for o in failed)


class _Samples:
    def __init__(self, *speeds):
        self.speeds = iter(speeds)

    def sample(self):
        return next(self.speeds)


def test_every_timed_run_is_scaled_by_the_host_speed_around_it(monkeypatch):
    monkeypatch.setattr(run, "SPEED_EVERY_S", 0.0)
    config = workloads.warmup_config(workloads.generate("sweep_matrix", 0))
    speed = _Samples(0.3, 0.7, 0.1, 0.1)
    outcomes = run.measure(run.Runner([config, config], golden=None), 0.0, speed)
    assert [o.scale for o in outcomes] == pytest.approx([0.5, 0.4])
    run_s, _ = run.pass_seconds(outcomes)
    assert run_s == pytest.approx(0.5 * outcomes[0].run_s + 0.4 * outcomes[1].run_s)


@pytest.mark.parametrize("weight", [0.0, 0.5])
def test_host_speed_samples_are_positive(weight):
    assert run.hostspeed.HostSpeed(weight).sample(repeats=1) > 0


def test_rt_pairs_counts_real_time_ordered_completed_pairs():
    from regsim.core import History, OperationRecord, reader

    ops = [OperationRecord(1, reader(0), "read", 0.0, responded_at=1.0),
           OperationRecord(2, reader(1), "read", 0.5, responded_at=2.0),
           OperationRecord(3, reader(0), "read", 1.5, responded_at=3.0),
           OperationRecord(4, reader(1), "read", 2.5)]
    assert run.rt_pairs(History(ops=ops)) == 1  # only 1 -> 3; op 4 never completed
