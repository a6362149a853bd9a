"""Harness tests: trace persistence round-trips byte for byte, scenario
runs produce checked results and stable CSV, grids expand correctly,
sweeps aggregate and fail loudly."""

import functools
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim import harness
from regsim.config import ConfigError, ScenarioConfig, parse_grid, validate
from regsim.core import parse_pid, reader, server
from regsim.harness import (
    _REC_TYPES,
    AGGREGATE_HEADER,
    CSV_HEADER,
    EXIT_ATOMICITY,
    EXIT_LIVENESS,
    EXIT_OK,
    SweepError,
    replay_wire,
    run_scenario,
    sweep,
    trace_from_text,
    trace_to_text,
    write_outputs,
)
from regsim.metrics import summarize
from regsim.protocols import ALGORITHMS


def cfg(**kw) -> ScenarioConfig:
    base = dict(
        algorithm="erato", topology="series", n_servers=3, quorums="majority",
        n_readers=2, n_writers=1, scheme="stochastic", read_interval=0.2,
        write_interval=0.2, ops_per_client=2, seed=1, jitter_max=0.001,
    )
    base.update(kw)
    return validate(ScenarioConfig(**base))


def test_run_scenario_checks_and_reports() -> None:
    result = run_scenario(cfg())
    assert result.verdict.ok
    assert not result.trace.incomplete
    assert len(result.stats) == 6  # 2 readers x 2 reads + 2 writes
    kinds = {s.kind for s in result.stats}
    assert kinds == {"read", "write"}
    assert all(s.latency_s > 0 for s in result.stats)
    summaries = summarize(result.stats)
    assert {s.op_kind for s in summaries} == {"read", "write"}


def test_trace_round_trip_identity() -> None:
    # A run exercising every record type: crashes, write tags, adoptions,
    # stale deliveries under jitter, multi-phase writes.
    config = cfg(algorithm="erato_mw", n_writers=2, ops_per_client=2,
                 crash_servers=((0, 0.25),), crash_readers=((1, 0.3),),
                 jitter_max=0.002, seed=7)
    result = run_scenario(config)
    text = trace_to_text(result.trace)
    parsed = trace_from_text(text)
    assert trace_to_text(parsed) == text
    assert parsed.algorithm == "erato_mw" and parsed.seed == 7
    assert parsed.crash_at == {server(0): 0.25, reader(1): 0.3}
    # Message counts are the one thing the text leaves to the wire replay.
    replay_wire(parsed)
    assert parsed == result.trace


@settings(max_examples=30, deadline=None)
@given(
    algorithm=st.sampled_from(sorted(ALGORITHMS)),
    topology=st.sampled_from(["series", "star"]),
    crash=st.booleans(),
    seed=st.integers(0, 10_000),
)
def test_trace_round_trip_all_algorithms(algorithm, topology, crash, seed) -> None:
    crashes = dict(crash_servers=((0, 0.25),), crash_readers=((1, 0.3),)) if crash else {}
    config = cfg(algorithm=algorithm, topology=topology, seed=seed, jitter_max=0.002,
                 n_writers=2 if ALGORITHMS[algorithm].mw else 1, **crashes)
    run = run_scenario(config).trace
    text = trace_to_text(run)
    parsed = trace_from_text(text)
    assert trace_to_text(parsed) == text
    replay_wire(parsed)
    assert parsed == run


# Round-trip corpus: between them the runs write every record kind,
# and the capped runs end incomplete.  In the last, both crashes fall
# after the cap: they are no part of the run, so its clients stay live.
ROUND_TRIP_CORPUS = [
    cfg(algorithm="erato_mw", n_writers=2, crash_servers=((0, 0.25),),
        crash_readers=((1, 0.3),), jitter_max=0.002, seed=7),
    cfg(algorithm="abd", topology="star", crash_servers=((1, 0.3),), seed=2),
    cfg(cap_seconds=0.01),
    cfg(n_readers=1, scheme="fixed", ops_per_client=1, seed=0, cap_seconds=0.205,
        crash_readers=((0, 100.0),), crash_writers=((0, 100.0),)),
]


def test_round_trip_corpus_covers_every_record_kind() -> None:
    kinds: set[str] = set()
    statuses: set[str] = set()
    for config in ROUND_TRIP_CORPUS:
        run = run_scenario(config).trace
        text = trace_to_text(run)
        parsed = trace_from_text(text)
        assert trace_to_text(parsed) == text
        replay_wire(parsed)
        assert parsed == run
        kinds |= {rec[0] for rec in parsed.records}
        statuses.add(parsed.records[-1][2])
    assert kinds == set(_REC_TYPES)
    assert statuses == {"complete", "incomplete"}


def node_refs(trace) -> list:
    """Every reference to a node in a trace: the name fields of its
    records, its operations' processes and its crashed nodes."""
    refs = [field for rec in trace.records
            for (parse, _), field in zip(_REC_TYPES[rec[0]], rec[1:]) if parse is parse_pid]
    refs += [op.process for op in trace.ops.values()]
    return refs + list(trace.crash_at)


def test_parsed_records_share_one_process_id_per_node() -> None:
    # One str object per node, in the simulator's trace and in its parse.
    config = cfg(algorithm="erato_mw", n_writers=2, crash_servers=((0, 0.25),), seed=3)
    run = run_scenario(config).trace
    for trace in (run, trace_from_text(trace_to_text(run))):
        by_name: dict[str, set[int]] = {}
        for name in node_refs(trace):
            by_name.setdefault(name, set()).add(id(name))
        assert set(by_name) == {"s0", "s1", "s2", "r0", "r1", "w0", "w1"}
        assert all(len(ids) == 1 for ids in by_name.values())


PID_TOKEN = re.compile(r"[rws][0-9]+")
ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


@functools.cache
def fuzz_base_lines() -> tuple[tuple[str, ...], ...]:
    # Runs whose traces hold every record type, including deliveries to a
    # server and a reader that crash later.
    configs = [
        cfg(algorithm="erato_mw", n_writers=2, crash_servers=((0, 0.25),),
            crash_readers=((1, 0.3),), jitter_max=0.002, seed=7),
        cfg(algorithm="abd", topology="star", crash_servers=((1, 0.3),), seed=2),
    ]
    return tuple(tuple(trace_to_text(run_scenario(c).trace).splitlines()) for c in configs)


def wire_key(parts: list[str]) -> tuple:
    """(src, dst, kind, client, op_seq, arrival) of a snd or dlv line."""
    if parts[0] == "snd":
        return tuple(parts[2:])
    return (parts[3], parts[2], parts[4], parts[5], parts[6], parts[1])


def first_unmatched_dlv(lines: list[str], key: tuple):
    """1-based line of the first dlv with this key that has no earlier
    unmatched snd, or None."""
    in_flight = 0
    for n, line in enumerate(lines, start=1):
        parts = line.split("\t")
        if parts[0] in ("snd", "dlv") and wire_key(parts) == key:
            in_flight += 1 if parts[0] == "snd" else -1
            if in_flight < 0:
                return n
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_trace_line_fails_with_its_line_number(data) -> None:
    lines = list(data.draw(st.sampled_from(fuzz_base_lines())))
    mutation = data.draw(st.sampled_from(["drop", "add", "pid", "del_snd", "late_dlv"]))
    crash_at = {ln.split("\t")[2]: float(ln.split("\t")[1]) for ln in lines if ln.startswith("crs\t")}
    if mutation == "late_dlv":
        targets = [i for i, ln in enumerate(lines)
                   if ln.startswith("dlv\t") and ln.split("\t")[2] in crash_at]
    elif mutation == "del_snd":
        targets = [i for i, ln in enumerate(lines) if ln.startswith("snd\t")]
    elif mutation == "pid":
        targets = [i for i, ln in enumerate(lines)
                   if any(PID_TOKEN.fullmatch(p) for p in ln.split("\t")[1:])]
    else:
        targets = list(range(1, len(lines)))  # every record line after the header
    assert targets
    i = data.draw(st.sampled_from(targets))
    parts = lines[i].split("\t")
    expected = i + 1
    if mutation == "drop":
        del parts[-1]
    elif mutation == "add":
        parts.append("0")
    elif mutation == "pid":
        j = data.draw(st.sampled_from([j for j, p in enumerate(parts) if j and PID_TOKEN.fullmatch(p)]))
        digits = parts[j][1:]
        parts[j] = parts[j][0] + data.draw(st.sampled_from(["0" + digits, digits.translate(ARABIC_INDIC_DIGITS)]))
    elif mutation == "late_dlv":
        parts[1] = repr(crash_at[parts[2]] + data.draw(st.sampled_from([0.0, 0.5])))
    if mutation == "del_snd":
        del lines[i]
        expected = first_unmatched_dlv(lines, wire_key(parts))
    else:
        lines[i] = "\t".join(parts)
    text = "\n".join(lines) + "\n"
    if expected is None:  # a snd that was never delivered may go
        replay_wire(trace_from_text(text))
        return
    with pytest.raises(ValueError) as exc:
        replay_wire(trace_from_text(text))
    assert str(exc.value).startswith("line %d: " % expected)


def test_delivery_at_or_after_crash_is_refused() -> None:
    # Move s0's last delivery, and the arrival of its send, to s0's crash
    # time, so only the crash rule can object.
    lines = list(fuzz_base_lines()[0])
    crash = next(ln.split("\t")[1] for ln in lines if ln.startswith("crs\t") and ln.endswith("\ts0"))
    to_s0 = [i for i, ln in enumerate(lines) if ln.startswith("dlv\t") and ln.split("\t")[2] == "s0"]
    assert len(to_s0) > 1
    i = to_s0[-1]
    dlv = lines[i].split("\t")
    j = next(j for j, ln in enumerate(lines) if ln.startswith("snd\t") and wire_key(ln.split("\t")) == wire_key(dlv))
    lines[i] = "\t".join(dlv[:1] + [crash] + dlv[2:])
    lines[j] = "\t".join(lines[j].split("\t")[:-1] + [crash])
    with pytest.raises(ValueError) as exc:
        replay_wire(trace_from_text("\n".join(lines) + "\n"))
    assert str(exc.value) == "line %d: dlv to s0 at %s, at or after its crash at %s" % (i + 1, crash, crash)


def test_trace_rejects_garbage() -> None:
    with pytest.raises(ValueError):
        trace_from_text("inv\tnot-a-float\tr0\t1\tread\t-\n")
    with pytest.raises(ValueError):
        trace_from_text("xyz\t1.0\n")


def test_csv_schema_and_determinism() -> None:
    a = run_scenario(cfg(seed=5))
    b = run_scenario(cfg(seed=5))
    assert a.csv_text() == b.csv_text()
    assert trace_to_text(a.trace) == trace_to_text(b.trace)
    lines = a.csv_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(a.stats)
    first = lines[1].split(",")
    assert first[:7] == ["erato", "series", "3", "2", "1", "stochastic", "5"]
    assert first[9] in ("read", "write")
    assert run_scenario(cfg(seed=6)).csv_text() != a.csv_text()


def test_write_outputs_files(tmp_path) -> None:
    result = run_scenario(cfg())
    paths = write_outputs(result, tmp_path / "out")
    assert paths["trace"].read_text().startswith("run\talgorithm=erato")
    assert paths["csv"].read_text().startswith(CSV_HEADER)
    assert "atomicity: ok" in paths["verdict"].read_text()


GRID = """
[grid]
algorithm = erato, ohsam, abd
n_readers = 10, 20
seeds = 2

[scenario]
topology = star
n_servers = 9
quorums = matrix
[workload]
ops_per_client = 1
"""


def test_parse_grid_cross_product() -> None:
    configs = parse_grid(GRID)
    assert len(configs) == 3 * 2 * 2
    assert [c.algorithm for c in configs[:4]] == ["erato"] * 4
    assert [c.seed for c in configs[:4]] == [0, 1, 0, 1]
    assert configs[0].n_readers == 10 and configs[2].n_readers == 20
    assert all(c.topology == "star" and c.ops_per_client == 1 for c in configs)


def test_parse_grid_requires_grid_section_and_validates_cells() -> None:
    with pytest.raises(ConfigError):
        parse_grid("[scenario]\nalgorithm = erato\n")
    bad = GRID.replace("algorithm = erato, ohsam, abd", "algorithm = erato, bogus")
    with pytest.raises(ConfigError) as exc:
        parse_grid(bad)
    assert any("algorithm=bogus" in e for e in exc.value.errors)


def test_sweep_writes_cells_and_aggregate(tmp_path) -> None:
    grid = """
[grid]
algorithm = erato, ohsam
seeds = 2
[scenario]
topology = series
n_servers = 3
quorums = majority
n_readers = 1
[workload]
scheme = fixed
read_interval = 0.2
write_interval = 0.2
ops_per_client = 2
"""
    configs = parse_grid(grid)
    paths = sweep(configs, tmp_path, parallelism=1)
    agg = paths["aggregate"].read_text().splitlines()
    assert agg[0] == AGGREGATE_HEADER
    assert len(agg) == 1 + 2 * 2  # 2 cells x (read, write)
    cell = paths["erato_series_s3_r1_w1_fixed"].read_text().splitlines()
    assert cell[0] == CSV_HEADER
    assert len(cell) == 1 + 2 * 4  # 2 seeds x (2 reads + 2 writes)
    seeds = {line.split(",")[6] for line in cell[1:]}
    assert seeds == {"0", "1"}


def test_sweep_empty_grid_succeeds(tmp_path) -> None:
    paths = sweep([], tmp_path)
    assert paths["aggregate"].read_text() == AGGREGATE_HEADER + "\n"


def test_sweep_reports_liveness_failures(tmp_path) -> None:
    config = cfg(cap_seconds=0.01)
    with pytest.raises(SweepError) as exc:
        sweep([config], tmp_path)
    assert exc.value.exit_code == EXIT_LIVENESS
    assert any("liveness" in line for line in exc.value.report)


def test_sweep_parallel_matches_serial(tmp_path) -> None:
    configs = parse_grid(GRID.replace("seeds = 2", "seeds = 1"))
    serial = sweep(configs, tmp_path / "s", parallelism=1)
    parallel = sweep(configs, tmp_path / "p", parallelism=4)
    assert serial["aggregate"].read_text() == parallel["aggregate"].read_text()
    for name in serial:
        assert serial[name].read_text() == parallel[name].read_text()


@pytest.mark.parametrize("cpus,workers", [(8, 3), (2, 2), (1, None)])
def test_sweep_caps_its_worker_processes(cpus, workers, tmp_path, monkeypatch) -> None:
    # A fork pool starts all max_workers processes at its first submit,
    # so a stand-in pool records max_workers and runs the jobs inline.
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    sweep([cfg(seed=s) for s in range(3)], tmp_path, parallelism=5000)
    assert started == ([] if workers is None else [workers])


def test_exit_codes() -> None:
    ok = run_scenario(cfg())
    assert ok.exit_code() == EXIT_OK
    capped = run_scenario(cfg(cap_seconds=0.01))
    assert capped.exit_code() == EXIT_LIVENESS
    # A violating run needs the deliberately broken variant under heavy
    # jitter; covered by the acceptance suite.  Exit code mapping for the
    # atomicity case is unit-tested via a doctored verdict.
    doctored = run_scenario(cfg())
    from regsim.checker import Verdict

    doctored.verdict = Verdict(False, "A1", (1, 2), "synthetic")
    assert doctored.exit_code() == EXIT_ATOMICITY
    # An atomicity violation outranks a liveness failure.
    capped.verdict = doctored.verdict
    assert capped.exit_code() == EXIT_ATOMICITY
