"""Harness tests: trace persistence round-trips byte for byte, scenario
runs produce checked results and stable CSV, grids expand correctly,
sweeps aggregate and fail loudly."""

import functools
import math
import os
import re
import tracemalloc
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim import harness
from regsim import sweep as sweep_module
from regsim import trace as trace_module
from regsim.config import ConfigError, ScenarioConfig, parse_grid, parse_header, validate
from regsim.core import MessageKind, parse_pid, reader, server
from regsim.harness import (
    CSV_HEADER,
    EXIT_ATOMICITY,
    EXIT_LIVENESS,
    EXIT_OK,
    run_scenario,
    write_outputs,
)
from regsim.metrics import summarize
from regsim.netsim import run as netsim_run
from regsim.protocols import ALGORITHMS, get_algorithm
from regsim.sweep import AGGREGATE_HEADER, SweepError, sweep
from regsim.trace import _REC_TYPES, Trace, replay_wire, trace_from_text, trace_to_text


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


@functools.cache
def name_fields(kind: str) -> list[int]:
    """The indices of a record kind's node name fields: those the
    reference parser's table reads with parse_pid."""
    return [i for i, field in enumerate(REFERENCE_REC_TYPES[kind], start=1) if field is _NAME]


def node_refs(trace) -> list:
    """Every reference to a node in a trace: the name fields of its
    records, its operations' processes and its crashed nodes."""
    refs = [rec[i] for rec in trace.records for i in name_fields(rec[0])]
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
    mutation = data.draw(st.sampled_from(["drop", "add", "pid", "del_snd", "late_dlv", "retime"]))
    crash_at = {ln.split("\t")[2]: float(ln.split("\t")[1]) for ln in lines if ln.startswith("crs\t")}
    if mutation == "late_dlv":
        targets = [i for i, ln in enumerate(lines)
                   if ln.startswith("dlv\t") and ln.split("\t")[2] in crash_at]
    elif mutation == "del_snd":
        targets = [i for i, ln in enumerate(lines) if ln.startswith("snd\t")]
    elif mutation == "pid":
        targets = [i for i, ln in enumerate(lines)
                   if any(PID_TOKEN.fullmatch(p) for p in ln.split("\t")[1:])]
    elif mutation == "retime":  # an output of a step, moved off it
        targets = [i for i, ln in enumerate(lines) if ln.split("\t")[0] in ("snd", "res", "wtag", "tag")]
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
    elif mutation == "retime":
        # Another time, or the name of another node of the same role.
        names = {p for ln in lines for p in ln.split("\t")[1:] if PID_TOKEN.fullmatch(p) and p[0] == parts[2][0]}
        change = data.draw(st.sampled_from([-0.25, 1e-6, 0.5] + sorted(names - {parts[2]})))
        if isinstance(change, float):
            parts[1] = repr(float(parts[1]) + change)
        else:
            parts[2] = change
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


# ------------------------------------- the previous parser as an oracle

# The parser before its record table held one builder per kind: a
# (parser, %-conversion) pair per field, converted by a per-field loop.
# Its body is kept as it was but for the table's name and the spelling
# of functools.cache, so that the per-record builders can be held to
# every check the per-field loop made.
_FLOAT = (float, "%r")
_INT = (int, "%d")
_STR = (str, "%s")
_NAME = (parse_pid, "%s")

REFERENCE_REC_TYPES: dict[str, tuple] = {
    "inv": (_FLOAT, _NAME, _INT, _STR, _STR),
    "res": (_FLOAT, _NAME, _INT, _INT, _INT, _INT, _STR),
    "snd": (_FLOAT, _NAME, _NAME, _STR, _NAME, _INT, _FLOAT),
    "dlv": (_FLOAT, _NAME, _NAME, _STR, _NAME, _INT),
    "tag": (_FLOAT, _NAME, _INT, _INT),
    "wtag": (_FLOAT, _NAME, _INT, _INT, _INT),
    "crs": (_FLOAT, _NAME),
    "end": (_FLOAT, _STR, _INT, _INT),
}


def reference_trace_from_text(text: str) -> Trace:
    trace = Trace()
    append = trace.records.append
    # One converter per token, the record type included: each distinct
    # node name is validated once, and all records naming the node share
    # the str of its first mention.
    name = functools.cache(parse_pid)
    converters = {
        kind: (str,) + tuple(name if parse is parse_pid else parse for parse, _ in fields)
        for kind, fields in REFERENCE_REC_TYPES.items()
    }
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


# ------------------------------------- the previous writer as an oracle

def reference_trace_to_text(trace: Trace) -> str:
    """trace_to_text before it wrote snd and dlv lines inline: one
    %-format per record kind, the per-field table's conversions, so
    every float is written by its repr."""
    if trace.config is None:
        header = {"algorithm": trace.algorithm, "seed": trace.seed}
    else:
        header = trace.config.describe()
    formats = {kind: "\t".join(["%s"] + [conv for _, conv in fields])
               for kind, fields in REFERENCE_REC_TYPES.items()}
    lines = ["\t".join(["run"] + ["%s=%s" % pair for pair in header.items()])]
    lines += [formats[rec[0]] % rec for rec in trace.records]
    return "\n".join(lines) + "\n"


def test_writer_matches_the_reference_writer_on_the_corpus() -> None:
    for config in ROUND_TRIP_CORPUS:
        run = run_scenario(config).trace
        text = trace_to_text(run)
        assert text == reference_trace_to_text(run)
        assert reference_trace_to_text(trace_from_text(text)) == text


# Time spellings for repeating_time_traces: both zeros, and a latest
# arrival above every send.
SPELLED_TIMES = ("-1.0", "-0.0", "0.0", "0.1", "0.25", "1.0", "2.0")


@st.composite
def repeating_time_traces(draw) -> Trace:
    """A bare trace of snd, dlv and tag records whose times repeat: each
    is one of SPELLED_TIMES, as an earlier record's very float or as an
    equal copy.  Messages in flight share arrivals, snds are timed at
    pending arrivals, a dlv's time is its snd's arrival or an equal
    float, the other zero included, and some messages are never
    delivered."""
    floats = [float(spelled) for spelled in SPELLED_TIMES]

    def a_time(fits) -> float:
        t = draw(st.sampled_from([x for x in floats if fits(x)]))
        if draw(st.booleans()):
            t = float(repr(t))
            floats.append(t)
        return t

    trace = Trace(algorithm="abd", seed=0)
    in_flight: list[tuple[float, int]] = []
    for op_seq in range(1, draw(st.integers(1, 30)) + 1):
        step = draw(st.sampled_from(["snd", "dlv", "tag"] if in_flight else ["snd", "tag"]))
        if step == "snd":
            t = a_time(lambda x: x < 2.0)
            arrive = a_time(lambda x: x > t)
            trace.records.append(("snd", t, "r0", "s0", MessageKind.READ_REQUEST, "r0", op_seq, arrive))
            in_flight.append((arrive, op_seq))
        elif step == "dlv":
            arrive, sent_seq = in_flight.pop(draw(st.integers(0, len(in_flight) - 1)))
            t = arrive if draw(st.booleans()) else a_time(lambda x: x == arrive)
            trace.records.append(("dlv", t, "s0", "r0", MessageKind.READ_REQUEST, "r0", sent_seq))
        else:
            trace.records.append(("tag", a_time(lambda x: True), "s0", 1, 0))
    trace.add(("end", 3.0, "incomplete", 0, 0))
    return trace


@settings(max_examples=300, deadline=None)
@given(trace=repeating_time_traces())
def test_writer_matches_the_reference_writer_where_times_repeat(trace) -> None:
    text = trace_to_text(trace)
    assert text == reference_trace_to_text(trace)
    parsed = trace_from_text(text)
    assert trace_to_text(parsed) == text
    assert reference_trace_to_text(parsed) == text


def test_a_delivery_at_minus_zero_keeps_its_sign() -> None:
    # -0.0 == 0.0, so a snd arriving at 0.0 matches a dlv at -0.0 on the
    # wire; the dlv's text must still be its own.
    text = "".join("\t".join(fields) + "\n" for fields in [
        ("run", "algorithm=abd", "seed=0"),
        ("inv", "-1.0", "r0", "1", "read", "-"),
        ("snd", "-1.0", "r0", "s0", "readRequest", "r0", "1", "0.0"),
        ("dlv", "-0.0", "s0", "r0", "readRequest", "r0", "1"),
        ("end", "1.0", "incomplete", "0", "0"),
    ])
    trace, verdict = harness.verify_trace(text)
    assert verdict is None
    assert trace_to_text(trace) == reference_trace_to_text(trace) == text


def test_identical_messages_in_flight_and_a_minus_zero_delivery() -> None:
    # Two identical snd lines share the text of their dlv lines, which
    # one foretold record can serve once; a dlv at -0.0 is spelled
    # otherwise than its snd's arrival at 0.0.  Each is parsed as the
    # per-field parser parses it, and the wire replays.
    text = "".join("\t".join(fields) + "\n" for fields in [
        ("run", "algorithm=abd", "seed=0"),
        ("inv", "-1.0", "r0", "1", "read", "-"),
        ("snd", "-1.0", "r0", "s0", "readRequest", "r0", "1", "0.5"),
        ("snd", "-1.0", "r0", "s0", "readRequest", "r0", "1", "0.5"),
        ("snd", "-1.0", "r0", "s1", "readRequest", "r0", "1", "0.0"),
        ("dlv", "-0.0", "s1", "r0", "readRequest", "r0", "1"),
        ("dlv", "0.5", "s0", "r0", "readRequest", "r0", "1"),
        ("dlv", "0.5", "s0", "r0", "readRequest", "r0", "1"),
        ("end", "1.0", "incomplete", "0", "0"),
    ])
    parsed = trace_from_text(text)
    assert parsed == reference_trace_from_text(text)
    replay_wire(parsed)
    assert trace_to_text(parsed) == text
    arrivals = [rec[7] for rec in parsed.records if rec[0] == "snd"]
    dlv_times = [rec[1] for rec in parsed.records if rec[0] == "dlv"]
    assert math.copysign(1.0, dlv_times[0]) == -1.0
    assert all(any(t is arrive for arrive in arrivals) for t in dlv_times[1:])


def parse_outcome(parse, text: str):
    """What a parser makes of a text: its Trace, or its ValueError's text."""
    try:
        return parse(text)
    except ValueError as exc:
        return "ValueError: %s" % exc


PARSE_MUTATIONS = ["add_field", "drop_field", "bad_time", "non_finite", "early_arrival",
                   "unknown_kind", "after_end", "blank", "pid", "message_kind", "respell",
                   "repeat_dlv", "broadcast_field", "two_faults"]


def broadcast_followers(lines: list[str]) -> list[int]:
    """Indexes of the snd lines whose src, kind, client and op_seq are
    those of the snd line before them: a broadcast's later lines."""
    followers, last = [], None
    for i, line in enumerate(lines):
        parts = line.split("\t")
        if parts[0] == "snd":
            shared = (parts[2],) + tuple(parts[4:7])
            if shared == last:
                followers.append(i)
            last = shared
    return followers


def other_values(lines: list[str], j: int, field: str) -> list[str]:
    """Valid values of a snd line's field j other than field: another
    server as src, another message kind, another client, or op_seq
    +- 1."""
    if j == 6:
        return [str(int(field) + 1), str(int(field) - 1)]
    if j == 4:
        return sorted(set(trace_module._MESSAGE_KINDS) - {field})
    nodes = {ln.split("\t")[3] for ln in lines if ln.startswith("snd\t")}
    return sorted(p for p in nodes if p != field and (p[0] == "s") == (j == 2))


def respellings(field: str) -> list[str]:
    """Other spellings of a time or op_seq field's value: an int with a
    leading zero or sign, a float with a trailing zero, an exponent or
    17 significant digits."""
    if field.isdecimal():
        return ["0" + field, "+" + field]
    x = float(field)
    spelled = [format(x, ".17e"), format(x, ".16e")]
    if "e" not in field:
        spelled += [field + "e0", field + "0"]
    return [other for other in spelled if other != field and float(other) == x]


def check_parser_matches(data) -> None:
    """Mutate one line of a fuzz base trace and parse it with both
    parsers: the same Trace or the same ValueError text, but for the two
    checks only trace_from_text makes, a run header on line 1 and a known
    message kind.  respell and repeat_dlv make dlv lines that no snd
    foretells, which trace_from_text parses field by field.
    broadcast_field respells the op_seq of a later line of a broadcast
    or gives it another src, kind, client or op_seq, so the line no longer
    shares what trace_from_text parsed of the line before it; two_faults
    breaks a snd's dst and kind, and the dst's fault is reported."""
    lines = list(data.draw(st.sampled_from(fuzz_base_lines())))
    mutation = data.draw(st.sampled_from(PARSE_MUTATIONS))
    kinds = {"early_arrival": ["snd"], "pid": ["snd", "dlv", "inv", "crs"],
             "message_kind": ["snd", "dlv"], "respell": ["dlv"],
             "repeat_dlv": ["dlv"], "broadcast_field": ["snd"],
             "two_faults": ["snd"]}.get(mutation, sorted(_REC_TYPES))
    kind = data.draw(st.sampled_from(kinds))
    if mutation == "broadcast_field":
        i = data.draw(st.sampled_from(broadcast_followers(lines)))
    else:
        i = data.draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.split("\t")[0] == kind]))
    parts = lines[i].split("\t")
    if mutation == "respell":
        if data.draw(st.booleans()):  # respell the dlv's snd instead
            key = wire_key(parts)
            i = max(j for j in range(i) if lines[j].startswith("snd\t")
                    and wire_key(lines[j].split("\t")) == key)
            parts = lines[i].split("\t")
        j = data.draw(st.sampled_from([1, 6, 7] if parts[0] == "snd" else [1, 6]))
        parts[j] = data.draw(st.sampled_from(respellings(parts[j])))
    elif mutation == "add_field":
        parts.insert(data.draw(st.integers(1, len(parts))), "0")
    elif mutation == "drop_field":
        del parts[data.draw(st.integers(1, len(parts) - 1))]
    elif mutation == "bad_time":
        parts[1] = data.draw(st.sampled_from(["x", "", "0.1.2", "1e", "0x1p3"]))
    elif mutation == "non_finite":
        j = data.draw(st.sampled_from([1, 7] if kind == "snd" else [1]))
        parts[j] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif mutation == "early_arrival":
        parts[7] = repr(float(parts[1]) - data.draw(st.sampled_from([0.0, 0.001, 1.0])))
    elif mutation == "unknown_kind":
        parts[0] = data.draw(st.sampled_from(["xyz", "Snd", "snd ", "run2"]))
    elif mutation == "pid":
        j = data.draw(st.sampled_from([j for j, p in enumerate(parts) if j and PID_TOKEN.fullmatch(p)]))
        digits = parts[j][1:]
        parts[j] = parts[j][0] + data.draw(
            st.sampled_from(["0" + digits, digits.translate(ARABIC_INDIC_DIGITS), "x", ""]))
    elif mutation == "message_kind":
        parts[4] = data.draw(st.sampled_from(["readWhatever", "bogusKind", "ReadAck", "readAck ",
                                              "writeack", "read", ""]))
    elif mutation == "broadcast_field":
        if data.draw(st.booleans()):  # the same op_seq, spelled otherwise
            parts[6] = data.draw(st.sampled_from(respellings(parts[6])))
        else:
            j = data.draw(st.sampled_from([2, 4, 5, 6]))
            parts[j] = data.draw(st.sampled_from(other_values(lines, j, parts[j])))
    elif mutation == "two_faults":  # the dst's fault comes first
        parts[3] = data.draw(st.sampled_from(["x", "s07", ""]))
        parts[4] = "bogusKind"
    if mutation == "after_end":
        lines.append("\t".join(parts))
    elif mutation == "blank":
        lines.insert(data.draw(st.integers(0, len(lines))), "")
    elif mutation == "repeat_dlv":
        lines.insert(i, lines[i])
    else:
        lines[i] = "\t".join(parts)
    text = "\n".join(lines) + "\n"
    found = parse_outcome(trace_from_text, text)
    if text.split("\t", 1)[0] != "run":  # only the new parser refuses a headerless trace
        assert found == "ValueError: line 1: no run header"
    elif mutation == "message_kind":  # nor did the old one know the message kinds
        assert found == "ValueError: line %d: unknown message kind %r" % (i + 1, parts[4])
    else:
        assert found == parse_outcome(reference_trace_from_text, text)
    if mutation == "broadcast_field" and parts[6] != str(int(parts[6])):
        # A snd spelled otherwise foretells no delivery that a dlv line
        # spelled as the simulator writes it takes unparsed, so no dlv
        # record shares the snd's arrival float.
        arrive = found.records[i - 1][7]
        assert not any(rec[0] == "dlv" and rec[1] is arrive for rec in found.records)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parser_matches_the_per_field_parser(data) -> None:
    check_parser_matches(data)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parser_matches_the_per_field_parser_across_chunk_cuts(data) -> None:
    # Chunks of a few characters put a cut after almost every line.
    with mock.patch.object(trace_module, "_CHUNK_CHARS", data.draw(st.integers(1, 80))):
        check_parser_matches(data)


# ------------------------------- the previous verify_trace as an oracle

def reference_verify_trace(text: str) -> Trace:
    """verify_trace as it was before a scenario trace was held to its
    re-run alone: the parse, the replay of the parsed wire, the header's
    validation, the canonical compare, then the re-run's compare."""
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
                         % harness._first_difference(text, canonical))
    if trace.config is not None:
        rerun = trace_to_text(run_scenario(trace.config).trace)
        if rerun != text:
            lineno, found, expected = harness._first_difference(text, rerun)
            raise ValueError("line %d: re-run gives %r, trace has %r" % (lineno, expected, found))
    return trace


@functools.cache
def small_scenario_lines() -> tuple[tuple[str, ...], ...]:
    """Lines of small scenario traces of erato, erato_mw, abd and ohmam,
    with crashes."""
    configs = [cfg(crash_servers=((2, 0.3),), seed=3),
               cfg(algorithm="ohmam", n_writers=2, ops_per_client=1, crash_writers=((1, 0.25),), seed=5)]
    return fuzz_base_lines() + tuple(tuple(trace_to_text(run_scenario(c).trace).splitlines())
                                     for c in configs)


def edited_header_values(value: str) -> list[str]:
    """Values for a header field that now reads value: ones that do not
    parse or that validate refuses, the other names a text field takes,
    half and four times a number, and a thousand times it spelled as its
    type does not write it.  Both verifiers refuse that spelling before
    any run; a canonical value is re-run, so it stays small (a larger
    scenario can take long to run, ops_per_client alone decides how
    long)."""
    out = ["x", "", "0", "-1", "nan", *sorted(ALGORITHMS), "series", "star", "majority", "matrix",
           "fixed", "stochastic"]
    if value.isdigit():
        out += [str(int(value) // 2), str(int(value) * 4), "0%s000" % value]
    elif value.replace(".", "", 1).isdigit():
        out += [repr(float(value) / 2), repr(float(value) * 4), value + "e3"]
    return out


def verify_outcome(verify, text: str):
    """What a verify_trace makes of a text: its Trace, or its ValueError's
    text."""
    try:
        return verify(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_trace_matches_the_previous_verify_trace(data) -> None:
    """Both accept a singly mutated scenario trace, returning equal
    traces, or both refuse it with one line naming a line; verify_trace
    names that line or an earlier one, but in two cases.  A trace whose
    end line is deleted ends where the re-run has that line: the parser
    refused it at the line before.  A crs line edited to an earlier time
    or another node differs from the re-run there, while the replay
    refused an earlier act of the crashed node."""
    lines = list(data.draw(st.sampled_from(small_scenario_lines())))
    mutation = data.draw(st.sampled_from(["delete", "duplicate", "swap", "field", "header"]))
    i = data.draw(st.integers(0 if mutation in ("delete", "duplicate", "swap") else 1, len(lines) - 1))
    if mutation == "delete":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(i, lines[i])
    elif mutation == "swap":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif mutation == "field":
        parts = lines[i].split("\t")
        k = data.draw(st.integers(1, len(parts) - 1))
        column = [ln.split("\t")[k] for ln in lines if ln.split("\t")[0] == parts[0]]
        parts[k] = data.draw(st.sampled_from(column + ["x", "", "0", "-1", "nan", "s0", "r0", "w1"]))
        lines[i] = "\t".join(parts)
    else:
        parts = lines[0].split("\t")
        k = data.draw(st.integers(1, len(parts) - 1))
        key, _, value = parts[k].partition("=")
        parts[k] = "%s=%s" % (key, data.draw(st.sampled_from(edited_header_values(value))))
        lines[0] = "\t".join(parts)
    text = "\n".join(lines) + "\n"
    expected = verify_outcome(reference_verify_trace, text)
    found = verify_outcome(lambda t: harness.verify_trace(t)[0], text)
    if isinstance(expected, Trace):
        assert found == expected
        return
    assert isinstance(found, str) and len(found.splitlines()) == 1
    n_expected = int(re.match(r"line (\d+): ", expected).group(1))
    n_found = int(re.match(r"line (\d+): ", found).group(1))
    if mutation == "delete" and i == len(lines):
        assert expected == "line %d: trace has no end record" % i
        assert n_found == i + 1 and found.endswith(", trace has ''")
    elif mutation == "field" and lines[i].startswith("crs\t") and n_found > n_expected:
        assert ", at or after its crash at " in expected and n_found == i + 1
    else:
        assert n_found <= n_expected


def test_a_scenario_trace_is_held_to_one_rerun_and_no_parse() -> None:
    # A scenario trace costs one run, one serialisation and one replay;
    # a bare trace is parsed.  The re-run's verdict comes with its trace.
    result = run_scenario(cfg())
    trace = result.trace
    text = trace_to_text(trace)
    bare = "run\talgorithm=erato\tseed=1\n" + text.split("\n", 1)[1]
    with mock.patch.object(harness, "trace_from_text", side_effect=AssertionError("parsed")), \
            mock.patch.object(harness, "run", wraps=harness.run) as run, \
            mock.patch.object(harness, "trace_to_text", wraps=trace_to_text) as to_text, \
            mock.patch.object(harness, "replay_wire", wraps=replay_wire) as replay:
        assert harness.verify_trace(text) == (trace, result.verdict)
        with pytest.raises(AssertionError, match="parsed"):
            harness.verify_trace(bare)
    assert (run.call_count, to_text.call_count, replay.call_count) == (1, 1, 1)
    with mock.patch.object(harness, "trace_from_text", wraps=trace_from_text) as parse:
        parsed, verdict = harness.verify_trace(bare)
        assert parsed.config is None and verdict is None
    parse.assert_called_once_with(bare)


# One header line of erato/star, 5 servers, 4 readers and 3000 operations
# per client: 211 bytes whose re-run would take seconds and hundreds of MB.
CAP_1E9_HEADER = ("run\talgorithm=erato\tseed=0\tcap_seconds=1e9\tjitter_max=0.001\tn_readers=4"
                  "\tn_servers=5\tn_writers=1\tops_per_client=3000\tquorums=majority\tread_interval=2.0"
                  "\tscheme=fixed\ttopology=star\tvalue_size=64\twrite_interval=2.0\n")


@pytest.mark.parametrize("edit", ["as is", "seed", "majority(500)", "crlf"])
def test_a_header_the_rerun_would_not_write_is_refused_before_it_runs(edit) -> None:
    # Line 1 is compared with the header the re-run writes before the
    # re-run, with the message the comparison after it gives.
    if edit == "crlf":
        text = trace_to_text(run_scenario(cfg()).trace)
        want = text.splitlines(True)[0]
        text = text.replace("\n", "\r\n")
    else:
        text = CAP_1E9_HEADER
        if edit == "seed":
            text = text.replace("\tseed=0\t", "\tseed=12\t")
        elif edit == "majority(500)":
            text = (text.replace("\tn_readers=4\t", "\tn_readers=1\t")
                    .replace("\tn_servers=5\t", "\tn_servers=500\t")
                    .replace("\tops_per_client=3000\t", "\tops_per_client=2\t"))
        want = text.replace("cap_seconds=1e9", "cap_seconds=1000000000.0")
    assert text.splitlines(True)[0] != want
    with mock.patch.object(harness, "run", side_effect=AssertionError("ran")), \
            pytest.raises(ValueError) as exc:
        harness.verify_trace(text)
    assert str(exc.value) == "line 1: re-run gives %r, trace has %r" % (want, text.splitlines(True)[0])


def test_the_rerun_wire_is_replayed() -> None:
    # A run whose first res claims 7 exchanges writes the text its re-run
    # writes: only the replay of the re-run's wire refuses it.
    def run_claiming_7(*args, **kwargs):
        trace = netsim_run(*args, **kwargs)
        i = next(i for i, rec in enumerate(trace.records) if rec[0] == "res")
        trace.records[i] = trace.records[i][:4] + (7,) + trace.records[i][5:]
        return trace

    with mock.patch.object(harness, "run", run_claiming_7):
        text = trace_to_text(run_scenario(cfg()).trace)
        with pytest.raises(ValueError) as exc:
            harness.verify_trace(text)
    lineno = next(n for n, ln in enumerate(text.splitlines(), start=1) if ln.startswith("res\t"))
    assert re.fullmatch(r"line %d: res for op \d+ at \S+ claims 7 exchanges, the wire shows 2" % lineno,
                        str(exc.value))


@pytest.mark.parametrize("where", ["line end", "inside a line"])
@pytest.mark.parametrize("brk", ["\r\n", "\r", "\x0b", "\u2028"])
def test_line_breaks_are_those_of_splitlines(where, brk) -> None:
    # A short trace with brk ending every third line, or splitting one
    # record in two, parses as reference_trace_from_text parses it, with
    # a chunk cut at any of its "\n"s.
    base = fuzz_base_lines()[1]
    lines = list(base[:40]) + [base[-1]]
    if where == "line end":
        text = "".join(ln + (brk if n % 3 == 1 else "\n") for n, ln in enumerate(lines))
    else:
        lines[20] = lines[20].replace("\t", brk, 2).replace(brk, "\t", 1)
        text = "\n".join(lines) + "\n"
    expected = parse_outcome(reference_trace_from_text, text)
    assert isinstance(expected, Trace) == (where == "line end")
    for chunk_chars in [*range(1, 100), trace_module._CHUNK_CHARS]:
        with mock.patch.object(trace_module, "_CHUNK_CHARS", chunk_chars):
            assert parse_outcome(trace_from_text, text) == expected


@pytest.mark.parametrize("extra", [-1, 1])
@pytest.mark.parametrize("kind", sorted(_REC_TYPES))
def test_wrong_field_count_is_a_bad_record(kind, extra) -> None:
    # The arity check comes before the builder, which would index past
    # the fields of a short line: an IndexError would escape check's
    # except ValueError as a traceback.
    lines = fuzz_base_lines()[0]
    parts = next(ln for ln in lines if ln.split("\t")[0] == kind).split("\t")
    line = "\t".join(parts[:-1] if extra < 0 else parts + ["0"])
    with pytest.raises(ValueError) as exc:
        trace_from_text(lines[0] + "\n" + line + "\n" + lines[-1] + "\n")
    assert str(exc.value) == "line 2: bad trace record %r" % line


@functools.cache
def relay_run() -> tuple[Trace, str]:
    """An erato run on majority(9)/star with 20 readers, and its text:
    1.6 MB, many chunks long."""
    config = cfg(topology="star", n_servers=9, n_readers=20, read_interval=0.1,
                 write_interval=0.25, ops_per_client=8)
    run = run_scenario(config).trace
    return run, trace_to_text(run)


def test_relay_sized_trace_round_trips() -> None:
    run, text = relay_run()
    assert len(text) > 10 * trace_module._CHUNK_CHARS
    parsed = trace_from_text(text)
    assert trace_to_text(parsed) == text
    replay_wire(parsed)
    assert parsed == run


def test_deliveries_share_their_sends_arrival() -> None:
    # A dlv's time is the very float of its snd's arrival, in the
    # simulated trace and in its parse.
    run, text = relay_run()
    for trace in (run, trace_from_text(text)):
        in_flight: dict[tuple, deque] = {}
        delivered = 0
        for rec in trace.records:
            if rec[0] == "snd":
                in_flight.setdefault(rec[2:], deque()).append(rec[7])
            elif rec[0] == "dlv":
                _, t, dst, src, kind, client, op_seq = rec
                assert in_flight[(src, dst, kind, client, op_seq, t)].popleft() is t
                delivered += 1
        assert delivered > 10_000


def test_parse_memory_is_the_trace_it_returns() -> None:
    # Beyond the trace it returns, the parse holds one chunk's lines at a
    # time; a list of every line would be about twice the text's size.
    _, text = relay_run()
    assert len(text) >= 2**20
    tracemalloc.start()
    try:
        parsed = trace_from_text(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < len(text) / 4
    # Every message kind is the simulator's own str, not a copy per record.
    constants = {id(v) for k, v in vars(MessageKind).items() if not k.startswith("_")}
    assert len(constants) == 7
    wire = [rec for rec in parsed.records if rec[0] in ("snd", "dlv")]
    assert wire and all(id(rec[4]) in constants for rec in wire)


def crash_run() -> tuple[Trace, str]:
    """An erato run on majority(5)/series, 5 readers, 40 operations per
    client, whose server s0 and reader r0 crash at 1 s of about 20, and
    its text: 0.6 MB, of which one snd in seven goes to a crashed node."""
    config = cfg(n_servers=5, n_readers=5, read_interval=0.5, write_interval=0.5,
                 ops_per_client=40, crash_servers=((0, 1.0),), crash_readers=((0, 1.0),))
    run = run_scenario(config).trace
    return run, trace_to_text(run)


def test_parse_files_no_delivery_to_a_crashed_node() -> None:
    # A snd to a node whose crs line came first is never delivered; a
    # delivery foretold for each would stay until the parse ends, 0.40x
    # the text above what the parse returns on this trace.
    run, text = crash_run()
    assert len(text) >= 2**19
    crashed: set = set()
    late = 0
    for rec in run.records:
        if rec[0] == "crs":
            crashed.add(rec[2])
        late += rec[0] == "snd" and rec[3] in crashed
    assert late > 500
    tracemalloc.start()
    try:
        parsed = trace_from_text(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - retained < len(text) / 5
    replay_wire(parsed)
    assert parsed == run


def test_delivery_sent_after_the_crash_is_parsed_and_refused() -> None:
    # A dlv line for a snd to s0 made after s0's crs line is foretold by
    # nothing: it parses field by field, as the reference parser does,
    # and the replay refuses it.
    lines = list(fuzz_base_lines()[0])
    crs = next(i for i, ln in enumerate(lines) if ln.startswith("crs\t") and ln.endswith("\ts0"))
    crash = lines[crs].split("\t")[1]
    j = next(j for j in range(crs, len(lines))
             if lines[j].startswith("snd\t") and lines[j].split("\t")[3] == "s0")
    _, _, src, dst, kind, client, op_seq, arrive = lines[j].split("\t")
    lines.insert(j + 1, "\t".join(["dlv", arrive, dst, src, kind, client, op_seq]))
    text = "\n".join(lines) + "\n"
    parsed = trace_from_text(text)
    assert parsed == reference_trace_from_text(text)
    assert parsed.records[j] == ("dlv", float(arrive), "s0", src, kind, client, int(op_seq))
    with pytest.raises(ValueError) as exc:
        replay_wire(parsed)
    assert str(exc.value) == "line %d: dlv to s0 at %s, at or after its crash at %s" % (j + 2, arrive, crash)


def test_serialising_holds_the_lines_and_one_text() -> None:
    # The list of lines and their join come to about three times the
    # text's size; one more copy of the text, such as appending the last
    # "\n" to the join, makes about four.
    run, text = relay_run()
    assert len(text) >= 2**20
    tracemalloc.start()
    try:
        written = trace_to_text(run)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert written == text
    assert peak < 3.5 * len(text)


def test_replay_holds_only_the_messages_in_flight() -> None:
    # A delivered message leaves nothing behind: an emptied queue kept
    # per key would hold one entry for every message ever sent, about
    # eight times the text's size on this trace.
    run, text = relay_run()
    assert len(text) >= 2**20
    tracemalloc.start()
    try:
        replay_wire(run)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * len(text)


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


def test_sweep_reports_atomicity_failures(tmp_path) -> None:
    # The broken-read scenario of the acceptance tests, whose seed 303
    # violates atomicity.
    config = cfg(algorithm="erato_broken", n_readers=12, read_interval=0.08, write_interval=0.15,
                 ops_per_client=10, writes_per_client=5, jitter_max=0.15, seed=303)
    with pytest.raises(SweepError) as exc:
        sweep([config], tmp_path)
    assert exc.value.exit_code == EXIT_ATOMICITY
    [line] = exc.value.report
    assert line.startswith("erato_broken_series_s3_r12_w1_stochastic seed 303: atomicity A1 — read 11 ")


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

    monkeypatch.setattr(sweep_module.concurrent.futures, "ProcessPoolExecutor", InlinePool)
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

    doctored.verdict = Verdict("A1", (1, 2), "synthetic")
    assert doctored.exit_code() == EXIT_ATOMICITY
    # An atomicity violation outranks a liveness failure.
    capped.verdict = doctored.verdict
    assert capped.exit_code() == EXIT_ATOMICITY
