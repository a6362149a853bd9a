"""Metrics tests: the wire replay's message attribution against
hand-counted send totals and against a phase-count reference, the
simulator's message, exchange and stale counts against replay_wire's
recount from the trace records, and summary statistics on fixed
inputs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim.config import ScenarioConfig, validate
from regsim.core import reader, server, writer
from regsim.harness import run_scenario, verify_trace
from regsim.metrics import (
    OpStats,
    per_operation_stats,
    percentile_nearest_rank,
    summarize,
)
from regsim.netsim import WorkItem, build_topology, run
from regsim.protocols import ALGORITHMS, EXTRA_ALGORITHMS, get_algorithm
from regsim.quorum import build_majority, build_matrix
from regsim.trace import replay_wire, trace_to_text


def sim(algorithm: str, qs, n_servers: int, items, crashes=()):
    net = build_topology("star", n_servers, 2, 2)
    net.jitter_max = 0.0
    return run(net, get_algorithm(algorithm), qs, items, crash_schedule=crashes)


def test_erato_write_and_read_message_counts() -> None:
    # One writer round trip: S requests + S acks.  One relay read:
    # S requests + S*(S+1) relays + S acks.
    trace = sim("erato", build_majority(3), 3, [
        WorkItem(0.0, writer(0), "write", b"x" * 64),
        WorkItem(1.0, reader(0), "read"),
    ])
    counts = replay_wire(trace)
    assert counts == {1: 6, 2: 18}
    assert trace.ops[2].messages == 18


def test_erato_read_messages_at_nine_servers() -> None:
    # With a square grid of 9 servers every server relays to all nine
    # servers plus the reader: 9 + 9*10 + 9 = 108.
    trace = sim("erato", build_matrix(3, 3), 9, [WorkItem(0.0, reader(0), "read")])
    assert replay_wire(trace) == {1: 108}
    assert 108 == 9 * 9 + 3 * 9


def test_erato_mw_write_uses_four_waves() -> None:
    trace = sim("erato_mw", build_majority(3), 3, [
        WorkItem(0.0, writer(1), "write", b"y" * 64),
    ])
    assert replay_wire(trace) == {1: 12}  # 4 * |S|


def test_ohsam_read_messages() -> None:
    # Relays go server-to-server only: S + S*S + S acks.
    trace = sim("ohsam", build_majority(3), 3, [WorkItem(0.0, reader(0), "read")])
    assert replay_wire(trace) == {1: 15}


def test_abd_read_messages() -> None:
    # Query round trip plus write-back round trip, each at most 2S.
    trace = sim("abd", build_majority(3), 3, [WorkItem(0.0, reader(0), "read")])
    assert replay_wire(trace) == {1: 12}


def test_attribution_covers_every_send() -> None:
    trace = sim("erato_mw", build_majority(3), 3, [
        WorkItem(0.0, writer(0), "write", b"a" * 64),
        WorkItem(0.0, reader(0), "read"),
        WorkItem(0.5, writer(1), "write", b"b" * 64),
        WorkItem(0.6, reader(1), "read"),
    ])
    counts = replay_wire(trace)
    total_sends = sum(1 for r in trace.records if r[0] == "snd")
    assert sum(counts.values()) == total_sends
    assert all(n > 0 for n in counts.values())


def test_attribution_with_crashed_server() -> None:
    trace = sim("erato", build_majority(3), 3,
                [WorkItem(0.0, writer(0), "write", b"x" * 64),
                 WorkItem(1.0, reader(0), "read")],
                crashes=[(server(2), 0.0)])
    counts = replay_wire(trace)
    assert counts[1] == 5   # 3 requests, 2 acks
    assert counts[2] < 18   # one relay wave missing
    assert trace.ops[2].completed


def test_unattributable_send_raises() -> None:
    trace = sim("erato", build_majority(3), 3, [WorkItem(0.0, reader(0), "read")])
    trace.records.append(("snd", 9.0, reader(1), writer(0), "readRequest", reader(1), 99, 9.1))
    with pytest.raises(ValueError):
        replay_wire(trace)


@pytest.mark.parametrize("rec,message", [
    # Reader 0 runs op 1 on op_seq 1; no client send introduced op_seq 2.
    (("snd", 9.0, server(0), reader(0), "readAck", reader(0), 2, 9.1), "does not attribute"),
    (("snd", 9.0, server(0), reader(0), "writeAck", reader(0), 1, 9.1), "attributed to a read operation"),
    (("dlv", 9.0, server(0), reader(0), "readRequest", reader(0), 1),
     "dlv of readRequest \\(client r0, op 1\\) from r0 to s0 at 9.0 matches no earlier snd"),
])
def test_server_send_that_fits_no_client_operation_raises(rec, message) -> None:
    trace = sim("erato", build_majority(3), 3, [WorkItem(0.0, reader(0), "read")])
    trace.records.append(rec)
    # The record's line in the trace's text, after the run header.
    with pytest.raises(ValueError, match="^line %d: .*%s" % (len(trace.records) + 1, message)):
        replay_wire(trace)


# Reference attribution by declared phase counts: each protocol burns a
# fixed number of op_seq values per read and per write, so a send's
# op_seq divided by that count, rounded up, is the client-local ordinal
# of its operation.
PHASES = {  # name -> (read phases, write phases)
    "erato": (1, 1), "erato_mw": (1, 2), "abd": (2, 1), "abd_mw": (2, 2),
    "ohsam": (1, 1), "ohmam": (1, 2), "erato_broken": (1, 1),
}


def phase_count_owners(trace):
    """Yield, for each send, its op id and the op its client last invoked."""
    per_read, per_write = PHASES[trace.algorithm]
    op_by_ordinal: dict = {}
    invoked: dict = {}
    for rec in trace.records:
        if rec[0] == "inv":
            invoked[rec[2]] = ordinal = invoked.get(rec[2], 0) + 1
            op_by_ordinal[(rec[2], ordinal)] = rec[3]
        elif rec[0] == "snd":
            _, _, _src, _dst, kind, client, op_seq = rec[:7]
            reading = kind.startswith("read")
            op_id = op_by_ordinal[(client, math.ceil(op_seq / (per_read if reading else per_write)))]
            assert trace.ops[op_id].kind == ("read" if reading else "write")
            yield op_id, op_by_ordinal[(client, invoked[client])]


def phase_count_attribution(trace) -> dict[int, int]:
    counts = {op_id: 0 for op_id in trace.ops}
    for op_id, _ in phase_count_owners(trace):
        counts[op_id] += 1
    return counts


@st.composite
def scenarios(draw) -> ScenarioConfig:
    """Small runs of every protocol.  Short intervals make a client invoke
    again while servers still answer its previous operation."""
    algorithm = draw(st.sampled_from(sorted(ALGORITHMS) + sorted(EXTRA_ALGORITHMS)))
    server_crash = draw(st.none() | st.floats(0.0, 0.3))
    reader_crash = draw(st.none() | st.floats(0.0, 0.3))
    interval = draw(st.sampled_from([0.005, 0.02, 0.05]))
    return validate(ScenarioConfig(
        algorithm=algorithm,
        topology=draw(st.sampled_from(["series", "star"])),
        n_servers=draw(st.sampled_from([3, 5])),
        n_readers=draw(st.integers(1, 3)),
        n_writers=2 if draw(st.booleans()) and get_algorithm(algorithm).mw else 1,
        scheme="stochastic", read_interval=interval, write_interval=interval, ops_per_client=4,
        seed=draw(st.integers(0, 10_000)), jitter_max=draw(st.floats(0.0, 0.01)),
        crash_servers=() if server_crash is None else ((0, server_crash),),
        crash_readers=() if reader_crash is None else ((0, reader_crash),),
    ))


@settings(max_examples=60, deadline=None)
@given(config=scenarios())
def test_wire_attribution_matches_phase_counts(config) -> None:
    trace = run_scenario(config).trace
    assert replay_wire(trace) == phase_count_attribution(trace)


def simulated_messages(trace) -> dict[int, int]:
    """The message counts netsim.run took, by op id."""
    return {op_id: op.messages for op_id, op in trace.ops.items()}


def test_late_server_sends_stay_with_their_operation() -> None:
    # At this seed servers still answer a reader's operation after the
    # reader has invoked its next one.
    trace = run_scenario(validate(ScenarioConfig(
        algorithm="erato", topology="series", n_servers=5, n_readers=2, n_writers=1,
        scheme="stochastic", read_interval=0.02, write_interval=0.02, ops_per_client=4,
        seed=11, jitter_max=0.01,
    ))).trace
    assert sum(op_id != last for op_id, last in phase_count_owners(trace)) > 0
    simulated = simulated_messages(trace)  # before attribution overwrites them
    assert simulated == replay_wire(trace) == phase_count_attribution(trace)


@settings(max_examples=60, deadline=None)
@given(config=scenarios())
def test_simulator_message_counts_match_attribution(config) -> None:
    trace = run_scenario(config).trace
    simulated = simulated_messages(trace)
    assert simulated == replay_wire(trace)


def assert_wire_counts(trace) -> None:
    """The simulator's exchange and stale counts, as its res and end
    records state them, match replay_wire's recount from the
    records alone; and verify_trace, which makes that recount and
    re-runs the scenario for `regsim check`, accepts the trace's text
    and returns an equal trace."""
    replay_wire(trace)
    assert verify_trace(trace_to_text(trace)) == trace


@settings(max_examples=60, deadline=None)
@given(config=scenarios())
def test_wire_counts_match_record_reference(config) -> None:
    # Every protocol, erato_broken included, with and without crashes.
    assert_wire_counts(run_scenario(config).trace)


def test_wire_counts_with_stale_and_trailing_deliveries() -> None:
    # At this seed a client receives both traffic of an earlier phase
    # (stale) and traffic of its current operation after its response,
    # and a server's loopback relay completes the relay quorum behind a
    # read's acknowledgement.
    trace = run_scenario(validate(ScenarioConfig(
        algorithm="erato_mw", topology="star", n_servers=5, n_readers=2, n_writers=1,
        scheme="stochastic", read_interval=0.02, write_interval=0.02, ops_per_client=4,
        seed=6, jitter_max=0.01,
    ))).trace
    responded: set = set()
    latest_seq: dict = {}
    trailing = 0
    for rec in trace.records:
        if rec[0] == "snd" and not rec[2].startswith("s"):
            latest_seq[rec[2]] = rec[6]
        elif rec[0] == "res":
            responded.add(rec[2])
        elif rec[0] == "inv":
            responded.discard(rec[2])
        elif rec[0] == "dlv" and rec[2] in responded and rec[6] == latest_seq.get(rec[2]):
            trailing += 1
    assert trace.stale_drops > 0 and trailing > 0
    assert_wire_counts(trace)


def test_per_operation_stats_excludes_incomplete() -> None:
    trace = sim("erato", build_majority(3), 3,
                [WorkItem(0.0, writer(0), "write", b"x" * 64)], )
    trace2 = sim("erato", build_majority(3), 3,
                 [WorkItem(0.0, writer(0), "write", b"x" * 64),
                  WorkItem(1.0, reader(0), "read")],
                 crashes=[(reader(0), 1.001)])
    stats = per_operation_stats(trace)
    assert len(stats) == 1 and stats[0].kind == "write" and stats[0].exchanges == 2
    assert stats[0].latency_s > 0
    stats2 = per_operation_stats(trace2)
    assert [s.op_id for s in stats2] == [1]


def test_percentile_nearest_rank() -> None:
    values = [float(i) for i in range(1, 21)]
    assert percentile_nearest_rank(values, 0.95) == 19.0
    assert percentile_nearest_rank(values, 1.0) == 20.0
    assert percentile_nearest_rank([3.5], 0.95) == 3.5


def make_stat(kind: str, latency: float, exchanges: int) -> OpStats:
    return OpStats("erato", 1, reader(0), kind, 0.0, latency, exchanges, 10)


def test_summarize_groups_and_histograms() -> None:
    stats = [
        make_stat("read", 0.010, 2),
        make_stat("read", 0.020, 2),
        make_stat("read", 0.030, 3),
        make_stat("write", 0.015, 2),
    ]
    reads, writes = summarize(stats)
    assert (reads.op_kind, writes.op_kind) == ("read", "write")
    assert reads.count == 3
    assert reads.mean_latency == pytest.approx(0.020)
    assert reads.median_latency == pytest.approx(0.020)
    assert reads.max_latency == pytest.approx(0.030)
    assert reads.exchange_histogram == {2: 2, 3: 1}
    assert sum(reads.exchange_histogram.values()) == reads.count
    assert reads.fast_read_ratio == pytest.approx(2 / 3)
    assert writes.fast_read_ratio is None


def test_summarize_single_op_and_empty() -> None:
    only = summarize([make_stat("read", 0.5, 2)])[0]
    assert only.mean_latency == only.median_latency == only.max_latency == 0.5
    assert only.fast_read_ratio == 1.0
    assert summarize([]) == []
