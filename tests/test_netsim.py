"""Simulator tests: delay arithmetic, placement, crashes, determinism.

Expected delays are computed by hand from the link parameters:
delay = sum of propagation over the path + size_bits * sum of 1/bandwidth,
with the path being src access link, |router(src) - router(dst)| backbone
hops, dst access link.
"""

import copy
import dataclasses
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regsim import netsim
from regsim.config import ScenarioConfig, build_quorum_system
from regsim.core import Message, MessageKind, Tag, reader, server, writer
from regsim.harness import build_network, crash_schedule
from regsim.netsim import (
    DEFAULT_JITTER_MAX,
    LOOPBACK_DELAY,
    Network,
    WorkItem,
    build_topology,
    message_delay,
    run,
)
from regsim.protocols import ALGORITHMS, EXTRA_ALGORITHMS, get_algorithm
from regsim.protocols.base import NOTHING, Invoke
from regsim.quorum import build_majority
from regsim.trace import replay_wire, trace_to_text
from regsim.workload import build_workload

ERATO = get_algorithm("erato")


def delay(net: Network, src: str, dst: str, rng: random.Random) -> float:
    """message_delay of a 1024-bit message between two named nodes."""
    params = net.path_params()[net.names.index(src)][net.names.index(dst)]
    return message_delay(params, 1024, net.jitter_max, rng)


def star(n_servers: int, n_readers: int, n_writers: int, jitter: float = 0.0) -> Network:
    net = build_topology("star", n_servers, n_readers, n_writers)
    net.jitter_max = jitter
    return net


def series(n_servers: int, n_readers: int, n_writers: int, jitter: float = 0.0) -> Network:
    net = build_topology("series", n_servers, n_readers, n_writers)
    net.jitter_max = jitter
    return net


def test_star_server_pair_delay() -> None:
    # Both servers sit on router 0: no backbone hop, two 50 Mbps / 2 ms
    # access links.  1024 bits: 0.002*2 + 1024 * (2/50e6) = 0.00404096 s.
    net = star(3, 1, 1)
    d = delay(net, server(0), server(1), random.Random(1))
    assert d == pytest.approx(0.00404096, rel=1e-12)


def test_series_server_pair_delay_crosses_backbone() -> None:
    net = series(3, 1, 1)
    assert net.router_hops(0, 2) == 2  # a server's id is its index
    # 0.002*2 + 0.006*2 propagation; 1/10e6 * 2 + 1/10e6 * 2 per bit.
    prop, per_bit = net.path_params()[0][2]
    assert prop == pytest.approx(0.016, rel=1e-12)
    assert per_bit == pytest.approx(4e-7, rel=1e-12)
    d = delay(net, server(0), server(2), random.Random(1))
    assert d == pytest.approx(0.0164096, rel=1e-12)


def test_client_to_server_delay() -> None:
    # reader 0 lands on router 0 next to server 0: 4 ms + 2 ms propagation,
    # 1/5e6 + 1/10e6 per bit.
    net = series(3, 2, 1)
    d = delay(net, reader(0), server(0), random.Random(1))
    assert d == pytest.approx(0.0063072, rel=1e-12)


def test_round_robin_client_placement() -> None:
    net = series(3, 2, 2)
    # Ids: servers first, then readers, then writers.
    assert net.names == ["s0", "s1", "s2", "r0", "r1", "w0", "w1"]
    assert net.router_of == [0, 1, 2, 0, 1, 2, 0]  # writer 1 wraps around


def test_star_places_all_servers_on_first_router() -> None:
    net = star(5, 1, 1)
    assert net.names == ["s0", "s1", "s2", "s3", "s4", "r0", "w0"]
    assert net.router_of == [0, 0, 0, 0, 0, 0, 1]  # clients still go round robin


def test_unknown_topology_kind_is_rejected() -> None:
    with pytest.raises(ValueError):
        build_topology("nonsense", 3, 1, 1)


def test_jitter_bounds() -> None:
    net = star(3, 1, 1, jitter=0.005)
    base = 0.00404096
    rng = random.Random(7)
    draws = [delay(net, server(0), server(1), rng) for _ in range(200)]
    assert all(base <= d < base + 0.005 for d in draws)
    assert max(draws) - min(draws) > 0.001  # jitter actually applied


def test_default_jitter_is_one_ms() -> None:
    net = build_topology("star", 3, 1, 1)
    assert net.jitter_max == DEFAULT_JITTER_MAX == 0.001


def test_single_write_trace() -> None:
    qs = build_majority(3)
    net = series(3, 1, 1)
    trace = run(net, ERATO, qs, [WorkItem(0.0, writer(0), b"x" * 64)])

    op = trace.ops[1]
    assert op.kind == "write" and op.tag == Tag(1, 0) and op.exchanges == 2
    sends = [r for r in trace.records if r[0] == "snd"]
    assert [r for r in sends if r[4] == "writeRequest"] == sends[:3]
    assert len(sends) == 6  # 3 requests + 3 acks
    assert len([r for r in trace.records if r[0] == "tag"]) == 3  # every server adopts
    assert len([r for r in trace.records if r[0] == "wtag"]) == 1

    # Writer sits on router 2.  Request (1024 bits) and ack (512 bits)
    # round trips: s2 at 0.0124608, s1 at 0.0246144, s0 at 0.0367680.
    # The quorum completes on the second ack.
    assert op.responded_at == pytest.approx(0.0246144, rel=1e-12)
    assert not trace.incomplete and trace.stale_drops == 0


def test_read_send_count_and_self_relays() -> None:
    # A relay-based read generates S requests, S*(S+1) relays (each server
    # relays to every server including itself plus the reader), S acks.
    qs = build_majority(3)
    net = series(3, 1, 1)
    items = [
        WorkItem(0.0, writer(0), b"v" * 64),
        WorkItem(0.1, reader(0)),
    ]
    trace = run(net, ERATO, qs, items)
    read_sends = [r for r in trace.records if r[0] == "snd" and r[5] == reader(0)]
    assert len(read_sends) == 3 + 3 * 4 + 3
    self_sends = [r for r in read_sends if r[2] == r[3]]
    assert len(self_sends) == 3
    for r in self_sends:
        assert r[7] - r[1] == pytest.approx(LOOPBACK_DELAY, abs=1e-10)
    read_op = trace.ops[2]
    assert read_op.tag == Tag(1, 0) and read_op.value == b"v" * 64


def test_crashed_server_never_acts() -> None:
    qs = build_majority(3)
    net = series(3, 1, 1)
    trace = run(
        net, ERATO, qs,
        [WorkItem(0.0, writer(0), b"x" * 64)],
        crash_schedule=[(server(0), 0.0)],
    )
    assert trace.ops[1].completed  # majority {s1, s2} suffices
    actor_records = [
        r for r in trace.records
        if (r[0] == "snd" and r[2] == server(0))
        or (r[0] == "dlv" and r[2] == server(0))
        or (r[0] == "tag" and r[2] == server(0))
    ]
    assert actor_records == []
    assert ("crs", 0.0, server(0)) in trace.records


def test_a_node_scheduled_to_crash_twice_is_refused() -> None:
    with pytest.raises(ValueError, match="crash schedule names s0 twice"):
        run(
            series(3, 1, 1), ERATO, build_majority(3),
            [WorkItem(0.0, writer(0), b"x" * 64)],
            crash_schedule=[(server(0), 0.5), (server(0), 0.1)],
        )


def no_step(state, event, qs):
    raise AssertionError("a step ran")


# A run that got past its checks would step w0's write at 0.0 first.
STEPLESS = dataclasses.replace(ERATO, reader_step=no_step, writer_step=no_step, server_step=no_step)
FIRST_WRITE = WorkItem(0.0, writer(0), b"x" * 64)


def test_a_work_item_naming_a_server_is_refused_before_any_event() -> None:
    with pytest.raises(ValueError, match="work item at 1.0 names s0, not a client"):
        run(series(3, 1, 1), STEPLESS, build_majority(3), [FIRST_WRITE, WorkItem(1.0, server(0))])


@pytest.mark.parametrize("workload, crashes, error", [
    ([WorkItem(1.0, reader(5))], (), "work item at 1.0 names r5, which the network lacks"),
    ([], [(server(7), 1.0)], "crash at 1.0 names s7, which the network lacks"),
    ([WorkItem(1.0, reader(0), b"zz")], (), "work item at 1.0 names r0, a reader, with a value"),
    ([WorkItem(1.0, writer(0))], (), "work item at 1.0 names w0, a writer, without a value"),
    ([WorkItem(math.nan, reader(0))], (), "work item at nan names r0: its time is not in [0, inf)"),
    ([WorkItem(-1.0, reader(0))], (), "work item at -1.0 names r0: its time is not in [0, inf)"),
    ([], [(server(0), math.nan)], "crash at nan names s0: its time is not in [0, inf)"),
    # inf is no crash time, so this is no escape from the twice check.
    ([], [(server(0), math.inf), (server(0), 1.0)], "crash at inf names s0: its time is not in [0, inf)"),
], ids=["unknown-reader", "unknown-server-crash", "reader-with-value", "writer-without-value",
        "nan-time", "negative-time", "nan-crash", "inf-crash"])
def test_a_bad_work_item_or_crash_is_refused_before_any_event(workload, crashes, error) -> None:
    with pytest.raises(ValueError, match=re.escape(error)):
        run(series(3, 1, 1), STEPLESS, build_majority(3), [FIRST_WRITE, *workload], crash_schedule=crashes)


def test_a_write_records_the_tag_of_its_write_request() -> None:
    trace = run(series(3, 1, 1), ERATO, build_majority(3),
                [WorkItem(0.0, writer(0), b"x" * 64), WorkItem(0.5, writer(0), b"y" * 64)])
    wtags = [r for r in trace.records if r[0] == "wtag"]
    requests = [r for r in trace.records if r[0] == "snd" and r[4] == MessageKind.WRITE_REQUEST]
    assert wtags == [("wtag", 0.0, writer(0), 1, 1, 0), ("wtag", 0.5, writer(0), 2, 2, 0)]
    # Each wtag comes right before its step's snd records.
    assert [trace.records.index(r) + 1 for r in wtags] == [trace.records.index(r) for r in requests[::3]]
    assert [(op.kind, op.tag) for op in trace.operations()] == [("write", Tag(1, 0)), ("write", Tag(2, 0))]


def test_inflight_from_crashed_node_still_delivers() -> None:
    qs = build_majority(3)
    net = series(3, 1, 1)
    # s0 receives the request at ~0.0185 s and acks immediately; crashing it
    # at 0.02 s leaves that ack in flight, and it must still arrive.
    trace = run(
        net, ERATO, qs,
        [WorkItem(0.0, writer(0), b"x" * 64)],
        crash_schedule=[(server(0), 0.02)],
    )
    acks_from_s0 = [
        r for r in trace.records
        if r[0] == "dlv" and r[2] == writer(0) and r[3] == server(0)
    ]
    assert len(acks_from_s0) == 1 and acks_from_s0[0][1] > 0.02


def test_overlapping_invocation_is_skipped_and_counted() -> None:
    qs = build_majority(3)
    net = series(3, 1, 1)
    items = [
        WorkItem(0.0, reader(0)),
        WorkItem(0.001, reader(0)),  # still pending: skipped
        WorkItem(1.0, reader(0)),
    ]
    trace = run(net, ERATO, qs, items)
    assert trace.skipped_invokes == 1
    assert len(trace.ops) == 2
    assert trace.ops[2].process == reader(0) and trace.ops[2].invoked_at == 1.0


def test_cap_marks_incomplete() -> None:
    qs = build_majority(3)
    net = series(3, 1, 1)
    trace = run(net, ERATO, qs, [WorkItem(0.0, writer(0), b"x" * 64)], cap_s=0.001)
    assert trace.incomplete
    assert not trace.ops[1].completed
    assert trace.records[-1][0] == "end" and trace.records[-1][2] == "incomplete"
    assert trace.end_time == 0.001


def test_the_heap_holds_only_messages(monkeypatch) -> None:
    # Crashes and invocations wait in the schedule; the heap gets one
    # entry per send, at the send's arrival, and nothing else: not the
    # crashes, the skipped invocation or those the cap leaves unreached.
    pushes = []
    heappush = netsim.heapq.heappush

    def counted(heap, entry):
        pushes.append(entry)
        heappush(heap, entry)

    monkeypatch.setattr(netsim.heapq, "heappush", counted)
    items = [
        WorkItem(0.0, writer(0), b"x" * 64),
        WorkItem(0.0, reader(0)),
        WorkItem(0.001, reader(0)),  # still pending: skipped
        WorkItem(0.05, reader(1)),
        WorkItem(2.0, reader(0)),  # past the cap: unreached
        WorkItem(3.0, reader(1)),  # after its client's crash
    ]
    trace = run(series(3, 2, 1), ERATO, build_majority(3), items,
                crash_schedule=[(server(2), 0.01), (reader(1), 0.5)], cap_s=1.0)
    assert trace.skipped_invokes == 1
    assert ("crs", 0.01, server(2)) in trace.records and ("crs", 0.5, reader(1)) in trace.records
    assert trace.records[-1][:3] == ("end", 1.0, "incomplete")
    sends = [r for r in trace.records if r[0] == "snd"]
    assert sends and [entry[0] for entry in pushes] == [r[7] for r in sends]


def test_crashed_client_pending_op_is_not_a_liveness_failure() -> None:
    qs = build_majority(3)
    net = series(3, 1, 2)
    items = [
        WorkItem(0.0, writer(0), b"x" * 64),
        WorkItem(0.0, writer(1), b"y" * 64),
    ]
    trace = run(
        net, get_algorithm("erato_mw"), qs, items,
        crash_schedule=[(writer(1), 0.001)],
    )
    assert trace.ops[1].completed
    assert not trace.ops[2].completed
    assert not trace.incomplete


def test_delivery_strictly_after_send() -> None:
    qs = build_majority(3)
    net = series(3, 2, 1, jitter=0.002)
    items = [
        WorkItem(0.0, writer(0), b"a" * 64),
        WorkItem(0.01, reader(0)),
        WorkItem(0.02, reader(1)),
        WorkItem(0.05, writer(0), b"b" * 64),
    ]
    trace = run(net, ERATO, qs, items, seed=5)
    for r in trace.records:
        if r[0] == "snd":
            assert r[7] > r[1]


def test_same_seed_same_trace_different_seed_differs() -> None:
    qs = build_majority(3)
    net = series(3, 1, 1, jitter=0.003)
    items = [
        WorkItem(0.0, writer(0), b"x" * 64),
        WorkItem(0.004, reader(0)),
    ]
    a = run(net, ERATO, qs, copy.deepcopy(items), seed=42)
    b = run(net, ERATO, qs, copy.deepcopy(items), seed=42)
    c = run(net, ERATO, qs, copy.deepcopy(items), seed=43)
    assert a.records == b.records
    assert a.records != c.records


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    prop=st.floats(0.0, 0.1),
    per_bit=st.floats(0.0, 1e-5),
    size=st.integers(0, 10**6),
    jitter_max=st.just(0.0) | st.floats(0.0, 0.01),
)
def test_message_delay_draws_as_uniform_jitter(seed, prop, per_bit, size, jitter_max) -> None:
    # One uniform(0, jitter_max) draw when there is jitter, none without:
    # the same float, bit for bit, and the generator left in the same state.
    rng, ref = random.Random(seed), random.Random(seed)
    expected = prop + size * per_bit
    if jitter_max > 0.0:
        expected += ref.uniform(0.0, jitter_max)
    got = message_delay((prop, per_bit), size, jitter_max, rng)
    assert got.hex() == expected.hex()
    assert rng.getstate() == ref.getstate()


def test_message_delay_is_the_per_send_hook(monkeypatch) -> None:
    # run takes every non-loopback send's delay from netsim.message_delay,
    # looked up per send, so patching the module name reroutes them all.
    constant = 0.0025
    calls = []

    def fixed_delay(params, size_bits, jitter_max, rng):
        calls.append(size_bits)
        return constant

    monkeypatch.setattr(netsim, "message_delay", fixed_delay)
    items = [
        WorkItem(0.0, writer(0), b"x" * 64),
        WorkItem(0.05, reader(0)),
        WorkItem(0.07, reader(1)),
    ]
    trace = run(series(3, 2, 1, jitter=0.002), ERATO, build_majority(3), items, seed=3)
    sends = [r for r in trace.records if r[0] == "snd"]
    remote = [r for r in sends if r[2] != r[3]]
    loopback = [r for r in sends if r[2] == r[3]]
    assert loopback and len(calls) == len(remote)
    for r in remote:
        assert r[7] - r[1] == pytest.approx(constant, abs=1e-12)
    for r in loopback:
        assert r[7] - r[1] == pytest.approx(LOOPBACK_DELAY, abs=1e-12)
    assert all(op.completed for op in trace.ops.values())


def test_each_send_reads_its_own_message() -> None:
    # The writer's invocation sends a discover to three servers, s1 acks
    # it, and that ack makes the writer send a request to two: every snd
    # names its own step's message's kind, client and op_seq and has its
    # own size's delay, and every dlv matches its snd.  The other
    # deliveries decide nothing, first by a fresh empty output, which
    # takes the full output path, then by NOTHING, which skips it: both
    # runs write the same bytes.
    discover = Message(MessageKind.WRITE_DISCOVER, 3, 3, 1)
    ack = Message(MessageKind.DISCOVER_ACK, 1, 3, 1, Tag(0, 0))
    request = Message(MessageKind.WRITE_REQUEST, 3, 3, 2, Tag(1, 0), b"v" * 100)
    plan = [(3, 0, discover), (3, 1, discover), (3, 2, discover), (1, 3, ack), (3, 2, request), (3, 0, request)]

    def stub(empty):
        def writer_step(state, event, qs):
            if isinstance(event, Invoke):
                return discover, (0, 1, 2), None, None
            return (request, (2, 0), None, None) if event == ack else empty()

        def server_step(state, event, qs):
            return (ack, (3,), None, None) if state.pid == 1 and event == discover else empty()

        return dataclasses.replace(ERATO, writer_step=writer_step, server_step=server_step)

    def fresh_empty():
        return tuple([None, (), None, None])

    assert fresh_empty() == NOTHING and fresh_empty() is not NOTHING
    net = series(3, 0, 1)
    assert net.names[3] == writer(0)
    trace = run(net, stub(fresh_empty), build_majority(3), [WorkItem(0.0, writer(0), b"v" * 100)])
    paths = net.path_params()
    sends = [r for r in trace.records if r[0] == "snd"]
    assert len(sends) == len(plan)
    for r, (src, dst, msg) in zip(sends, plan):
        prop, per_bit = paths[src][dst]
        assert r[2:7] == (net.names[src], net.names[dst], msg.kind, writer(0), msg.op_seq)
        assert r[7] == r[1] + (prop + msg.size_bits() * per_bit)
    delivered = {(r[1], r[2], r[3], r[4], r[5], r[6]): r for r in trace.records if r[0] == "dlv"}
    assert len(delivered) == len(sends)
    for r in sends:
        dlv = delivered[(r[7], r[3], r[2], r[4], r[5], r[6])]
        assert dlv[1] is r[7]  # the very float, which trace_to_text's time cache needs
    assert replay_wire(trace) == {1: len(plan)}
    again = run(net, stub(lambda: NOTHING), build_majority(3), [WorkItem(0.0, writer(0), b"v" * 100)])
    assert trace_to_text(again) == trace_to_text(trace)


@pytest.mark.parametrize("quorums, n_servers", [("majority", 5), ("matrix", 9)])
@pytest.mark.parametrize("name", sorted(ALGORITHMS) + sorted(EXTRA_ALGORITHMS))
def test_a_step_that_decides_nothing_returns_nothing(name, quorums, n_servers) -> None:
    # The simulator skips only the output that is NOTHING, so every empty
    # output must be that one.
    outputs = []

    def kept(step):
        def kept_step(state, event, qs):
            out = step(state, event, qs)
            outputs.append(out)
            return out
        return kept_step

    alg = get_algorithm(name)
    alg = dataclasses.replace(alg, reader_step=kept(alg.reader_step), writer_step=kept(alg.writer_step),
                              server_step=kept(alg.server_step))
    config = ScenarioConfig(algorithm=name, quorums=quorums, n_servers=n_servers, n_readers=3,
                            n_writers=2 if alg.mw else 1, scheme="stochastic", ops_per_client=4,
                            crash_servers=((1, 3.0),), crash_readers=((0, 4.0),))
    net = build_network(config)
    trace = run(net, alg, build_quorum_system(config), build_workload(config),
                crash_schedule(config), seed=config.seed)
    assert all(op.completed for op in trace.ops.values() if trace.live(op.process))
    # Every output is the plain tuple (message, to, response, adopted).
    assert all(type(out) is tuple and len(out) == 4 for out in outputs)
    decided = [out for out in outputs if out is not NOTHING]
    assert len(decided) < len(outputs)
    assert all(message is not None or response is not None or adopted is not None
               for message, _, response, adopted in decided)
    # A step sends one message or none: to some node ids of the run, or to none.
    assert all((message is None) == (len(to) == 0) for message, to, _, _ in outputs)
    assert {dst for _, to, _, _ in outputs for dst in to} <= set(range(len(net.names)))
