"""Simulator tests: delay arithmetic, placement, crashes, determinism.

Expected delays are computed by hand from the link parameters:
delay = sum of propagation over the path + size_bits * sum of 1/bandwidth,
with the path being src access link, |router(src) - router(dst)| backbone
hops, dst access link.
"""

import copy
import random

import pytest

from regsim.core import Tag, reader, server, writer
from regsim.netsim import (
    DEFAULT_JITTER_MAX,
    LOOPBACK_DELAY,
    Network,
    WorkItem,
    build_topology,
    message_delay,
    run,
)
from regsim.protocols import get_algorithm
from regsim.quorum import build_majority

ERATO = get_algorithm("erato")


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
    d = message_delay(net, server(0), server(1), 1024, random.Random(1))
    assert d == pytest.approx(0.00404096, rel=1e-12)


def test_series_server_pair_delay_crosses_backbone() -> None:
    net = series(3, 1, 1)
    assert net.router_hops(server(0), server(2)) == 2
    # 0.002*2 + 0.006*2 propagation; 1/10e6 * 2 + 1/10e6 * 2 per bit.
    prop, per_bit = net.path_params(server(0), server(2))
    assert prop == pytest.approx(0.016, rel=1e-12)
    assert per_bit == pytest.approx(4e-7, rel=1e-12)
    d = message_delay(net, server(0), server(2), 1024, random.Random(1))
    assert d == pytest.approx(0.0164096, rel=1e-12)


def test_client_to_server_delay() -> None:
    # reader 0 lands on router 0 next to server 0: 4 ms + 2 ms propagation,
    # 1/5e6 + 1/10e6 per bit.
    net = series(3, 2, 1)
    d = message_delay(net, reader(0), server(0), 1024, random.Random(1))
    assert d == pytest.approx(0.0063072, rel=1e-12)


def test_round_robin_client_placement() -> None:
    net = series(3, 2, 2)
    assert net.router_of[reader(0)] == 0
    assert net.router_of[reader(1)] == 1
    assert net.router_of[writer(0)] == 2
    assert net.router_of[writer(1)] == 0  # wraps around


def test_star_places_all_servers_on_first_router() -> None:
    net = star(5, 1, 1)
    assert all(net.router_of[server(i)] == 0 for i in range(5))
    assert net.router_of[reader(0)] == 0


def test_unknown_topology_kind_is_rejected() -> None:
    with pytest.raises(ValueError):
        build_topology("nonsense", 3, 1, 1)


def test_jitter_bounds() -> None:
    net = star(3, 1, 1, jitter=0.005)
    base = 0.00404096
    rng = random.Random(7)
    draws = [message_delay(net, server(0), server(1), 1024, rng) for _ in range(200)]
    assert all(base <= d < base + 0.005 for d in draws)
    assert max(draws) - min(draws) > 0.001  # jitter actually applied


def test_default_jitter_is_one_ms() -> None:
    net = build_topology("star", 3, 1, 1)
    assert net.jitter_max == DEFAULT_JITTER_MAX == 0.001


def test_single_write_trace() -> None:
    qs = build_majority(3)
    net = series(3, 1, 1)
    trace = run(net, ERATO, qs, [WorkItem(0.0, writer(0), "write", b"x" * 64)])

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
        WorkItem(0.0, writer(0), "write", b"v" * 64),
        WorkItem(0.1, reader(0), "read"),
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
        [WorkItem(0.0, writer(0), "write", b"x" * 64)],
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


def test_inflight_from_crashed_node_still_delivers() -> None:
    qs = build_majority(3)
    net = series(3, 1, 1)
    # s0 receives the request at ~0.0185 s and acks immediately; crashing it
    # at 0.02 s leaves that ack in flight, and it must still arrive.
    trace = run(
        net, ERATO, qs,
        [WorkItem(0.0, writer(0), "write", b"x" * 64)],
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
        WorkItem(0.0, reader(0), "read"),
        WorkItem(0.001, reader(0), "read"),  # still pending: skipped
        WorkItem(1.0, reader(0), "read"),
    ]
    trace = run(net, ERATO, qs, items)
    assert trace.skipped_invokes == 1
    assert len(trace.ops) == 2
    assert trace.ops[2].process == reader(0) and trace.ops[2].invoked_at == 1.0


def test_cap_marks_incomplete() -> None:
    qs = build_majority(3)
    net = series(3, 1, 1)
    trace = run(net, ERATO, qs, [WorkItem(0.0, writer(0), "write", b"x" * 64)], cap_s=0.001)
    assert trace.incomplete
    assert not trace.ops[1].completed
    assert trace.records[-1][0] == "end" and trace.records[-1][2] == "incomplete"
    assert trace.end_time == 0.001


def test_crashed_client_pending_op_is_not_a_liveness_failure() -> None:
    qs = build_majority(3)
    net = series(3, 1, 2)
    items = [
        WorkItem(0.0, writer(0), "write", b"x" * 64),
        WorkItem(0.0, writer(1), "write", b"y" * 64),
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
        WorkItem(0.0, writer(0), "write", b"a" * 64),
        WorkItem(0.01, reader(0), "read"),
        WorkItem(0.02, reader(1), "read"),
        WorkItem(0.05, writer(0), "write", b"b" * 64),
    ]
    trace = run(net, ERATO, qs, items, seed=5)
    for r in trace.records:
        if r[0] == "snd":
            assert r[7] > r[1]


def test_same_seed_same_trace_different_seed_differs() -> None:
    qs = build_majority(3)
    net = series(3, 1, 1, jitter=0.003)
    items = [
        WorkItem(0.0, writer(0), "write", b"x" * 64),
        WorkItem(0.004, reader(0), "read"),
    ]
    a = run(net, ERATO, qs, copy.deepcopy(items), seed=42)
    b = run(net, ERATO, qs, copy.deepcopy(items), seed=42)
    c = run(net, ERATO, qs, copy.deepcopy(items), seed=43)
    assert a.records == b.records
    assert a.records != c.records
