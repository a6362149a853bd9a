"""Workload schedule tests."""

from regsim.config import ScenarioConfig, validate
from regsim.core import CLIENT_KIND, reader, writer
from regsim.workload import build_workload, write_payload


def cfg(**kw) -> ScenarioConfig:
    base = dict(
        algorithm="erato", topology="star", n_servers=9, quorums="matrix",
        n_readers=2, n_writers=1, ops_per_client=3,
    )
    base.update(kw)
    return validate(ScenarioConfig(**base))


def times_of(items, pid):
    return [it.time for it in items if it.pid == pid]


def test_fixed_scheme_is_periodic() -> None:
    items = build_workload(cfg(scheme="fixed", read_interval=2.0))
    assert times_of(items, reader(0)) == [2.0, 4.0, 6.0]
    assert times_of(items, reader(1)) == [2.0, 4.0, 6.0]


def test_stochastic_offsets_stay_in_interval_at_ms_granularity() -> None:
    items = build_workload(cfg(scheme="stochastic", read_interval=2.0,
                               write_interval=3.0, seed=11))
    for pid, interval in ((reader(0), 2.0), (reader(1), 2.0), (writer(0), 3.0)):
        ts = times_of(items, pid)
        assert len(ts) == 3
        for i, t in enumerate(ts):
            offset = t - i * interval
            assert 0.0 < offset <= interval
            assert round(offset * 1000) == round(offset * 1000, 9)  # whole ms
        assert all(a < b for a, b in zip(ts, ts[1:]))  # per-client order


def test_stochastic_reproducible_and_seed_sensitive() -> None:
    a = build_workload(cfg(scheme="stochastic", seed=3))
    b = build_workload(cfg(scheme="stochastic", seed=3))
    c = build_workload(cfg(scheme="stochastic", seed=4))
    assert a == b
    assert a != c


def test_write_values_unique_and_sized() -> None:
    items = build_workload(cfg(n_writers=2, algorithm="erato_mw"))
    values = [it.value for it in items if CLIENT_KIND[it.pid[0]] == "write"]
    assert len(values) < len(items) and all(it.value is None for it in items if it.pid[0] == "r")
    assert len(values) == 6 and len(set(values)) == 6
    assert all(len(v) == 64 for v in values)
    assert values[0].startswith(b"w0o1.")


def test_write_payload_never_truncates_label() -> None:
    tiny = write_payload(12, 345, 4)
    assert tiny == b"w12o345."
    assert write_payload(0, 1, 16) == b"w0o1." + b"x" * 11


def test_zero_ops_and_overrides() -> None:
    assert build_workload(cfg(ops_per_client=0)) == []
    items = build_workload(cfg(reads_per_client=1, writes_per_client=2))
    assert len(times_of(items, reader(0))) == 1
    assert len(times_of(items, writer(0))) == 2


def test_workload_sorted_by_time() -> None:
    items = build_workload(cfg(scheme="stochastic", n_readers=4, seed=9))
    assert all(
        (a.time, a.pid) <= (b.time, b.pid) for a, b in zip(items, items[1:])
    )
