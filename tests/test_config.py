"""Config parsing and validation tests."""

from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regsim.config import (
    ConfigError,
    ScenarioConfig,
    build_quorum_system,
    parse_config,
    parse_header,
    validate,
    with_overrides,
)
from regsim.protocols import ALGORITHMS, EXTRA_ALGORITHMS, get_algorithm
from regsim.trace import Trace, trace_to_text

MINIMAL = """
[scenario]
algorithm = erato
topology = star
n_servers = 9
quorums = matrix
n_readers = 10
"""


def test_minimal_config_valid_with_defaults() -> None:
    cfg = parse_config(MINIMAL)
    assert cfg.algorithm == "erato" and cfg.topology == "star"
    assert cfg.n_servers == 9 and cfg.n_readers == 10 and cfg.n_writers == 1
    assert cfg.scheme == "fixed" and cfg.ops_per_client == 25
    assert cfg.jitter_max == 0.001 and cfg.cap_seconds == 300.0
    assert cfg.value_size == 64 and cfg.crash_servers == ()


def test_swmr_rejects_two_writers() -> None:
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\nn_writers = 2\n")
    assert any("SWMR requires one writer" in e for e in exc.value.errors)


def test_matrix_requires_square_server_count() -> None:
    text = MINIMAL.replace("n_servers = 9", "n_servers = 10")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any("square required" in e for e in exc.value.errors)


@pytest.mark.parametrize("quorums,n_servers", [
    ("majority", 10**6), ("majority", 10**100), ("matrix", 182**2),
])
def test_quorum_system_over_the_node_bound_is_refused(quorums, n_servers) -> None:
    # Refused from the node count alone, however many servers: no quorum
    # is listed or counted.
    config = ScenarioConfig(quorums=quorums, n_servers=n_servers)
    nodes = n_servers + config.n_readers + config.n_writers
    with mock.patch("regsim.config.build_quorum_system", side_effect=AssertionError("listed")):
        with pytest.raises(ConfigError) as exc:
            validate(config)
    assert exc.value.errors == ["scenario: %d servers, readers and writers number more than 512" % nodes]


@pytest.mark.parametrize("n_servers", [18, 31, 501])
def test_a_majority_of_any_size_within_the_node_bound_validates(n_servers) -> None:
    # A majority is the k-of-n system: it lists no quorum, so only the
    # node bound limits it (501 servers, 10 readers and 1 writer is 512).
    config = validate(ScenarioConfig(quorums="majority", n_servers=n_servers))
    qs = build_quorum_system(config)
    assert (qs.n, qs.k, qs.cols) == (n_servers, n_servers // 2 + 1, 0)


@pytest.mark.parametrize("fields,error", [
    (dict(n_servers=3, n_readers=509, n_writers=1), "scenario: 513 servers, readers and writers number more than 512"),
    (dict(algorithm="erato_mw", n_servers=9, quorums="matrix", n_readers=0, n_writers=504),
     "scenario: 513 servers, readers and writers number more than 512"),
    (dict(n_servers=3, n_readers=2, ops_per_client=16_667), "workload: 50001 operations listed, more than 50000"),
    (dict(n_servers=3, n_readers=1, ops_per_client=0, writes_per_client=50_001),
     "workload: 50001 operations listed, more than 50000"),
    (dict(n_servers=3, n_readers=10**9, reads_per_client=10**9, writes_per_client=0),
     "workload: %d operations listed, more than 50000" % 10**18),
    (dict(n_servers=3, n_readers=1, value_size=65_537), "network.value_size: more than 65536 octets"),
])
def test_scenario_too_large_to_build_is_refused(fields, error) -> None:
    # Refused before anything is built: the nodes^2 path table, the list of
    # every operation, or a payload padded to value_size per write.
    config = ScenarioConfig(quorums=fields.pop("quorums", "majority"), **fields)
    with mock.patch("regsim.config.build_quorum_system", side_effect=AssertionError("listed")):
        with pytest.raises(ConfigError) as exc:
            validate(config)
    assert error in exc.value.errors


@pytest.mark.parametrize("fields", [
    dict(n_servers=3, n_readers=508, n_writers=1, ops_per_client=0),
    dict(n_servers=17, n_readers=2, ops_per_client=16_666),
    dict(n_servers=3, n_readers=1, value_size=65_536),
])
def test_scenario_at_the_bounds_validates(fields) -> None:
    validate(ScenarioConfig(quorums="majority", **fields))


def test_unknown_section_and_key_paths() -> None:
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL + "\nfoo = 1\n\n[bogus]\nbar = 2\n")
    errors = exc.value.errors
    assert any(e.startswith("scenario.foo") for e in errors)
    assert any(e.startswith("bogus") for e in errors)


def test_all_violations_reported_together() -> None:
    bad = """
[scenario]
algorithm = nonsense
topology = ring
n_servers = 10
quorums = matrix
n_writers = -1
[workload]
scheme = sometimes
read_interval = 0
"""
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    joined = "\n".join(exc.value.errors)
    for phrase in ("algorithm", "topology", "square", "n_writers", "scheme", "read_interval"):
        assert phrase in joined
    assert len(exc.value.errors) >= 6


def test_crash_schedule_must_leave_a_quorum() -> None:
    text = MINIMAL.replace("quorums = matrix", "quorums = majority").replace(
        "n_servers = 9", "n_servers = 3"
    ) + "\n[crashes]\nservers = 0@1.0, 1@2.0\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any("no quorum survives" in e for e in exc.value.errors)


def test_crash_index_bounds_and_parse() -> None:
    text = MINIMAL + "\n[crashes]\nservers = 0@0.5, 8@1\nreaders = 11@0.1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert any("crashes.readers: index 11" in e for e in exc.value.errors)
    ok = parse_config(MINIMAL + "\n[crashes]\nservers = 0@0.5, 8@1\n")
    assert ok.crash_servers == ((0, 0.5), (8, 1.0))


def test_type_errors_carry_key_path() -> None:
    with pytest.raises(ConfigError) as exc:
        parse_config(MINIMAL.replace("n_servers = 9", "n_servers = many"))
    assert any("scenario.n_servers: expected int" in e for e in exc.value.errors)


def test_mw_algorithms_allow_multiple_writers() -> None:
    text = MINIMAL.replace("algorithm = erato", "algorithm = erato_mw") + "\nn_writers = 4\n"
    assert parse_config(text).n_writers == 4


def test_quorum_construction_matches_kind() -> None:
    cfg = parse_config(MINIMAL)
    qs = build_quorum_system(cfg)
    assert (qs.n, qs.k, qs.cols) == (9, 0, 3)  # 3x3 grid: row r with column c
    maj = build_quorum_system(validate(ScenarioConfig(n_servers=5, quorums="majority")))
    assert (maj.n, maj.k, maj.cols) == (5, 3, 0)  # every 3 of 5


def test_with_overrides_revalidates() -> None:
    cfg = parse_config(MINIMAL)
    assert with_overrides(cfg, seed=7).seed == 7
    assert with_overrides(cfg, seed=None) is cfg
    with pytest.raises(ConfigError):
        with_overrides(cfg, jitter_max=-1.0)


def test_describe_echo_is_flat_strings() -> None:
    cfg = parse_config(MINIMAL + "\n[crashes]\nservers = 0@0.5\n")
    echo = cfg.describe()
    assert echo["algorithm"] == "erato"
    assert echo["crash_servers"] == "0@0.5"
    assert all(isinstance(v, str) for v in echo.values())
    assert "reads_per_client" not in echo  # unset optionals stay out


def crash_lists(count: int):
    return st.lists(st.tuples(st.integers(0, count - 1), st.floats(0.0, 100.0)), max_size=2)


@st.composite
def valid_configs(draw) -> ScenarioConfig:
    algorithm = draw(st.sampled_from(sorted(ALGORITHMS) + sorted(EXTRA_ALGORITHMS)))
    quorums = draw(st.sampled_from(["majority", "matrix"]))
    n_servers = draw(st.sampled_from([1, 4, 9] if quorums == "matrix" else [1, 2, 3, 5, 7]))
    n_readers = draw(st.integers(0, 4))
    n_writers = draw(st.integers(1, 3)) if get_algorithm(algorithm).mw else 1
    positive = st.floats(1e-6, 1e3)
    optional_count = st.none() | st.integers(0, 30)
    config = ScenarioConfig(
        algorithm=algorithm, topology=draw(st.sampled_from(["series", "star"])),
        n_servers=n_servers, quorums=quorums, n_readers=n_readers, n_writers=n_writers,
        scheme=draw(st.sampled_from(["fixed", "stochastic"])),
        read_interval=draw(positive), write_interval=draw(positive),
        ops_per_client=draw(st.integers(0, 30)),
        reads_per_client=draw(optional_count), writes_per_client=draw(optional_count),
        seed=draw(st.integers(-5, 2**40)), jitter_max=draw(st.floats(0.0, 1.0)),
        cap_seconds=draw(positive), value_size=draw(st.integers(1, 4096)),
        crash_servers=tuple(draw(crash_lists(n_servers))),
        crash_readers=tuple(draw(crash_lists(n_readers))) if n_readers else (),
        crash_writers=tuple(draw(crash_lists(n_writers))),
    )
    try:
        return validate(config)
    except ConfigError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(config=valid_configs())
def test_trace_header_parses_back_to_its_config(config) -> None:
    header = trace_to_text(Trace(config=config))
    assert header.count("\n") == 1 and header.startswith("run\t")
    parsed = parse_header(header.rstrip("\n").split("\t")[1:])
    assert parsed == (config.algorithm, config.seed, config)
    assert validate(parsed[2]) == config


def test_bare_header_has_no_scenario() -> None:
    assert parse_header(["algorithm=erato", "seed=3"]) == ("erato", 3, None)
    with pytest.raises(ConfigError, match="seed: missing key"):
        parse_header(["algorithm=erato"])
