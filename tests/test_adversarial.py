"""Adversarial delays: the protocols against heavily reordered wires.

netsim.message_delay is the one per-send delay hook, so patching it
turns any delay policy into a schedule (randomised schedule exploration,
as in Burckhardt et al., ASPLOS 2010).  Two policies ignore the path:
a bimodal one, where most messages take about 0.1 ms and the rest about
1 s, so a slow message is overtaken by whole operations, and a
log-uniform one, 0.1 ms to 1 s spread evenly over four decades.  Under
both the correct protocols stay atomic, erato_broken is caught, and every
trace, with many deliveries in flight at once, round-trips through its
text and replays.  Every history is small enough for the brute-force
oracle, and one it rejects the tag check rejects too.  Every completed
operation takes the exchanges of README's table.  A writer's stale put,
delivered after a newer one of its own, never moves a server's tag: a
server takes a write by its tag alone.  Under both policies,
netsim.run writes the reference simulator's trace byte for byte, a
crashed server of three included.
"""

import dataclasses

import pytest

from reference_netsim import reference_run
from regsim import netsim
from regsim.checker import BRUTE_FORCE_LIMIT, brute_force_linearizable, extract_history
from regsim.config import ScenarioConfig, build_quorum_system, validate
from regsim.core import MessageKind
from regsim.harness import build_network, crash_schedule, run_scenario
from regsim.protocols import ALGORITHMS, EXTRA_ALGORITHMS, get_algorithm
from regsim.trace import replay_wire, trace_from_text, trace_to_text
from regsim.workload import build_workload

CORRECT = ("erato", "erato_mw", "abd", "abd_mw", "ohsam", "ohmam")
# README's table: the exchanges a read may take; a write takes 2 under a
# single writer and 4 under several.
READ_EXCHANGES = {"erato": (2, 3), "erato_mw": (2, 3), "abd": (4,), "abd_mw": (4,), "ohsam": (3,), "ohmam": (3,)}


def bimodal_delay(params, size_bits, jitter_max, rng) -> float:
    """0.1-0.2 ms with probability 0.7, else 1-2 s: the path is ignored."""
    if rng.random() < 0.7:
        return 1e-4 * (1 + rng.random())
    return 1 + rng.random()


def log_uniform_delay(params, size_bits, jitter_max, rng) -> float:
    """10 ** uniform(-4, 0) s: the path is ignored."""
    return 10 ** rng.uniform(-4, 0)


POLICIES = {"bimodal": bimodal_delay, "log_uniform": log_uniform_delay}


def scenario(algorithm: str, seed: int) -> ScenarioConfig:
    return validate(ScenarioConfig(
        algorithm=algorithm, topology="series", n_servers=3, quorums="majority",
        n_readers=2, n_writers=2 if algorithm.endswith("_mw") else 1,
        scheme="stochastic", read_interval=0.2, write_interval=0.2,
        ops_per_client=2, seed=seed, jitter_max=0.0,
    ))


def stale_write_requests(trace) -> int:
    """How many of the trace's WRITE_REQUEST deliveries carry an op_seq at
    or below the largest one their server has been delivered from that
    writer, each held to adopt nothing: no tag record, its step's first
    output, follows it."""
    records = trace.records
    newest: dict[tuple[str, str], int] = {}
    stale = 0
    for i, rec in enumerate(records):
        if rec[0] == "dlv" and rec[4] == MessageKind.WRITE_REQUEST:
            key, op_seq = (rec[2], rec[5]), rec[6]
            if op_seq <= newest.get(key, 0):
                stale += 1
                assert records[i + 1][0] != "tag", rec
            else:
                newest[key] = op_seq
    return stale


def adversarial_runs(algorithm: str, seeds, monkeypatch, policy=bimodal_delay):
    """Each seed's RunResult under the policy's delays, its trace held to
    a byte-exact round trip through text and to a replay of its wire, its
    history to the brute-force oracle, its stale puts to adopting nothing
    and, for a protocol of README's table, its completed operations to the
    exchanges listed there."""
    monkeypatch.setattr(netsim, "message_delay", policy)
    write_exchanges = 4 if get_algorithm(algorithm).mw else 2
    for seed in seeds:
        result = run_scenario(scenario(algorithm, seed))
        text = trace_to_text(result.trace)
        parsed = trace_from_text(text)
        assert trace_to_text(parsed) == text
        replay_wire(parsed)
        assert parsed == result.trace
        history = extract_history(result.trace)
        completed = history.completed_ops()
        assert len(completed) <= BRUTE_FORCE_LIMIT  # the scenario is that small
        # A history the oracle rejects, the tag check rejects too.
        assert brute_force_linearizable(history) or not result.verdict.ok, seed
        stale_write_requests(result.trace)
        if algorithm in READ_EXCHANGES:
            assert [op.op_id for op in completed if op.exchanges not in
                    (READ_EXCHANGES[algorithm] if op.kind == "read" else (write_exchanges,))] == [], seed
        yield result


def link_delays(results) -> list[float]:
    """Arrival minus send time of every snd between two different nodes."""
    return [rec[7] - rec[1] for result in results for rec in result.trace.records
            if rec[0] == "snd" and rec[2] != rec[3]]


@pytest.mark.parametrize("algorithm", CORRECT)
def test_correct_protocols_stay_atomic_under_bimodal_delays(algorithm, monkeypatch) -> None:
    results = list(adversarial_runs(algorithm, range(150), monkeypatch))
    assert [r.trace.config.seed for r in results if not r.verdict.ok] == []
    assert not any(r.trace.incomplete for r in results)
    assert any(map(stale_write_requests, (r.trace for r in results)))  # the check is not vacuous
    delays = link_delays(results)
    assert max(delays) / min(delays) >= 1e3  # the hook set every link's delay


def test_erato_broken_is_caught_under_bimodal_delays(monkeypatch) -> None:
    # Seeds 211, 300 and 331 violate atomicity, by values as well as by tags.
    results = list(adversarial_runs("erato_broken", range(400), monkeypatch))
    assert [r.trace.config.seed for r in results if not r.verdict.ok]
    assert [r for r in results if not brute_force_linearizable(extract_history(r.trace))]
    assert any(map(stale_write_requests, (r.trace for r in results)))  # the check is not vacuous
    delays = link_delays(results)
    assert max(delays) / min(delays) >= 1e3


@pytest.mark.parametrize("algorithm", CORRECT)
def test_correct_protocols_stay_atomic_under_log_uniform_delays(algorithm, monkeypatch) -> None:
    results = list(adversarial_runs(algorithm, range(100), monkeypatch, log_uniform_delay))
    assert [r.trace.config.seed for r in results if not r.verdict.ok] == []
    assert not any(r.trace.incomplete for r in results)
    assert any(map(stale_write_requests, (r.trace for r in results)))  # the check is not vacuous
    delays = link_delays(results)
    assert max(delays) / min(delays) >= 1e3


def test_erato_broken_is_caught_under_log_uniform_delays(monkeypatch) -> None:
    # Seeds 551, 936, 1165 and 1838 violate atomicity; the search stops
    # at the first.
    results = []
    for result in adversarial_runs("erato_broken", range(2000), monkeypatch, log_uniform_delay):
        results.append(result)
        if not result.verdict.ok:
            break
    assert not results[-1].verdict.ok
    assert any(map(stale_write_requests, (r.trace for r in results)))


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS) + sorted(EXTRA_ALGORITHMS))
def test_run_writes_the_reference_trace_under_adversarial_delays(algorithm, policy, monkeypatch) -> None:
    monkeypatch.setattr(netsim, "message_delay", POLICIES[policy])
    for seed in range(4):
        config = scenario(algorithm, seed)
        if seed % 2:
            config = dataclasses.replace(config, crash_servers=((seed % 3, 0.1 * seed),))
        args = (build_network(config), get_algorithm(algorithm), build_quorum_system(config),
                build_workload(config), crash_schedule(config), config.seed, config.cap_seconds)
        trace = netsim.run(*args)
        assert trace_to_text(trace) == trace_to_text(reference_run(*args))
        # A majority of three survives one crash: no live client waits.
        assert not trace.incomplete
