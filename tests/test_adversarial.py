"""Adversarial delays: the protocols against heavily reordered wires.

netsim.message_delay is the one per-send delay hook, so patching it
turns any delay policy into a schedule (randomised schedule exploration,
as in Burckhardt et al., ASPLOS 2010).  The policy here is bimodal: most
messages take about 0.1 ms and the rest about 1 s, so a slow message is
overtaken by whole operations.  Under it the correct protocols stay
atomic, erato_broken is caught, and every trace, with many deliveries
in flight at once, round-trips through its text and replays.
"""

import pytest

from regsim import netsim
from regsim.config import ScenarioConfig, validate
from regsim.harness import run_scenario
from regsim.trace import replay_wire, trace_from_text, trace_to_text

CORRECT = ("erato", "erato_mw", "abd", "abd_mw", "ohsam", "ohmam")


def bimodal_delay(params, size_bits, jitter_max, rng) -> float:
    """0.1-0.2 ms with probability 0.7, else 1-2 s: the path is ignored."""
    if rng.random() < 0.7:
        return 1e-4 * (1 + rng.random())
    return 1 + rng.random()


def scenario(algorithm: str, seed: int) -> ScenarioConfig:
    return validate(ScenarioConfig(
        algorithm=algorithm, topology="series", n_servers=3, quorums="majority",
        n_readers=2, n_writers=2 if algorithm.endswith("_mw") else 1,
        scheme="stochastic", read_interval=0.2, write_interval=0.2,
        ops_per_client=2, seed=seed, jitter_max=0.0,
    ))


def adversarial_runs(algorithm: str, seeds, monkeypatch):
    """Each seed's RunResult under bimodal delays, its trace held to a
    byte-exact round trip through text and to a replay of its wire."""
    monkeypatch.setattr(netsim, "message_delay", bimodal_delay)
    for seed in seeds:
        result = run_scenario(scenario(algorithm, seed))
        text = trace_to_text(result.trace)
        parsed = trace_from_text(text)
        assert trace_to_text(parsed) == text
        replay_wire(parsed)
        assert parsed == result.trace
        yield result


def link_delays(results) -> list[float]:
    """Arrival minus send time of every snd between two different nodes."""
    return [rec[7] - rec[1] for result in results for rec in result.trace.records
            if rec[0] == "snd" and rec[2] != rec[3]]


@pytest.mark.parametrize("algorithm", CORRECT)
def test_correct_protocols_stay_atomic_under_bimodal_delays(algorithm, monkeypatch) -> None:
    results = list(adversarial_runs(algorithm, range(150), monkeypatch))
    assert [r.config.seed for r in results if not r.verdict.ok] == []
    assert not any(r.trace.incomplete for r in results)
    delays = link_delays(results)
    assert max(delays) / min(delays) >= 1e3  # the hook set every link's delay


def test_erato_broken_is_caught_under_bimodal_delays(monkeypatch) -> None:
    # Seeds 211, 300 and 331 violate atomicity.
    results = list(adversarial_runs("erato_broken", range(400), monkeypatch))
    assert [r.config.seed for r in results if not r.verdict.ok]
    delays = link_delays(results)
    assert max(delays) / min(delays) >= 1e3
