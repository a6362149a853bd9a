"""Golden trace and CSV hashes, one small scenario per algorithm.

Each scenario runs majority(5) quorums on a star, three readers, stochastic
operations and one server crash at seed 0.  The unsafe erato_broken has
an entry too: it is pinned for its bytes, not for a verdict.  The hashes pin the exact bytes
of `trace_to_text` and `RunResult.csv_text`, so a refactor that claims
byte-identical outputs fails here if it changes a single record.  Refresh
them only for a change that is meant to alter the outputs, and say so.

One more scenario pins the orders that equal times leave to node order:
twelve readers and two writers invoke at the same instants, and a reader
pair whose names sort differently as text (r2, r10), a writer and a
server crash together, just as some of them would invoke.  Nodes order
readers, writers, servers, then by index, so r2 comes before r10 and w0
before s1.

A third pins the order of an invocation and a delivery at the same
time: the erato scenario again, with one more read by r0 at the very
float time of a delivery to a server, read from a first run, while r0
is idle.  The schedule goes first at equal times, so the inv record
comes before that dlv.

The erato scenario also pins how often a run asks the quorum system for
a contained quorum.  The count is one call per lookup, memoised or not,
so a step that skips `QuorumSystem.first_contained_mask` fails here as
well as in the benchmark's `quorum.scan_calls`.
"""

import hashlib

import pytest

from regsim.config import ScenarioConfig, build_quorum_system, validate
from regsim.harness import build_network, crash_schedule, run_scenario
from regsim.netsim import WorkItem, run
from regsim.protocols import ALGORITHMS, EXTRA_ALGORITHMS, get_algorithm
from regsim.quorum import QuorumSystem
from regsim.trace import trace_to_text
from regsim.workload import build_workload

# algorithm -> (sha256 of the trace text, sha256 of the CSV text)
GOLDEN = {
    "erato": (
        "f01031d6e662ce72f5043a113d661c4db03ec36090edd4186af387fe6d0b6151",
        "bf46838ef75e274f65c51a7df9422939ca1560c21615f485f972d07c28727b23",
    ),
    "erato_mw": (
        "d6465ea736bd48fd8aada7bd94954f3d2c803e54a450d6fd79033a6606f001b7",
        "5d90d47c3b2be204519cf7e8e34d53394fa93f9f378b683a930f543bb94fa7db",
    ),
    "abd": (
        "c64760555d33525bf961855073556ba5fa936aa0a504b0637bec1d5029c06b6d",
        "47580999033ec4781dd87cfe390528041a55d72ff60c748df8986d30303b3409",
    ),
    "abd_mw": (
        "9652bd99206bd3e21e9170a603f5acb9b5277f600d78f6d7a72545a1da3c7ac4",
        "86e4cdd396144fa2bd430301d2b29bc0486b6c3894600ef3171d886cece68c23",
    ),
    "ohsam": (
        "13b27760452ae376cf165962a316b9773baefefb58103a90c69333d05d844ef3",
        "b878c220485b34ac75dc6aecf75185d147fd100ed48e765bd648cd3b959071dd",
    ),
    "ohmam": (
        "e688e8b0e9cb98af4020937c8b1faf7e1cd08df30ce216794eb95535165726db",
        "327fc949039107317237a9a4620b616451ace1ed0a53031f5f8ddbd9384953fe",
    ),
    "erato_broken": (
        "2a7740d5a827c1925d12abb7e2fac83536f1d03198e40c4681ea2390e62aa6fb",
        "1b2f14168ea145f037185d6d17fe69cc5ed4167093427da44d1dd3a29910337e",
    ),
}

# sha256 of the trace text and of the CSV text of _tie_scenario().
TIE_GOLDEN = (
    "c959a045d7f48bc5297f17a2f03c7a286b76b07b892873ab0eef9f09943a83c4",
    "e23414e23d5a88de06f0edfbbd6e07e72854b642e2d58a8cfcb1a7916bbe115e",
)

# sha256 of the trace text of test_an_invocation_at_a_delivery_time_goes_first.
INVOKE_AT_DELIVERY_GOLDEN = "4d76a3bb3c1119cfbccdac3d2f02f45ad253ae02e2f5e477939986e04edbdb7d"


def _scenario(name: str) -> ScenarioConfig:
    return validate(ScenarioConfig(
        algorithm=name,
        topology="star",
        n_servers=5,
        quorums="majority",
        n_readers=3,
        n_writers=2 if get_algorithm(name).mw else 1,
        scheme="stochastic",
        read_interval=0.2,
        write_interval=0.1,
        ops_per_client=6,
        jitter_max=0.05,
        crash_servers=((0, 0.1),),
        seed=0,
    ))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_algorithm_has_a_golden_entry():
    assert set(GOLDEN) == set(ALGORITHMS) | set(EXTRA_ALGORITHMS)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_hashes(name):
    result = run_scenario(_scenario(name))
    assert (result.verdict.ok or name in EXTRA_ALGORITHMS) and not result.trace.incomplete
    assert (_sha256(trace_to_text(result.trace)), _sha256(result.csv_text())) == GOLDEN[name]


# QuorumSystem.first_contained_mask calls in run_scenario(_scenario("erato")).
ERATO_SCAN_CALLS = 257


def test_erato_scan_calls(monkeypatch):
    config = _scenario("erato")
    scan = QuorumSystem.first_contained_mask
    calls = 0

    def counted(qs, responders):
        nonlocal calls
        calls += 1
        return scan(qs, responders)

    monkeypatch.setattr(QuorumSystem, "first_contained_mask", counted)
    run_scenario(config)
    assert calls == ERATO_SCAN_CALLS


def _tie_scenario() -> ScenarioConfig:
    return validate(ScenarioConfig(
        algorithm="erato_mw",
        topology="star",
        n_servers=5,
        quorums="majority",
        n_readers=12,
        n_writers=2,
        scheme="fixed",
        read_interval=0.1,
        write_interval=0.1,
        ops_per_client=6,
        jitter_max=0.05,
        crash_servers=((1, 0.2),),
        crash_readers=((2, 0.2), (10, 0.2)),
        crash_writers=((0, 0.2),),
        seed=0,
    ))


def test_golden_hashes_of_equal_time_invocations_and_crashes():
    result = run_scenario(_tie_scenario())
    assert result.verdict.ok and not result.trace.incomplete
    text = trace_to_text(result.trace)
    crashes = [line for line in text.splitlines() if line.startswith("crs\t")]
    assert crashes == ["crs\t0.2\tr2", "crs\t0.2\tr10", "crs\t0.2\tw0", "crs\t0.2\ts1"]
    assert (_sha256(text), _sha256(result.csv_text())) == TIE_GOLDEN


def test_an_invocation_at_a_delivery_time_goes_first():
    config = _scenario("erato")

    def run_with(workload):
        return run(build_network(config), get_algorithm(config.algorithm),
                   build_quorum_system(config), workload, crash_schedule(config),
                   seed=config.seed, cap_s=config.cap_seconds)

    workload = build_workload(config)
    first = run_with(workload)
    r0_busy = [(op.invoked_at, op.responded_at) for op in first.ops.values() if op.process == "r0"]
    dlv = next(rec for rec in first.records if rec[0] == "dlv" and rec[2].startswith("s")
               and not any(start <= rec[1] <= end for start, end in r0_busy))
    # Up to that time the second run is the first, so the same dlv comes.
    trace = run_with(workload + [WorkItem(dlv[1], "r0")])
    inv = next(i for i, rec in enumerate(trace.records) if rec[0] == "inv" and rec[1] == dlv[1])
    assert trace.records[inv][2] == "r0" and inv < trace.records.index(dlv)
    assert _sha256(trace_to_text(trace)) == INVOKE_AT_DELIVERY_GOLDEN
