"""netsim.run against the plain reference simulator: byte-identical traces.

Small scenarios over every algorithm, erato_broken included: star and
series LANs, majority(1-7) and grids up to 3x3, up to 3 readers and 2
writers with up to 3 operations each, both schemes, server and client
crashes, jitter 0 (so that equal times are common and their order shows)
and caps short enough that some runs end incomplete.  Crash times are
often the very instants at which operations invoke, or the very time of
a delivery, so that a crash and an event at the same time show which
comes first.  Likewise an invocation added at the very time of a
delivery shows that the invocation, known before the run, goes first.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_netsim import reference_run
from regsim.config import ScenarioConfig
from regsim.core import reader, server, writer
from regsim.netsim import WorkItem, build_topology, run
from regsim.protocols import ALGORITHMS, EXTRA_ALGORITHMS, get_algorithm
from regsim.quorum import build_majority, build_matrix
from regsim.trace import trace_to_text
from regsim.workload import build_workload

INTERVALS = (0.05, 0.1)
times = st.sampled_from((0.0,) + INTERVALS + (0.2,)) | st.floats(0.0, 0.4)


def crashes(make, count):
    return st.lists(st.tuples(st.integers(0, count - 1), times), max_size=2,
                    unique_by=lambda c: c[0]).map(lambda cs: [(make(i), t) for i, t in cs])


@st.composite
def scenarios(draw):
    algorithm = get_algorithm(draw(st.sampled_from(sorted(ALGORITHMS) + sorted(EXTRA_ALGORITHMS))))
    if draw(st.booleans()):
        qs = build_majority(draw(st.integers(1, 7)))
    else:
        qs = build_matrix(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    n_readers = draw(st.integers(0, 3))
    n_writers = draw(st.integers(1, 2)) if algorithm.mw else 1
    config = ScenarioConfig(
        n_readers=n_readers, n_writers=n_writers,
        scheme=draw(st.sampled_from(("fixed", "stochastic"))),
        read_interval=draw(st.sampled_from(INTERVALS)),
        write_interval=draw(st.sampled_from(INTERVALS)),
        ops_per_client=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 3)), value_size=draw(st.sampled_from((1, 64))),
    )
    network = build_topology(draw(st.sampled_from(("star", "series"))), qs.n, n_readers, n_writers)
    network.jitter_max = draw(st.sampled_from((0.0, 0.0, 0.002)))
    schedule = draw(crashes(server, qs.n))
    if n_readers:
        schedule += draw(crashes(reader, n_readers))
    schedule += draw(crashes(writer, n_writers))
    cap_s = draw(st.sampled_from((0.1, 0.25, 300.0)))
    return network, algorithm, qs, build_workload(config), schedule, config.seed, cap_s


@settings(max_examples=80, deadline=None)
@given(scenarios())
def test_run_writes_the_reference_trace(scenario):
    assert trace_to_text(run(*scenario)) == trace_to_text(reference_run(*scenario))


@settings(max_examples=30, deadline=None)
@given(scenarios(), st.data())
def test_a_crash_at_a_delivery_time_drops_that_delivery(scenario, data):
    network, algorithm, qs, workload, schedule, seed, cap_s = scenario
    deliveries = [r for r in reference_run(*scenario).records
                  if r[0] == "dlv" and r[2] not in dict(schedule)]
    if deliveries:
        _, t, dst, *_ = data.draw(st.sampled_from(deliveries))
        schedule = schedule + [(dst, t)]
    scenario = network, algorithm, qs, workload, schedule, seed, cap_s
    assert trace_to_text(run(*scenario)) == trace_to_text(reference_run(*scenario))


@settings(max_examples=30, deadline=None)
@given(scenarios(), st.data())
def test_an_invocation_at_a_delivery_time_goes_first(scenario, data):
    network, algorithm, qs, workload, schedule, seed, cap_s = scenario
    deliveries = [r for r in reference_run(*scenario).records if r[0] == "dlv"]
    if deliveries:
        _, t, dst, *_ = data.draw(st.sampled_from(deliveries))
        clients = [name for name in network.names if name[0] in "rw"]
        pid = dst if dst in clients else data.draw(st.sampled_from(clients))
        item = WorkItem(t, pid) if pid[0] == "r" else WorkItem(t, pid, b"\xee" * 8)
        workload = workload + [item]
    scenario = network, algorithm, qs, workload, schedule, seed, cap_s
    assert trace_to_text(run(*scenario)) == trace_to_text(reference_run(*scenario))
