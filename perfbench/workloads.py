"""The benchmark's workloads: a benchmark seed in, validated ScenarioConfigs out.

Generation is a pure function of (workload name, seed).  Every random
choice (scenario seeds, crash victims, crash times) comes from one
generator seeded with both, so the simulator only ever sees the
resulting configs.

All three workloads are closed loops: the benchmark runs one scenario at a
time in one process and thread, and starts the next only when the previous
one has been run, serialized and re-checked.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable

from regsim.config import ScenarioConfig, validate

SWEEP_ALGORITHMS = ("erato", "erato_mw", "abd", "ohsam")
SWEEP_QUORUMS = (("majority", 5), ("majority", 9), ("matrix", 9))
SWEEP_TOPOLOGIES = ("star", "series")
SWEEP_READERS = 5

# The warm-up scenario keeps the workload's shape but runs this many
# operations per client, with a fixed scenario seed and no crashes, so that
# set-up is short and does the same work for every benchmark seed.
WARMUP_OPS_PER_CLIENT = 3
WARMUP_SEED = 1


def _scenario_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _mid_run(rng: random.Random) -> float:
    # Sweep runs last about 5 s of simulated time; crash in the middle.
    return rng.randint(2000, 3000) / 1000.0


def _sweep_matrix(rng: random.Random) -> list[ScenarioConfig]:
    configs = []
    for algorithm in SWEEP_ALGORITHMS:
        for quorums, n_servers in SWEEP_QUORUMS:
            for topology in SWEEP_TOPOLOGIES:
                configs.append(ScenarioConfig(
                    algorithm=algorithm, topology=topology,
                    n_servers=n_servers, quorums=quorums,
                    n_readers=SWEEP_READERS,
                    n_writers=2 if algorithm == "erato_mw" else 1,
                    scheme="stochastic", read_interval=0.5, write_interval=0.5,
                    ops_per_client=10, seed=_scenario_seed(rng),
                    crash_servers=((rng.randrange(n_servers), _mid_run(rng)),),
                    crash_readers=((rng.randrange(SWEEP_READERS), _mid_run(rng)),),
                ))
    return configs


def _relay_m9(rng: random.Random) -> list[ScenarioConfig]:
    return [
        ScenarioConfig(
            algorithm="erato", topology="star", n_servers=9, quorums="majority",
            n_readers=20, n_writers=1, scheme="stochastic",
            read_interval=0.1, write_interval=0.25,
            ops_per_client=10, writes_per_client=4, seed=_scenario_seed(rng),
        )
        for _ in range(2)
    ]


def _long_history(rng: random.Random) -> list[ScenarioConfig]:
    return [
        ScenarioConfig(
            algorithm="abd_mw", topology="series", n_servers=5, quorums="majority",
            n_readers=4, n_writers=4, scheme="stochastic",
            read_interval=0.2, write_interval=0.2,
            ops_per_client=130, seed=_scenario_seed(rng),
        )
        for _ in range(2)
    ]


# Each builder returns one pass: the scenario list the benchmark cycles
# through.  relay_m9 and long_history keep their passes short so that every
# scenario repeats often within a run.
WORKLOADS: dict[str, Callable[[random.Random], list[ScenarioConfig]]] = {
    "sweep_matrix": _sweep_matrix,
    "relay_m9": _relay_m9,
    "long_history": _long_history,
}


# The memory kernel's share in each workload's host-speed samples
# (hostspeed.HostSpeed); 0 where absent.  long_history spends most of its
# time in the quadratic checker, whose tables outgrow the caches: on the
# 2-vCPU host its run and check times followed the mix of both kernels, with
# 30 s medians spreading 2-9 % where the interpreter kernel alone left 6-21 %.
# The other two workloads followed the interpreter kernel alone (1-5 %).
MEMORY_WEIGHT = {"long_history": 0.5}


def generate(name: str, seed: int) -> list[ScenarioConfig]:
    """The workload's scenario list for one benchmark seed."""
    rng = random.Random("%s:%d" % (name, seed))
    return [validate(c) for c in WORKLOADS[name](rng)]


def warmup_config(configs: list[ScenarioConfig]) -> ScenarioConfig:
    return replace(configs[0], ops_per_client=WARMUP_OPS_PER_CLIENT, reads_per_client=None,
                   writes_per_client=None, seed=WARMUP_SEED, crash_servers=(), crash_readers=(),
                   crash_writers=())
