"""Quorum-based atomic read/write register protocols, simulated and verified.

The pieces compose in layers: pure protocol state machines (protocols)
over quorum systems (quorum, views), driven by a deterministic
discrete-event network (netsim) that writes a trace (trace: the Trace,
its text format and the wire replay), checked for atomicity (checker),
measured (metrics), and orchestrated from configs and the CLI (config,
workload, harness, cli).
"""

from regsim.checker import (
    Verdict,
    brute_force_linearizable,
    check_atomicity_tagged,
    extract_history,
)
from regsim.config import ConfigError, ScenarioConfig, parse_config, parse_grid, validate, with_overrides
from regsim.core import (
    INITIAL_TAG,
    INITIAL_VALUE,
    History,
    Message,
    MessageKind,
    OperationRecord,
    Tag,
    reader,
    server,
    writer,
)
from regsim.harness import RunResult, run_scenario, sweep
from regsim.metrics import OpStats, Summary, summarize
from regsim.netsim import Network, WorkItem, build_topology, run
from regsim.protocols import ALGORITHMS, Algorithm, get_algorithm
from regsim.quorum import QuorumSystem, build_majority, build_matrix
from regsim.trace import Trace, replay_wire, trace_from_text, trace_to_text
from regsim.views import ViewClass, classify, iterative_analyze
from regsim.workload import build_workload

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Algorithm",
    "ConfigError",
    "History",
    "INITIAL_TAG",
    "INITIAL_VALUE",
    "Message",
    "MessageKind",
    "Network",
    "OperationRecord",
    "OpStats",
    "QuorumSystem",
    "RunResult",
    "ScenarioConfig",
    "Summary",
    "Tag",
    "Trace",
    "Verdict",
    "ViewClass",
    "WorkItem",
    "brute_force_linearizable",
    "build_majority",
    "build_matrix",
    "build_topology",
    "build_workload",
    "check_atomicity_tagged",
    "classify",
    "extract_history",
    "get_algorithm",
    "iterative_analyze",
    "parse_config",
    "parse_grid",
    "reader",
    "replay_wire",
    "run",
    "run_scenario",
    "server",
    "summarize",
    "sweep",
    "trace_from_text",
    "trace_to_text",
    "validate",
    "with_overrides",
    "writer",
]
