"""Quorum-based atomic read/write register protocols, simulated and verified.

The pieces compose in layers: pure protocol state machines (protocols)
over quorum systems (quorum, views), driven by a deterministic
discrete-event network (netsim) that writes a trace (trace: the Trace,
its text format and the wire replay), checked for atomicity (checker),
measured (metrics), and orchestrated from configs and the CLI (config,
workload, harness, cli).

The package imports none of them: import each name from the module that
defines it (`from regsim.harness import run_scenario`), so a process
loads only the layers it uses.
"""
