"""Workload construction: when each client invokes which operation.

Two schemes.  fixed: client k's i-th operation fires at exactly i *
interval.  stochastic: the i-th operation fires at (i-1) * interval plus
a uniform millisecond-granularity offset in (0, interval], so operations
stay ordered per client but phases drift across clients.

Offsets come from a generator seeded with the run seed under a distinct
label, so workload randomness and network jitter never share a stream.
"""

from __future__ import annotations

import random

from regsim.config import ScenarioConfig
from regsim.core import node_key, reader, writer
from regsim.netsim import WorkItem


def write_payload(writer_index: int, op_index: int, size: int) -> bytes:
    """Unique per (writer, op); padded to the configured size, never truncated
    below the unique label."""
    label = b"w%do%d." % (writer_index, op_index)
    return label.ljust(max(size, len(label)), b"x")


def _times(scheme: str, interval: float, n_ops: int, rng: random.Random) -> list[float]:
    if scheme == "fixed":
        return [i * interval for i in range(1, n_ops + 1)]
    out = []
    for i in range(n_ops):
        offset = rng.randint(1, max(1, int(interval * 1000))) / 1000.0
        out.append(i * interval + offset)
    return out


def build_workload(config: ScenarioConfig) -> list[WorkItem]:
    rng = random.Random("%d:workload" % config.seed)
    n_reads = config.reads_per_client if config.reads_per_client is not None else config.ops_per_client
    n_writes = config.writes_per_client if config.writes_per_client is not None else config.ops_per_client
    items: list[WorkItem] = []
    for r in range(config.n_readers):
        for t in _times(config.scheme, config.read_interval, n_reads, rng):
            items.append(WorkItem(t, reader(r)))
    for w in range(config.n_writers):
        for k, t in enumerate(_times(config.scheme, config.write_interval, n_writes, rng), start=1):
            items.append(WorkItem(t, writer(w), write_payload(w, k, config.value_size)))
    items.sort(key=lambda it: (it.time, node_key(it.pid)))
    return items
