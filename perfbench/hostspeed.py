"""Fixed reference kernels that track how fast the host runs Python right now.

On the shared 2-vCPU host the benchmark was built on, the same code runs
at one of a few speeds that switch every few seconds and drift over
minutes: the interpreter kernel below took about 9, 15 or 33 ms depending
on the moment, and the guest sees no steal time.  A 30 s run that falls
into a slow stretch reads up to 2x slower, whatever the estimator.

The benchmark therefore samples the kernels between scenarios and scales
each scenario's time by the host's speed around it: the times it reports
are those of a host that runs the interpreter kernel in REFERENCE_S and
the memory kernel in MEMORY_REFERENCE_S.  The kernels use no regsim code,
so a change to the program cannot move them.

  - The interpreter kernel mixes what the simulator does: a heap of timed
    events, small slotted objects, tuple-keyed dicts, bit masks, text.
  - The memory kernel reads a 50k-object table (about 15 MB) in a shuffled
    order, so its speed follows the host's caches and memory rather than
    its cores.  Code whose large tables outgrow the caches (the quadratic
    checker on long histories) slows with it where the interpreter kernel
    does not.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

# Each kernel's time on the host above in its fast state.
REFERENCE_S = 0.010
MEMORY_REFERENCE_S = 0.015

_TABLE_SIZE = 50_000
_READS = 20_000


class _Message:
    __slots__ = ("src", "dst", "tag", "value")

    def __init__(self, src: int, dst: int, tag: tuple, value: int) -> None:
        self.src, self.dst, self.tag, self.value = src, dst, tag, value


class _Record:
    __slots__ = ("process", "kind", "invoked", "responded", "tag", "value")

    def __init__(self, i: int) -> None:
        self.process, self.kind = i % 13, "read" if i % 3 else "write"
        self.invoked, self.responded = i * 0.5, i * 0.5 + 1.0
        self.tag, self.value = (i // 7, i % 5), i


def kernel(n: int = 3000) -> int:
    heap: list = []
    latest: dict = {}
    lines: list[str] = []
    now = 0
    for i in range(n):
        msg = _Message(i % 9, (i * 5) % 9, (i // 9, i % 3), i)
        heapq.heappush(heap, ((i * 7919) % 1009 + now, i, msg))
        if len(heap) > 64:
            now, _, msg = heapq.heappop(heap)
            key = (msg.dst, msg.tag[1])
            if latest.get(key, (-1,))[0] < msg.tag[0]:
                latest[key] = msg.tag
            mask = 0
            for s in range(9):
                if (msg.value >> s) & 1:
                    mask |= 1 << s
            lines.append("%d,%d,%s,%d" % (now, msg.src, msg.tag, mask))
    return len("\n".join(lines)) + len(latest)


class HostSpeed:
    """Samples the host's speed: reference seconds per host second.

    `memory_weight` is the memory kernel's share, as an exponent of a
    weighted geometric mean of the two kernels' speeds; at 0 the table is
    never built.
    """

    def __init__(self, memory_weight: float = 0.0) -> None:
        self.memory_weight = memory_weight
        self._table: list[_Record] = []
        self._order: list[int] = []
        self._next = 0
        if memory_weight:
            self._table = [_Record(i) for i in range(_TABLE_SIZE)]
            self._order = list(range(_TABLE_SIZE))
            random.Random(0).shuffle(self._order)

    def _read_table(self) -> int:
        table, order, start, total = self._table, self._order, self._next, 0
        for j in range(start, start + _READS):
            record = table[order[j % _TABLE_SIZE]]
            if record.tag[0] > total % 1000:
                total += record.value & 7
        self._next = (start + _READS) % _TABLE_SIZE
        return total

    def sample(self, repeats: int = 3) -> float:
        """Median of `repeats` timings of each kernel, with the cyclic
        collector off so that the program's collector settings cannot move
        them."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            speed = REFERENCE_S / _median_time(kernel, repeats)
            if self.memory_weight:
                memory = MEMORY_REFERENCE_S / _median_time(self._read_table, repeats)
                speed = speed ** (1 - self.memory_weight) * memory ** self.memory_weight
        finally:
            if enabled:
                gc.enable()
        return speed


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
