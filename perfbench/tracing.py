"""Span recording around regsim's layers, from outside the package.

`traced(recorder)` swaps timed wrappers into the names the run and check
paths call through, and restores the originals on exit:

  - the names `regsim.harness` imported (quorum and workload builders,
    the event loop, attribution, history extraction, the checker),
  - the step functions of every `Algorithm` that `get_algorithm` returns,
  - the two `QuorumSystem` scan methods,
  - `classify` / `iterative_analyze` as bound in the protocol modules,
  - the harness entry points the benchmark calls itself.

A span is (scenario, id, parent, name, start, end).  Spans stay in memory
until `write_spans`; spans of one scenario share the scenario id.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator

from regsim import checker, harness
from regsim.protocols import erato, erato_mw
from regsim.quorum import QuorumSystem

SPAN_FIELDS = ("scenario", "id", "parent", "name", "start", "end")


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.scenario = 0
        self._stack: list[int] = [0]
        self._next_id = 1

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id = span_id + 1
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        self.spans.append((self.scenario, span_id, self._stack[-1], name, start, end))

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter

        def timed(*args, **kwargs):
            span_id = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, name, start, clock())

        return timed

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, name, start, time.perf_counter())


def _wrap_algorithm(rec: Recorder, get_algorithm: Callable) -> Callable:
    cache: dict = {}

    def traced_get_algorithm(name: str):
        alg = cache.get(name)
        if alg is None:
            base = get_algorithm(name)
            alg = cache[name] = dataclasses.replace(
                base,
                reader_step=rec.wrap("protocols.step", base.reader_step),
                writer_step=rec.wrap("protocols.step", base.writer_step),
                server_step=rec.wrap("protocols.step", base.server_step),
            )
        return alg

    return traced_get_algorithm


@contextlib.contextmanager
def traced(rec: Recorder) -> Iterator[Recorder]:
    targets = [
        (harness, "build_quorum_system", "quorum.build"),
        (harness, "build_workload", "workload.build"),
        (harness, "run", "netsim.run"),
        (harness, "per_operation_stats", "metrics.attribute"),
        (harness, "extract_history", "checker.extract"),
        (harness, "check_atomicity_tagged", "checker.check"),
        (harness, "run_scenario", "harness.run_scenario"),
        (harness, "trace_to_text", "harness.to_text"),
        (harness, "trace_from_text", "harness.from_text"),
        (harness.RunResult, "csv_text", "harness.csv"),
        (checker, "extract_history", "checker.extract"),
        (checker, "check_atomicity_tagged", "checker.check"),
        (QuorumSystem, "first_contained_mask", "quorum.scan"),
        (QuorumSystem, "view3_mask", "quorum.scan"),
        (erato, "classify", "views.classify"),
        (erato_mw, "iterative_analyze", "views.classify"),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    saved.append((harness, "get_algorithm", harness.get_algorithm))
    try:
        for owner, attr, name in targets:
            setattr(owner, attr, rec.wrap(name, getattr(owner, attr)))
        harness.get_algorithm = _wrap_algorithm(rec, harness.get_algorithm)
        yield rec
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_total: dict[int, float] = defaultdict(float)
    for _, _, parent, _, start, end in spans:
        child_total[parent] += end - start
    return {sid: (end - start) - child_total[sid] for _, sid, _, _, start, end in spans}


def nesting_errors(spans: list[tuple]) -> list[str]:
    """Children must lie inside their parent and share its scenario; self
    times must not be negative."""
    by_id = {s[1]: s for s in spans}
    errors = []
    for scen, sid, parent, name, start, end in spans:
        if end < start:
            errors.append("span %d (%s) ends before it starts" % (sid, name))
        if parent == 0:
            continue
        p = by_id.get(parent)
        if p is None:
            errors.append("span %d (%s) has no parent %d" % (sid, name, parent))
        elif p[0] != scen or start < p[4] or end > p[5]:
            errors.append("span %d (%s) outside its parent %d (%s)" % (sid, name, parent, p[3]))
    for sid, own in self_times(spans).items():
        if sid in by_id and own < 0:
            errors.append("span %d (%s) has negative self time %r" % (sid, by_id[sid][3], own))
    return errors


def layer_totals(spans: list[tuple]) -> dict[int, dict[str, float]]:
    """Per scenario: '<name>' -> summed duration, '<name>#n' -> calls,
    '<name>#self' -> summed self time."""
    own = self_times(spans)
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for scen, sid, _, name, start, end in spans:
        totals = out[scen]
        totals[name] += end - start
        totals[name + "#n"] += 1
        totals[name + "#self"] += own[sid]
    return out


def write_spans(spans: list[tuple], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\t".join(SPAN_FIELDS) + "\n")
        for scen, sid, parent, name, start, end in spans:
            fh.write("%d\t%d\t%d\t%s\t%r\t%r\n" % (scen, sid, parent, name, start, end))
