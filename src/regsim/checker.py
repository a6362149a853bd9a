"""Atomicity verification for read/write register histories.

Two independent checkers with deliberately different foundations:

check_atomicity_tagged orders operations by their tags and sweeps the
history in invocation order: the operations that follow one in real time
form a suffix of that order, and suffix minima of the read and write tags
show whether any of them inverts it.  It takes O(n log n) time and O(n)
memory and is the production check.

brute_force_linearizable searches exhaustively for a total order of the
operations that extends real-time precedence and is a legal sequential
register history over values.  It is exponential and only accepts small
histories, but it knows nothing about tags, which makes it a genuinely
independent oracle.

The two notions coincide whenever write order is pinned down, i.e. writes
are sequential or their tags respect real time, and values identify
writes uniquely.  With concurrent identically-valued or re-orderable
writes the value-based search is more permissive by construction: it may
reorder concurrent writes, while tags freeze one order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import le, lt
from typing import Iterable, Iterator, Optional

from regsim.core import INITIAL_TAG, INITIAL_VALUE, History, OperationRecord, ProcessId, Tag
from regsim.netsim import Trace

A1 = "A1"
A2 = "A2"
A3 = "A3"

BRUTE_FORCE_LIMIT = 10


@dataclass(frozen=True)
class Verdict:
    ok: bool
    violated: Optional[str] = None
    witness: tuple[int, ...] = ()
    detail: str = ""

    def __post_init__(self) -> None:
        assert self.ok == (self.violated is None)


def well_formedness_errors(ops: Iterable[OperationRecord]) -> list[str]:
    """Overlapping operations of one process: clients must be sequential."""
    by_process: dict[ProcessId, list[OperationRecord]] = {}
    for op in ops:
        by_process.setdefault(op.process, []).append(op)
    errors = []
    for pid, group in sorted(by_process.items()):
        group.sort(key=lambda o: (o.invoked_at, o.op_id))
        for prev, cur in zip(group, group[1:]):
            if prev.responded_at is None or prev.responded_at > cur.invoked_at:
                errors.append(
                    "process %s: operations %d and %d overlap" % (pid, prev.op_id, cur.op_id)
                )
    return errors


def extract_history(trace: Trace) -> History:
    return History(ops=trace.operations(), initial_tag=INITIAL_TAG)


def _require_well_formed(ops: Iterable[OperationRecord]) -> None:
    errors = well_formedness_errors(ops)
    if errors:
        raise ValueError("malformed history: " + "; ".join(errors))


# Tag tests per kind of the earlier operation a, as (test on a later read,
# test on a later write), each applied to (later tag, a's tag); None never
# matches.  A1 inversions: a write is ordered after anything with a tag >= its
# own, reads with equal tags stay mutually unordered.
_A1_INVERSIONS = {"read": (lt, le), "write": (None, lt)}
# Real-time monotonicity: reads never go below an earlier read or write,
# and sequential writes strictly increase.
_RT_VIOLATIONS = {"read": (lt, None), "write": (lt, le)}

_NO_TAG = (math.inf, math.inf)  # above every (ts, wid)


class _RealTimeOrder:
    """Real-time precedence over operations, without listing pairs.

    ops holds the operations sorted by (invoked_at, op_id).  Operation j
    follows operation i in real time when j > i and j was invoked after i
    responded (an unfinished operation responds at infinity), so the ops
    that follow i are exactly the suffix ops[after[i]:].  The least read
    and write tag of every suffix, as (ts, wid), let later() pass over an
    operation in O(1) when nothing that follows it can match.  Building
    takes O(n log n) time and O(n) memory.
    """

    def __init__(self, ops: Iterable[OperationRecord]) -> None:
        ops = list(ops)
        for op in ops:
            if op.tag is None:
                raise ValueError("completed operation %d has no tag" % op.op_id)
        ops.sort(key=lambda o: (o.invoked_at, o.op_id))
        invoked = [op.invoked_at for op in ops]
        self.ops = ops
        self.keys = [(op.tag.ts, op.tag.wid) for op in ops]
        responded = [math.inf if op.responded_at is None else op.responded_at for op in ops]
        self.after = [max(i + 1, bisect_right(invoked, r)) for i, r in enumerate(responded)]
        n = len(ops)
        self.min_read = [_NO_TAG] * (n + 1)
        self.min_write = [_NO_TAG] * (n + 1)
        least_read = least_write = _NO_TAG
        for k in range(n - 1, -1, -1):
            if ops[k].kind == "read":
                least_read = min(least_read, self.keys[k])
            else:
                least_write = min(least_write, self.keys[k])
            self.min_read[k] = least_read
            self.min_write[k] = least_write

    def later(self, i: int, read_test, write_test) -> Iterator[int]:
        """Indices j, ascending, of the ops that follow op i in real time
        and whose tag passes read_test (for a read) or write_test (for a
        write) against op i's tag."""
        key, start = self.keys[i], self.after[i]
        if not ((read_test and read_test(self.min_read[start], key))
                or (write_test and write_test(self.min_write[start], key))):
            return
        for j in range(start, len(self.ops)):
            test = read_test if self.ops[j].kind == "read" else write_test
            if test and test(self.keys[j], key):
                yield j


def check_atomicity_tagged(history: History, strict: bool = False) -> Verdict:
    """Tag check of the three atomicity conditions, as one sweep.

    A1: no real-time-ordered pair is inverted by the tag order, where a
        write is ordered after anything with a tag >= its own, and reads
        with equal tags stay mutually unordered.
    A2: write tags are unique.
    A3: every read returns some write's tag (or the initial tag), and no
        read returns a tag smaller than that of a write that completed
        before the read began.

    One sweep in invocation order finds, for each operation, the suffix
    of operations that follow it in real time and whether that suffix
    holds a violation (see _RealTimeOrder); only the first suffix that
    does is walked, to name the witness.  No pair is listed: O(n log n)
    time, O(n) memory.  A violated condition reports its first offending
    pair in (invocation, op id) order of both operations.

    Incomplete operations stay out of the real-time checks; the decided
    tag of an unfinished write still makes that tag legal for readers
    (servers may have adopted it even though the writer never got its
    acks).  With strict=True, unfinished writes that decided a tag are
    instead treated as completing at time infinity and join the
    real-time checks.
    """
    _require_well_formed(history.ops)
    completed = [op for op in history.ops if op.responded_at is not None]
    pending_tagged = [
        op for op in history.ops
        if op.responded_at is None and op.kind == "write" and op.tag is not None
    ]
    order = _RealTimeOrder(completed + (pending_tagged if strict else []))
    scan = order.ops

    for i, a in enumerate(scan):
        j = next(order.later(i, *_A1_INVERSIONS[a.kind]), None)
        if j is not None:
            b = scan[j]
            return Verdict(
                False, A1, (a.op_id, b.op_id),
                "%s %d (tag %s) precedes %s %d (tag %s) in real time but not in tag order"
                % (a.kind, a.op_id, a.tag, b.kind, b.op_id, b.tag),
            )

    seen: dict = {}
    for op in scan:
        if op.kind != "write":
            continue
        other = seen.get(op.tag)
        if other is not None:
            return Verdict(
                False, A2, (other, op.op_id),
                "writes %d and %d share tag %s" % (other, op.op_id, op.tag),
            )
        seen[op.tag] = op.op_id

    valid_tags = {op.tag for op in history.ops if op.kind == "write" and op.tag is not None}
    valid_tags.add(history.initial_tag)
    for op in scan:
        if op.kind == "read" and op.tag not in valid_tags:
            return Verdict(
                False, A3, (op.op_id,),
                "read %d returned tag %s, which no write produced" % (op.op_id, op.tag),
            )
    for i, a in enumerate(scan):
        if a.kind != "write":
            continue
        j = next(order.later(i, lt, None), None)
        if j is not None:
            b = scan[j]
            return Verdict(
                False, A3, (a.op_id, b.op_id),
                "read %d returned tag %s although write %d (tag %s) had already completed"
                % (b.op_id, b.tag, a.op_id, a.tag),
            )
    return Verdict(True)


def brute_force_linearizable(
    history: History,
    initial_value: bytes = INITIAL_VALUE,
    limit: int = BRUTE_FORCE_LIMIT,
) -> bool:
    """Exhaustive search for a legal sequential ordering, by value only.

    Completed operations must all appear in the order; unfinished writes
    may be placed anywhere their invocation time allows or dropped
    entirely (their effect may or may not have happened).  Unfinished
    reads are ignored.  A read is legal when it returns the value of the
    latest write placed before it, or initial_value if there is none.
    """
    _require_well_formed(history.ops)
    completed = [op for op in history.ops if op.responded_at is not None]
    if len(completed) > limit:
        raise ValueError(
            "history has %d completed operations; exhaustive search is capped at %d"
            % (len(completed), limit)
        )
    pending_writes = [
        op for op in history.ops if op.responded_at is None and op.kind == "write"
    ]
    ops = completed + pending_writes
    inv = [op.invoked_at for op in ops]
    resp = [op.responded_at if op.responded_at is not None else math.inf for op in ops]
    required = frozenset(range(len(completed)))
    memo: dict[tuple[frozenset, bytes], bool] = {}

    def solve(remaining: frozenset, value: bytes) -> bool:
        if not (remaining & required):
            return True  # only droppable unfinished writes left
        key = (remaining, value)
        cached = memo.get(key)
        if cached is not None:
            return cached
        ok = False
        for i in sorted(remaining):
            # i can go next only if nothing still unplaced finished before
            # i was invoked.
            if any(j != i and resp[j] < inv[i] for j in remaining):
                continue
            op = ops[i]
            if op.kind == "read":
                if op.value != value:
                    continue
                ok = solve(remaining - {i}, value)
            else:
                ok = solve(remaining - {i}, op.value)
            if ok:
                break
        memo[key] = ok
        return ok

    return solve(frozenset(range(len(ops))), initial_value)


def adoption_violations(trace: Trace) -> list[str]:
    """Server-side tag monotonicity: adopted tags never go backwards."""
    latest: dict = {}
    errors = []
    for rec in trace.records:
        if rec[0] != "tag":
            continue
        _, t, pid, ts, wid = rec
        tag = Tag(ts, wid)
        prev = latest.get(pid)
        if prev is not None and tag < prev:
            errors.append("server %s adopted %s after %s at t=%r" % (pid, tag, prev, t))
        latest[pid] = tag
    return errors


def realtime_tag_violations(history: History) -> list[str]:
    """Pairwise monotonicity facts implied by atomicity, reported separately.

    For real-time-ordered completed pairs: a read after a write returns a
    tag >= the write's; sequential writes have strictly increasing tags;
    a read after a read returns a tag >= the earlier read's.  Every
    violating pair is listed, in (invocation, op id) order of both
    operations.  The real-time sweep of check_atomicity_tagged finds
    them: O(n log n), plus one walk of each suffix that holds a violation.
    """
    _require_well_formed(history.ops)
    order = _RealTimeOrder(op for op in history.ops if op.responded_at is not None)
    errors = []
    for i, a in enumerate(order.ops):
        for j in order.later(i, *_RT_VIOLATIONS[a.kind]):
            b = order.ops[j]
            if a.kind == "write" and b.kind == "read":
                errors.append("read %d after write %d: %s < %s" % (b.op_id, a.op_id, b.tag, a.tag))
            elif a.kind == "write":
                errors.append("write %d after write %d: %s <= %s" % (b.op_id, a.op_id, b.tag, a.tag))
            else:
                errors.append("read %d after read %d: %s < %s" % (b.op_id, a.op_id, b.tag, a.tag))
    return errors
