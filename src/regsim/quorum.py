"""Quorum systems over small server universes.

Two constructions are provided: majority quorums (all subsets of size
floor(n/2)+1 over servers 1..n, in lexicographic order) and matrix quorums
(servers 0..rows*cols-1 laid out row-major, one quorum per (row, column)
pair, the union of that row and column, rows enumerated before columns).

Member ids are whatever the construction used; they appear only while a
system is built and validated.  The i-th smallest universe id becomes bit
i, which is also the simulator's server process index i, and everything
after construction (quorum scans, relay sets, read views) works on
bitmasks over those bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator


def bits(mask: int) -> Iterator[int]:
    """Set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class QuorumSystem:
    universe: frozenset[int]
    quorums: list[frozenset[int]]
    # Derived mask state, filled in __post_init__.
    members: list[int] = field(init=False, repr=False)
    masks: list[int] = field(init=False, repr=False)
    _bit_of: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.members = sorted(self.universe)
        self._bit_of = {m: i for i, m in enumerate(self.members)}
        self.masks = [self.mask_of(q) for q in self.quorums]

    @property
    def n(self) -> int:
        return len(self.members)

    def mask_of(self, ids: Iterable[int]) -> int:
        m = 0
        for s in ids:
            m |= 1 << self._bit_of[s]
        return m

    def validate(self) -> None:
        """Raise ValueError unless every pair of quorums intersects."""
        if not self.quorums:
            raise ValueError("quorum system has no quorums")
        for i, q in enumerate(self.quorums):
            if not q:
                raise ValueError("quorum %d is empty" % i)
            if not q <= self.universe:
                raise ValueError("quorum %d not within the universe" % i)
        for i in range(len(self.masks)):
            for j in range(i + 1, len(self.masks)):
                if self.masks[i] & self.masks[j] == 0:
                    raise ValueError(
                        "quorums %d and %d are disjoint: %s, %s"
                        % (i, j, sorted(self.quorums[i]), sorted(self.quorums[j]))
                    )

    # Mask-level scans used by the protocol state machines.

    def first_contained_mask(self, responders: int) -> int:
        """Index of the first quorum fully inside the responder mask, or -1."""
        for i, m in enumerate(self.masks):
            if m & ~responders == 0:
                return i
        return -1

    def view3_mask(self, current: int, maxset: int) -> bool:
        """True when some quorum other than `current` intersects it only in maxset.

        `current` may be a shrunken remainder of a quorum, so an intersection
        can be empty; the subset test is then vacuously true, which is the
        conservative behaviour the iterative read analysis wants.
        """
        for m in self.masks:
            if m != current and (m & current) & ~maxset == 0:
                return True
        return False

    def relay_mask(self, bit: int) -> int:
        """Mask of every server sharing a quorum with server bit `bit`."""
        m = 0
        for qm in self.masks:
            if qm >> bit & 1:
                m |= qm
        return m


def surviving_quorum_exists(qs: QuorumSystem, crashed_server_indices: Iterable[int]) -> bool:
    """True when some quorum avoids every crashed server bit."""
    live = (1 << qs.n) - 1
    for i in crashed_server_indices:
        live &= ~(1 << i)
    return qs.first_contained_mask(live) >= 0


def build_majority(n: int) -> QuorumSystem:
    """Majority quorums over servers 1..n, e.g. n=3 -> {1,2},{1,3},{2,3}."""
    if n < 1:
        raise ValueError("need at least one server")
    size = n // 2 + 1
    universe = frozenset(range(1, n + 1))
    quorums = [frozenset(c) for c in combinations(range(1, n + 1), size)]
    qs = QuorumSystem(universe, quorums)
    qs.validate()
    return qs


def build_matrix(rows: int, cols: int) -> QuorumSystem:
    """Grid quorums: quorum (r, c) is row r united with column c."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    universe = frozenset(range(rows * cols))
    quorums = []
    for r in range(rows):
        row = frozenset(range(r * cols, (r + 1) * cols))
        for c in range(cols):
            col = frozenset(i * cols + c for i in range(rows))
            quorums.append(row | col)
    qs = QuorumSystem(universe, quorums)
    qs.validate()
    return qs
