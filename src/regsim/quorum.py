"""Quorum systems over small server sets, as bitmasks.

Bit i of a quorum mask is server i, whose node id in the simulator and
the protocol steps is i too, so quorum scans, read views and message
senders all work on the same bits.

No quorum is listed: both constructions answer their scans from their
shape.  A majority is the k-of-n system, k = floor(n/2)+1, whose quorums
are every k of servers 0..n-1 in lexicographic (itertools.combinations)
order.  A matrix lays servers 0..rows*cols-1 out row-major, and its
quorum (r, c) is row r united with column c, in r-major order.  Any two
quorums of either intersect by construction (k-of-n ones exactly when
2k > n: Naor and Wool, SIAM J. Comput. 1998), which the tests hold on a
listing of each.  Crash survival follows from the construction too, and
under both every server shares a quorum with every other, so a server
relays to all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterator


def bits(mask: int) -> Iterator[int]:
    """Set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class QuorumSystem:
    n: int  # servers, bits 0..n-1
    k: int = 0  # when positive, the quorums are every k of the n servers
    cols: int = 0  # otherwise the servers form a grid of n // cols rows
    # the grid's rows and columns as masks, top to bottom and left to right
    row_masks: tuple[int, ...] = field(default=(), init=False, compare=False, repr=False)
    col_masks: tuple[int, ...] = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.k:
            starts = range(0, self.n, self.cols)  # each row's first server
            row0, col0 = (1 << self.cols) - 1, sum(1 << i for i in starts)
            object.__setattr__(self, "row_masks", tuple(row0 << i for i in starts))
            object.__setattr__(self, "col_masks", tuple(col0 << c for c in range(self.cols)))

    # Mask-level scans used by the protocol state machines.

    def first_contained_mask(self, responders: int) -> int:
        """Mask of the first quorum fully inside the responder mask, or 0.
        Of a k-of-n system that is the k lowest responders; of a grid, the
        first full row united with the first full column."""
        if self.k:
            extra = responders.bit_count() - self.k
            if extra > 0:  # drop all but the k lowest
                for _ in range(extra):
                    responders ^= 1 << responders.bit_length() - 1
            return responders if extra >= 0 else 0
        missing = ~responders
        for row in self.row_masks:
            if not row & missing:
                for col in self.col_masks:
                    if not col & missing:
                        return row | col
                return 0
        return 0

    def view3_mask(self, current: int, maxset: int) -> bool:
        """True when some quorum other than `current` intersects it only in maxset.

        `current` may be a shrunken remainder of a quorum, so an intersection
        can be empty; the subset test is then vacuously true, which is the
        conservative behaviour the iterative read analysis wants.
        """
        if self.k:
            # The k-subsets of the `free` servers, those outside current or
            # in maxset; just one is current itself when it is all of them.
            outside = self.n - current.bit_count()
            free = outside + (current & maxset).bit_count()
            return free > self.k or free == self.k and (outside > 0 or current & ~maxset != 0)
        # A row and a column that both miss current's servers outside
        # maxset unite to a quorum that meets current only inside maxset.
        taken = current & ~maxset
        rows = [row for row in self.row_masks if not row & taken]
        return any(row | col != current for col in self.col_masks if not col & taken for row in rows)


def build_majority(n: int) -> QuorumSystem:
    """Majority quorums over servers 0..n-1, every n // 2 + 1 of them."""
    if n < 1:
        raise ValueError("need at least one server")
    return QuorumSystem(n, k=n // 2 + 1)


def majority_survives(n: int, crashed: Collection[int]) -> bool:
    """True when n // 2 + 1 of servers 0..n-1 are live: a majority survives."""
    return n - len(set(crashed)) >= n // 2 + 1


def build_matrix(rows: int, cols: int) -> QuorumSystem:
    """Grid quorums, quorum (r, c) being row r united with column c."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    return QuorumSystem(rows * cols, cols=cols)


def matrix_survives(rows: int, cols: int, crashed: Collection[int]) -> bool:
    """True when one row and one column hold no crashed server: their quorum survives."""
    return len({i // cols for i in crashed}) < rows and len({i % cols for i in crashed}) < cols
