"""Quorum systems over small server sets, as bitmasks.

Bit i of a quorum mask is server i, whose node id in the simulator and
the protocol steps is i too, so quorum scans, read views and message
senders all work on the same bits.

A majority is the k-of-n system, k = floor(n/2)+1: its quorums are every
k of servers 0..n-1 in lexicographic (itertools.combinations) order, and
are never listed, as its scans follow from k and n.  A matrix lists one
quorum per (row, column) pair of servers 0..rows*cols-1 laid out
row-major, the union of that row and column, rows before columns.  Any
two quorums of either intersect by construction (k-of-n ones exactly when
2k > n: Naor and Wool, SIAM J. Comput. 1998), so the builders skip
validate, which the tests run.  Crash survival follows from the
construction too, and under both every server shares a quorum with every
other, so a server relays to all of them.

A listed system is immutable (its masks are a tuple), so it memoises
first_contained_mask per responder mask: a run asks about the same few
hundred masks many times.
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
    masks: tuple[int, ...] = ()  # a list passed in is stored as a tuple
    k: int = 0  # when positive, the quorums are every k of the n servers, unlisted
    # responder mask -> first_contained_mask's answer, for a listed system
    _first_contained: dict[int, int] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "masks", tuple(self.masks))

    def validate(self) -> None:
        """Raise ValueError unless every quorum is non-empty and within
        the n server bits, and every pair of quorums intersects."""
        if self.k:
            if not self.n < 2 * self.k <= 2 * self.n:
                raise ValueError("%d-of-%d quorums: need n/2 < k <= n" % (self.k, self.n))
            return
        if not self.masks:
            raise ValueError("quorum system has no quorums")
        for i, m in enumerate(self.masks):
            if not m:
                raise ValueError("quorum %d is empty" % i)
            if m >> self.n:
                raise ValueError("quorum %d not within the %d servers" % (i, self.n))
        for i in range(len(self.masks)):
            for j in range(i + 1, len(self.masks)):
                if self.masks[i] & self.masks[j] == 0:
                    raise ValueError(
                        "quorums %d and %d are disjoint: %s, %s"
                        % (i, j, list(bits(self.masks[i])), list(bits(self.masks[j])))
                    )

    # Mask-level scans used by the protocol state machines.

    def first_contained_mask(self, responders: int) -> int:
        """Mask of the first quorum fully inside the responder mask, or 0.
        Of a k-of-n system that is the k lowest responders."""
        if self.k:
            for _ in range(responders.bit_count() - self.k):  # drop all but the k lowest
                responders ^= 1 << responders.bit_length() - 1
            return responders if responders.bit_count() == self.k else 0
        found = self._first_contained.get(responders)
        if found is None:
            found = next((m for m in self.masks if m & ~responders == 0), 0)
            self._first_contained[responders] = found
        return found

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
        for m in self.masks:
            if m != current and (m & current) & ~maxset == 0:
                return True
        return False


def build_majority(n: int) -> QuorumSystem:
    """Majority quorums over servers 0..n-1, every n // 2 + 1 of them; not validated."""
    if n < 1:
        raise ValueError("need at least one server")
    return QuorumSystem(n, k=n // 2 + 1)


def majority_survives(n: int, crashed: Collection[int]) -> bool:
    """True when n // 2 + 1 of servers 0..n-1 are live: a majority survives."""
    return n - len(set(crashed)) >= n // 2 + 1


def build_matrix(rows: int, cols: int) -> QuorumSystem:
    """Grid quorums, quorum (r, c) being row r united with column c; not validated."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    row0 = (1 << cols) - 1
    col0 = sum(1 << (r * cols) for r in range(rows))
    masks = [row0 << (r * cols) | col0 << c for r in range(rows) for c in range(cols)]
    return QuorumSystem(rows * cols, masks)


def matrix_survives(rows: int, cols: int, crashed: Collection[int]) -> bool:
    """True when one row and one column hold no crashed server: their quorum survives."""
    return len({i // cols for i in crashed}) < rows and len({i % cols for i in crashed}) < cols
