"""Classification of the tag distribution a read observed across a quorum.

Given one relay/ack message per member of a responding quorum Q:

  VIEW1  every member reported the maximum tag; the write behind it reached
         a full quorum, so returning it is safe.
  VIEW3  some other quorum's intersection with Q lies entirely inside the
         max-tag holders, so the maximum write may or may not be complete;
         the read must fall back to the acknowledgement round.
  VIEW2  otherwise: every intersection contains a smaller tag, so the
         maximum write is provably incomplete.

iterative_analyze repeats the classification for the multi-writer read:
on VIEW2 the max-tag holders are discarded from Q and the remainder is
reclassified (intersections are taken against that remainder, and an
emptied intersection counts as contained).  The loop strictly shrinks Q,
so it decides within |Q| rounds: VIEW1 returns the surviving maximum,
VIEW3 awaits acknowledgements.  It returns that decision: the message
to answer with, or None to await acknowledgements.  Every relay read's
analyser returns one in that form (see protocols.readers).

quorum_extreme is the one least/greatest-tag scan over a quorum: the
relay reader's acknowledgement round, abd's query, the multi-writer
discover phase and the max-tag holders above all use it.

Everything here works on server bit indices: messages are keyed by the
sender's bit and quorums, remainders and holder sets are bitmasks, as in
the reader state that collects them.
"""

from __future__ import annotations

import enum
from typing import Mapping, Optional

from regsim.core import Message
from regsim.quorum import QuorumSystem, bits


class ViewClass(enum.Enum):
    VIEW1 = 1
    VIEW2 = 2
    VIEW3 = 3


def quorum_extreme(msgs: Mapping[int, Message], mask: int, smallest: bool) -> Message:
    """The message with the least/greatest tag among the bits of a
    non-empty mask; the lowest bit wins ties."""
    best: Optional[Message] = None
    for b in bits(mask):
        m = msgs[b]
        if best is None or (m.tag < best.tag if smallest else m.tag > best.tag):
            best = m
    assert best is not None
    return best


def _max_holders(msgs: Mapping[int, Message], mask: int) -> tuple[Message, int]:
    """quorum_extreme's greatest-tag message, and the mask of every bit
    reporting that tag."""
    top = quorum_extreme(msgs, mask, smallest=False)
    return top, sum(1 << b for b in bits(mask) if msgs[b].tag == top.tag)


def _classify_masks(qs: QuorumSystem, cur: int, maxset: int) -> ViewClass:
    if cur & ~maxset == 0:
        return ViewClass.VIEW1
    if qs.view3_mask(cur, maxset):
        return ViewClass.VIEW3
    return ViewClass.VIEW2


def classify(qs: QuorumSystem, msgs: Mapping[int, Message], qmask: int) -> tuple[ViewClass, Message]:
    """Class of the quorum `qmask`'s view, and its first max-tag message."""
    top, holders = _max_holders(msgs, qmask)
    return _classify_masks(qs, qmask, holders), top


def iterative_analyze(qs: QuorumSystem, msgs: Mapping[int, Message], qmask: int) -> Optional[Message]:
    """Shrink the quorum past incomplete writes until a decision falls out:
    the message to answer with, or None to await acknowledgements."""
    cur = qmask
    while cur:
        top, holders = _max_holders(msgs, cur)
        cls = _classify_masks(qs, cur, holders)
        if cls is ViewClass.VIEW1:
            return top
        if cls is ViewClass.VIEW3:
            return None
        cur &= ~holders
    # Unreachable: VIEW1 fires once every remaining tag is maximal, and the
    # remainder above is never empty because VIEW2 implies a smaller tag.
    raise AssertionError("quorum exhausted without a decision")
