"""Core value types shared by the protocol, simulator and checker layers.

Everything here is deliberately small and hashable: tags order writes,
and Message is the single wire format all protocols share (field
presence depends on the kind).  Tag and Message are named tuples, so
each compares equal to the plain tuple of its fields, and a Tag orders
and hashes as the tuple (ts, wid).

A node has two representations.  Inside the simulator and the protocol
steps it is a dense int id: servers 0..n-1, so a server's id is its bit
in every quorum mask, then the readers, then the writers.  Everywhere
else (traces, operation records, CSVs, the checker) it is its name:
"s0", "r3", "w1", as reader(), writer() and server() spell it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

# Initial register content: empty payload under tag (0, smallest writer id).
INITIAL_VALUE = b""
HEADER_OCTETS = 64


def reader(i: int) -> str:
    return "r%d" % i


def writer(i: int) -> str:
    return "w%d" % i


def server(i: int) -> str:
    return "s%d" % i


_ROLE_RANK = {"r": 0, "w": 1, "s": 2}
# A client's role letter -> the operation kind it runs: a reader reads, a
# writer writes.
CLIENT_KIND = {"r": "read", "w": "write"}


def node_key(name: str) -> tuple[int, int]:
    """Sort key of node names: readers, then writers, then servers, each
    by index, so r2 < r10 < w0 < s1 (plain string order differs)."""
    return _ROLE_RANK[name[0]], int(name[1:])


def parse_pid(text: str) -> str:
    """Validate a node name, 'r0' / 'w3' / 's12', and return it.  Only
    that exact spelling is accepted (ASCII digits, no leading zero), so
    that every node has one name."""
    digits = text[1:]
    if text[:1] not in _ROLE_RANK or not digits.isdecimal() or digits != str(int(digits)):
        raise ValueError("not a process id: %r" % text)
    return text


class Tag(NamedTuple):
    """Logical timestamp with writer id tiebreak, ordered lexicographically.

    wid is the writer's index; single-writer runs keep it constant at 0 so
    the same comparisons serve both modes.
    """

    ts: int
    wid: int


INITIAL_TAG = Tag(0, 0)


class MessageKind:
    """The message kinds, each spelled as its trace token."""

    READ_REQUEST = "readRequest"
    READ_RELAY = "readRelay"
    READ_ACK = "readAck"
    WRITE_REQUEST = "writeRequest"
    WRITE_ACK = "writeAck"
    WRITE_DISCOVER = "writeDiscover"
    DISCOVER_ACK = "discoverAck"


class Message(NamedTuple):
    """One protocol message.

    kind decides which optional fields are meaningful:
      READ_REQUEST   reader, op_seq
      READ_RELAY     reader, op_seq, tag, value (server relay or read write-back)
      READ_ACK       reader, op_seq, tag, value
      WRITE_REQUEST  client(writer), op_seq, tag, value
      WRITE_ACK      client(writer), op_seq, tag
      WRITE_DISCOVER client(writer), op_seq
      DISCOVER_ACK   client(writer), op_seq, tag

    client is the reader or writer whose operation the message belongs to,
    op_seq its per-client sequence counter (read_op / write_op); together
    they attribute every send to exactly one operation.  sender is the
    emitting node, used by relay bookkeeping on the servers.  Both are
    node ids, so a server sender is its own quorum bit.
    """

    kind: str  # a MessageKind token
    sender: int
    client: int
    op_seq: int
    tag: Optional[Tag] = None
    value: Optional[bytes] = None

    def size_bits(self) -> int:
        payload = len(self.value) if self.value is not None else 0
        return (HEADER_OCTETS + payload) * 8


@dataclass
class OperationRecord:
    """Invocation-to-response record of one client operation."""

    op_id: int
    process: str  # node name
    kind: str  # "read" | "write"
    invoked_at: float
    responded_at: Optional[float] = None
    tag: Optional[Tag] = None  # written tag / returned tag; may be set before response
    value: Optional[bytes] = None
    exchanges: Optional[int] = None
    messages: int = 0

    @property
    def completed(self) -> bool:
        return self.responded_at is not None


@dataclass
class History:
    """Operations extracted from one run, plus the register's initial tag."""

    ops: list[OperationRecord] = field(default_factory=list)
    initial_tag: Tag = INITIAL_TAG

    def completed_ops(self) -> list[OperationRecord]:
        return [op for op in self.ops if op.completed]
