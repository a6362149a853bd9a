"""Core value types shared by the protocol, simulator and checker layers.

Everything here is deliberately small and hashable: tags order writes,
process ids name simulated nodes, and Message is the single wire format
all protocols share (field presence depends on the kind).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

# Initial register content: empty payload under tag (0, smallest writer id).
INITIAL_VALUE = b""
HEADER_OCTETS = 64


class Role(enum.IntEnum):
    READER = 0
    WRITER = 1
    SERVER = 2


@dataclass(frozen=True, order=True)
class ProcessId:
    role: Role
    index: int

    def __str__(self) -> str:
        return "%s%d" % ({Role.READER: "r", Role.WRITER: "w", Role.SERVER: "s"}[self.role], self.index)


def reader(i: int) -> ProcessId:
    return ProcessId(Role.READER, i)


def writer(i: int) -> ProcessId:
    return ProcessId(Role.WRITER, i)


def server(i: int) -> ProcessId:
    return ProcessId(Role.SERVER, i)


def parse_pid(text: str) -> ProcessId:
    """Inverse of str(ProcessId): 'r0' / 'w3' / 's12'.  Only that exact
    spelling is accepted (ASCII digits, no leading zero), so that every
    process has one name and str(parse_pid(text)) == text."""
    role = {"r": Role.READER, "w": Role.WRITER, "s": Role.SERVER}.get(text[:1])
    digits = text[1:]
    if role is None or not digits.isdecimal() or digits != str(int(digits)):
        raise ValueError("not a process id: %r" % text)
    return ProcessId(role, int(digits))


@dataclass(frozen=True, order=True)
class Tag:
    """Logical timestamp with writer id tiebreak, ordered lexicographically.

    wid is the writer's index; single-writer runs keep it constant at 0 so
    the same comparisons serve both modes.
    """

    ts: int
    wid: int


INITIAL_TAG = Tag(0, 0)


class MessageKind(enum.Enum):
    READ_REQUEST = "readRequest"
    READ_RELAY = "readRelay"
    READ_ACK = "readAck"
    WRITE_REQUEST = "writeRequest"
    WRITE_ACK = "writeAck"
    WRITE_DISCOVER = "writeDiscover"
    DISCOVER_ACK = "discoverAck"


@dataclass(frozen=True)
class Message:
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
    emitting node, used by relay bookkeeping on the servers.
    """

    kind: MessageKind
    sender: ProcessId
    client: ProcessId
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
    process: ProcessId
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
