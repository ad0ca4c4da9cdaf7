"""Simulation packet model.

A SimPacket is the unit moved between hosts and switches. The reserved bit
of the IP fragment field (the "evil bit") marks the presence of the label
header, so a packet's `evil_bit` is read from its header, `difc`, and no
packet can hold one without the other.

What is fixed per flow is worked out once per flow. The simulator builds
one FlowKey for a flow and makes each of its packets with
`SimPacket.of_flow`, which takes the five address fields from that key, so
every packet and every copy of the flow shares one key object, its hash,
CRC and text. A packet's `describe()` text is cached on the packet and
shared by its copies; only `with_header` clears it, because a new header
sets the evil bit the text shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, IntFlag

from .header import DifcHeader, FlowKey

PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP = 1


class TcpFlags(IntFlag):
    NONE = 0
    SYN = 1
    ACK = 2
    FIN = 4


class IcmpKind(Enum):
    REQUEST = "request"
    REPLY = "reply"


class ControlKind(Enum):
    """Switch-generated packets that bypass policy lookup."""

    LABEL_ACK = "label_ack"


_SYN = int(TcpFlags.SYN)
_new_packet = object.__new__
PROTO_NAMES = {PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}


@dataclass(slots=True)
class SimPacket:
    """A value: the pipeline never mutates a packet, it copies it. The flow
    key is made by the constructor from the address fields, or handed in by
    `of_flow`, which takes the address fields from it; the copy helpers
    below share it and skip the constructor's checks, which a copy cannot
    break. `dataclasses.replace` goes through the constructor, so a copy
    with a changed address or port gets a key of its own.

    `describe()` renders its text once and caches it. `with_ttl` and
    `recirculated` carry the cache over, since neither field is in the
    text; `with_header` clears it, because the header sets the evil bit."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    tcp_flags: TcpFlags = TcpFlags.NONE
    icmp_kind: IcmpKind | None = None
    ttl: int = 64
    difc: DifcHeader | None = None
    payload_len: int = 0
    seq: int = 0  # per-flow packet ordinal
    control: ControlKind | None = None
    recirc_count: int = 0
    flow_key: FlowKey = field(init=False, repr=False, compare=False)
    _text: str | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        self._check()
        self.flow_key = FlowKey(
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )

    @classmethod
    def of_flow(
        cls,
        key: FlowKey,
        *,
        tcp_flags: TcpFlags = TcpFlags.NONE,
        icmp_kind: IcmpKind | None = None,
        ttl: int = 64,
        difc: DifcHeader | None = None,
        payload_len: int = 0,
        seq: int = 0,
        control: ControlKind | None = None,
        recirc_count: int = 0,
    ) -> SimPacket:
        """A packet of the flow `key`, sharing that key object: the same
        packet as the constructor makes from the key's five fields, checked
        the same way, without building a key of its own."""
        new = _new_packet(cls)
        new.src_ip = key.src_ip
        new.dst_ip = key.dst_ip
        new.src_port = key.src_port
        new.dst_port = key.dst_port
        new.protocol = key.protocol
        new.tcp_flags = tcp_flags
        new.icmp_kind = icmp_kind
        new.ttl = ttl
        new.difc = difc
        new.payload_len = payload_len
        new.seq = seq
        new.control = control
        new.recirc_count = recirc_count
        new._check()
        new.flow_key = key
        new._text = None
        return new

    def _check(self) -> None:
        if self.protocol == PROTO_ICMP and self.icmp_kind is None and self.control is None:
            raise ValueError("icmp packet needs a kind")

    @property
    def evil_bit(self) -> bool:
        """The reserved IP bit that announces the label header."""
        return self.difc is not None

    @property
    def is_syn(self) -> bool:
        return self.protocol == PROTO_TCP and bool(int(self.tcp_flags) & _SYN)

    @property
    def is_initial(self) -> bool:
        """True when this packet opens policy evaluation for its flow: the
        TCP handshake start, any ICMP message, or a UDP packet that carries
        a label header (UDP has no handshake to anchor on)."""
        if self.control is not None:
            return False
        if self.protocol == PROTO_TCP:
            return self.is_syn
        if self.protocol == PROTO_ICMP:
            return True
        return self.difc is not None

    # -- copies -----------------------------------------------------------

    def _copy(self) -> SimPacket:
        new = _new_packet(SimPacket)
        new.src_ip = self.src_ip
        new.dst_ip = self.dst_ip
        new.src_port = self.src_port
        new.dst_port = self.dst_port
        new.protocol = self.protocol
        new.tcp_flags = self.tcp_flags
        new.icmp_kind = self.icmp_kind
        new.ttl = self.ttl
        new.difc = self.difc
        new.payload_len = self.payload_len
        new.seq = self.seq
        new.control = self.control
        new.recirc_count = self.recirc_count
        new.flow_key = self.flow_key
        new._text = self._text
        return new

    def with_ttl(self, ttl: int) -> SimPacket:
        new = self._copy()
        new.ttl = ttl
        return new

    def recirculated(self) -> SimPacket:
        new = self._copy()
        new.recirc_count = self.recirc_count + 1
        return new

    def with_header(self, header: DifcHeader) -> SimPacket:
        new = self._copy()
        new.difc = header
        new._text = None
        return new

    def describe(self) -> str:
        text = self._text
        if text is None:
            tag = PROTO_NAMES.get(self.protocol) or str(self.protocol)
            marks = []
            if self.is_syn:
                marks.append("syn")
            if self.difc is not None:
                marks.append("labeled")
            if self.control is not None:
                marks.append(self.control.value)
            suffix = "+".join(marks)
            text = self._text = (
                f"{self.flow_key}[{tag}{('/' + suffix) if suffix else ''}#{self.seq}]"
            )
        return text
