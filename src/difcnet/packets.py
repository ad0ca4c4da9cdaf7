"""Simulation packet model.

A SimPacket is the unit moved between hosts and switches. The reserved bit
of the IP fragment field (the "evil bit") marks the presence of the label
header; the constructor enforces the invariant evil_bit <=> difc-present
and the copy helpers preserve it.
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
    """Switch- or controller-generated packets that bypass policy lookup."""

    LABEL_ACK = "label_ack"
    LABEL_INIT = "label_init"


_SYN = int(TcpFlags.SYN)
_new_packet = object.__new__
_PROTO_TAG = {PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}


@dataclass(slots=True)
class SimPacket:
    """A value: the pipeline never mutates a packet, it copies it. The flow
    key is computed once, at construction; the copy helpers below share it
    and skip the constructor's checks, which a copy cannot break."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    tcp_flags: TcpFlags = TcpFlags.NONE
    icmp_kind: IcmpKind | None = None
    evil_bit: bool = False
    ttl: int = 64
    difc: DifcHeader | None = None
    payload_len: int = 0
    seq: int = 0  # per-flow packet ordinal
    control: ControlKind | None = None
    recirc_count: int = 0
    flow_key: FlowKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.evil_bit != (self.difc is not None):
            raise ValueError("evil bit must mirror label-header presence")
        if self.protocol == PROTO_ICMP and self.icmp_kind is None and self.control is None:
            raise ValueError("icmp packet needs a kind")
        self.flow_key = FlowKey(
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )

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
        return self.evil_bit

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
        new.evil_bit = self.evil_bit
        new.ttl = self.ttl
        new.difc = self.difc
        new.payload_len = self.payload_len
        new.seq = self.seq
        new.control = self.control
        new.recirc_count = self.recirc_count
        new.flow_key = self.flow_key
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
        new.evil_bit = True
        return new

    def describe(self) -> str:
        tag = _PROTO_TAG.get(self.protocol) or str(self.protocol)
        marks = []
        if self.is_syn:
            marks.append("syn")
        if self.evil_bit:
            marks.append("labeled")
        if self.control is not None:
            marks.append(self.control.value)
        suffix = "+".join(marks)
        return f"{self.flow_key}[{tag}{('/' + suffix) if suffix else ''}#{self.seq}]"
