"""Simulation packet model.

A SimPacket is the unit moved between hosts and switches. It holds only
what a switch pipeline, a host agent or a trace line reads: the 5-tuple,
the TCP flags, the TTL, the label header, the per-flow ordinal, the label
ack flag and the recirculation count. A label ack is the one packet a
switch makes: it tells a UDP sender that its label arrived, and it rides
outside the enforcement tables. The reserved bit of the IP fragment
field (the "evil bit") marks the presence of the label header, so a
packet's `evil_bit` is read from its header, `difc`, and no packet can hold
one without the other.

A packet in flight has one owner, the event that carries it, so whoever
handles the event rewrites the packet in place, as a switch's match-action
stages rewrite a parsed header vector: the sending host's agent writes the
label header, and each switch hop lowers the TTL, counts a recirculation or
rewrites the label. What is fixed per flow is worked out once per flow. The
simulator builds a flow's template packet with the constructor, never
sends it, and makes every sent packet as a copy of it (`with_seq`), the one
copy a packet gets, so every packet of the flow shares one FlowKey object,
its hash, CRC and text. A packet's `describe()` text is cached on the
packet; `with_seq` and `set_header` clear it, because the ordinal, the
flags and the evil bit are in the text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntFlag

from .header import DifcHeader, FlowKey

PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP = 1


class TcpFlags(IntFlag):
    NONE = 0
    SYN = 1
    ACK = 2


_SYN = int(TcpFlags.SYN)
_new_packet = object.__new__
PROTO_NAMES = {PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}


@dataclass(slots=True)
class SimPacket:
    """One packet, owned by the one event that carries it: its handler may
    rewrite the TTL, the recirculation count and the label header in place,
    and no two pending events hold the same packet. The constructor makes
    the flow key from the address fields; `with_seq` shares it.
    `dataclasses.replace` goes through the constructor, so a copy with a
    changed address or port gets a key of its own.

    `describe()` renders its text once and caches it. The TTL and the
    recirculation count are not in the text and are assigned directly;
    `with_seq` and `set_header` clear it."""

    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    tcp_flags: TcpFlags = TcpFlags.NONE
    ttl: int = 64
    difc: DifcHeader | None = None
    seq: int = 0  # per-flow packet ordinal
    label_ack: bool = False  # made by a switch, not sent by a flow
    recirc_count: int = 0
    flow_key: FlowKey = field(init=False, repr=False, compare=False)
    _text: str | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        self.flow_key = FlowKey(
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )

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
        if self.label_ack:
            return False
        if self.protocol == PROTO_TCP:
            return self.is_syn
        if self.protocol == PROTO_ICMP:
            return True
        return self.difc is not None

    # -- the one copy, and the one in-place edit the text cache sees -----

    def with_seq(self, seq: int, tcp_flags: TcpFlags) -> SimPacket:
        """Packet `seq` of this packet's flow, with `tcp_flags`: a copy
        that shares the flow key."""
        new = _new_packet(SimPacket)
        new.src_ip = self.src_ip
        new.dst_ip = self.dst_ip
        new.src_port = self.src_port
        new.dst_port = self.dst_port
        new.protocol = self.protocol
        new.tcp_flags = tcp_flags
        new.ttl = self.ttl
        new.difc = self.difc
        new.seq = seq
        new.label_ack = self.label_ack
        new.recirc_count = self.recirc_count
        new.flow_key = self.flow_key
        new._text = None  # the ordinal and the flags are in the text
        return new

    def set_header(self, header: DifcHeader) -> None:
        """Write the label header in place, clearing the cached text that
        shows the evil bit."""
        self.difc = header
        self._text = None

    def describe(self) -> str:
        text = self._text
        if text is None:
            tag = PROTO_NAMES.get(self.protocol) or str(self.protocol)
            marks = []
            if self.is_syn:
                marks.append("syn")
            if self.difc is not None:
                marks.append("labeled")
            if self.label_ack:
                marks.append("label_ack")
            suffix = "+".join(marks)
            text = self._text = (
                f"{self.flow_key}[{tag}{('/' + suffix) if suffix else ''}#{self.seq}]"
            )
        return text
