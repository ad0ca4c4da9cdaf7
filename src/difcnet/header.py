"""On-wire label header codec and flow identity.

Wire layout, fixed by this implementation:

    byte 0        flags (bit 0 = tracker id present; other bits reserved, must be 0)
    bytes 1..32   tag bitmap, big-endian; tag index 0 = MSB of byte 1
    bytes 33..36  tracker id, big-endian u32, present iff flags bit 0 set

Serialized length is therefore exactly 33 or 37 bytes.

FlowKey hashing uses CRC-32 (reflected polynomial 0xEDB88320, the zlib
variant) over the canonical 13-byte serialization
src_ip . dst_ip . src_port . dst_port . protocol, all big-endian.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from socket import AF_INET, inet_pton

from .errors import MalformedHeader
from .labels import LABEL_MASK

FLAG_TRACKER = 0x01
_KNOWN_FLAGS = FLAG_TRACKER

HEADER_LEN_BARE = 33
HEADER_LEN_TRACKED = 37


@dataclass(frozen=True)
class DifcHeader:
    """The label carrier attached to a flow's initial packets: the tag
    bitmap as an int, laid out as in `labels`, and the tracker id."""

    bits: int = 0
    tracker_id: int = 0  # 0 means absent

    def __post_init__(self):
        if not 0 <= self.bits <= LABEL_MASK:
            raise ValueError("label bitmap out of range")
        if not 0 <= self.tracker_id <= 0xFFFFFFFF:
            raise ValueError("tracker id out of u32 range")

    @property
    def has_tracker(self) -> bool:
        return self.tracker_id != 0


def encode_header(h: DifcHeader) -> bytes:
    flags = FLAG_TRACKER if h.has_tracker else 0
    out = bytes([flags]) + h.bits.to_bytes(32, "big")
    if h.has_tracker:
        out += struct.pack(">I", h.tracker_id)
    return out


def decode_header(data: bytes) -> DifcHeader:
    if len(data) < HEADER_LEN_BARE:
        raise MalformedHeader(f"truncated header: {len(data)} bytes")
    flags = data[0]
    if flags & ~_KNOWN_FLAGS:
        raise MalformedHeader(f"unknown flag bits 0x{flags:02x}")
    bits = int.from_bytes(data[1:33], "big")
    tracker = 0
    if flags & FLAG_TRACKER:
        if len(data) < HEADER_LEN_TRACKED:
            raise MalformedHeader("tracker flag set but header truncated")
        if len(data) != HEADER_LEN_TRACKED:
            raise MalformedHeader(f"bad header length {len(data)}")
        (tracker,) = struct.unpack(">I", data[33:37])
        if tracker == 0:
            raise MalformedHeader("tracker flag set but tracker id is 0")
    elif len(data) != HEADER_LEN_BARE:
        raise MalformedHeader(f"bad header length {len(data)}")
    return DifcHeader(bits, tracker)


def ipv4_bytes(ip: str) -> bytes:
    """The four network-order bytes of a dotted-quad address. As strict as
    ipaddress.IPv4Address: leading zeros, missing or extra octets, values
    above 255, any other character and a value that is not a string raise
    a ValueError. This is the one check of what an address is."""
    try:
        return inet_pton(AF_INET, ip)
    except (OSError, TypeError, ValueError):
        raise ValueError(f"not an IPv4 address: {ip!r}") from None


_PORTS_PROTO = struct.Struct(">HHB")


class FlowKey:
    """5-tuple identity of a connection. Treat it as immutable: the hash is
    computed in the constructor, the CRC and the text (`str`) on first use,
    and none of them is ever recomputed. A simulated flow builds one key and
    every packet and copy of the flow shares it, so the CRC and the text are
    worked out once per flow."""

    __slots__ = (
        "src_ip", "src_port", "dst_ip", "dst_port", "protocol", "_hash", "_crc", "_text",
    )

    def __init__(self, src_ip: str, src_port: int, dst_ip: str, dst_port: int, protocol: int):
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.protocol = protocol  # IP protocol number: 6 tcp, 17 udp, 1 icmp
        self._hash = hash((src_ip, src_port, dst_ip, dst_port, protocol))
        self._crc = None
        self._text = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if other.__class__ is not FlowKey:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.src_ip == other.src_ip
            and self.src_port == other.src_port
            and self.dst_ip == other.dst_ip
            and self.dst_port == other.dst_port
            and self.protocol == other.protocol
        )

    def canonical_bytes(self) -> bytes:
        return (
            ipv4_bytes(self.src_ip)
            + ipv4_bytes(self.dst_ip)
            + _PORTS_PROTO.pack(self.src_port, self.dst_port, self.protocol)
        )

    def crc32(self) -> int:
        crc = self._crc
        if crc is None:
            crc = self._crc = zlib.crc32(self.canonical_bytes())
        return crc

    def reversed(self) -> FlowKey:
        return FlowKey(self.dst_ip, self.dst_port, self.src_ip, self.src_port, self.protocol)

    def __repr__(self) -> str:
        return (
            f"FlowKey(src_ip={self.src_ip!r}, src_port={self.src_port!r}, "
            f"dst_ip={self.dst_ip!r}, dst_port={self.dst_port!r}, protocol={self.protocol!r})"
        )

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = (
                f"{self.src_ip}:{self.src_port}>{self.dst_ip}:{self.dst_port}"
                f"/{self.protocol}"
            )
        return text


def buffer_slot(key: FlowKey, index_bits: int) -> int:
    """Direct-mapped slot index for a flow: low bits of the CRC."""
    return key.crc32() & ((1 << index_bits) - 1)
