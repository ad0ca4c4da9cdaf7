"""Wire codec and flow hashing.

The CRC used for flow identity is checked against an independent bitwise
implementation of the reflected 0xEDB88320 polynomial, and the serialized
layouts are compared byte for byte with hand-built reference buffers.
"""

import ipaddress
import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from difcnet.errors import MalformedHeader
from difcnet.header import (
    HEADER_LEN_BARE,
    HEADER_LEN_TRACKED,
    DifcHeader,
    FlowKey,
    buffer_slot,
    decode_header,
    encode_header,
    ipv4_bytes,
)
from difcnet.labels import LABEL_MASK, tag_bit


def _crc32_bitwise(data: bytes) -> int:
    """Reference CRC-32, bit by bit, reflected polynomial 0xEDB88320."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0xEDB88320 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


# -- flow keys -------------------------------------------------------------


def test_canonical_bytes_layout():
    key = FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, 6)
    expected = (
        bytes([10, 0, 0, 1])
        + bytes([10, 0, 0, 2])
        + struct.pack(">H", 1234)
        + struct.pack(">H", 80)
        + bytes([6])
    )
    assert key.canonical_bytes() == expected
    assert len(key.canonical_bytes()) == 13
    assert key.canonical_bytes().hex() == "0a0000010a00000204d2005006"


def test_known_crc_values():
    # frozen literals, verified against the bitwise reference
    assert FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, 6).crc32() == 0x280A4FBC
    assert (
        FlowKey("10.1.2.20", 41005, "203.0.113.10", 443, 6).crc32() == 0xC45EC1F0
    )


@given(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=65535),
    st.sampled_from([1, 6, 17]),
)
def test_crc_agrees_with_bitwise_reference(src, sp, dst, dp, proto):
    def dotted(n):
        return f"{n >> 24}.{(n >> 16) & 255}.{(n >> 8) & 255}.{n & 255}"

    key = FlowKey(dotted(src), sp, dotted(dst), dp, proto)
    assert key.crc32() == _crc32_bitwise(key.canonical_bytes())


def _reference_ip(text):
    """The slow reference parser: int value, or the ValueError subclass it
    raised."""
    try:
        return int(ipaddress.IPv4Address(text))
    except ValueError as exc:
        return type(exc)


def _fast_ip(text):
    try:
        return int.from_bytes(ipv4_bytes(text), "big")
    except ValueError as exc:
        return type(exc)


def _agree(text):
    ref, fast = _reference_ip(text), _fast_ip(text)
    if isinstance(ref, int):
        assert fast == ref
    else:
        assert isinstance(fast, type) and issubclass(fast, ValueError), (text, fast)


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_fast_ipv4_parser_matches_ipaddress_on_valid(n):
    text = str(ipaddress.IPv4Address(n))
    assert _fast_ip(text) == n


_octet_text = st.one_of(
    st.integers(min_value=0, max_value=300).map(str),
    st.integers(min_value=0, max_value=99).map(lambda n: f"0{n}"),  # leading zero
    st.text(alphabet="0123456789xX+- ", max_size=4),
    st.text(max_size=3),
)


@given(st.lists(_octet_text, min_size=1, max_size=6), st.sampled_from([".", "..", ":", ". "]))
def test_fast_ipv4_parser_matches_ipaddress_on_malformed(octets, sep):
    _agree(".".join(octets))
    _agree(sep.join(octets))


@given(st.text(max_size=20))
def test_fast_ipv4_parser_matches_ipaddress_on_any_text(text):
    _agree(text)


@pytest.mark.parametrize(
    "text",
    ["", "1.2.3", "1.2.3.4.", "01.2.3.4", "1.2.3.00", "256.1.1.1", " 1.2.3.4",
     "1.2.3.4\x00", "1.2.3.0x1", "\u0661.2.3.4", "\ud800", "1..2.3", "+1.2.3.4"],
)
def test_fast_ipv4_parser_rejects_like_ipaddress(text):
    assert isinstance(_reference_ip(text), type)
    _agree(text)


@given(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=255),
)
def test_cached_crc_matches_reference_serialization(src, sp, dst, dp, proto):
    src_ip, dst_ip = str(ipaddress.IPv4Address(src)), str(ipaddress.IPv4Address(dst))
    key = FlowKey(src_ip, sp, dst_ip, dp, proto)
    reference = struct.pack(">IIHHB", src, dst, sp, dp, proto)
    assert key.canonical_bytes() == reference
    assert key.crc32() == _crc32_bitwise(reference) == zlib.crc32(reference)
    assert key.crc32() == key.crc32()  # the second call reads the cached value


def test_flow_key_value_semantics():
    a = FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, 6)
    b = FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, 6)
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, 17)
    assert a != ("10.0.0.1", 1234, "10.0.0.2", 80, 6)
    assert repr(a) == (
        "FlowKey(src_ip='10.0.0.1', src_port=1234, dst_ip='10.0.0.2', dst_port=80, protocol=6)"
    )
    with pytest.raises(AttributeError):
        a.extra = 1  # slotted


def test_crc_of_malformed_address_raises_value_error():
    with pytest.raises(ValueError):
        FlowKey("10.0.0.01", 1, "10.0.0.2", 2, 6).crc32()


def test_reversed_swaps_endpoints():
    key = FlowKey("1.2.3.4", 10, "5.6.7.8", 20, 17)
    rev = key.reversed()
    assert rev == FlowKey("5.6.7.8", 20, "1.2.3.4", 10, 17)
    assert rev.reversed() == key


@given(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=65535),
    st.integers(min_value=0, max_value=255),
)
def test_cached_key_text_matches_uncached_format(src, sp, dst, dp, proto):
    src_ip, dst_ip = str(ipaddress.IPv4Address(src)), str(ipaddress.IPv4Address(dst))
    key = FlowKey(src_ip, sp, dst_ip, dp, proto)
    first = str(key)
    assert first == f"{src_ip}:{sp}>{dst_ip}:{dp}/{proto}"
    assert str(key) is first  # the second call reads the cached text
    assert f"{key}" is first
    assert str(key.reversed()) == f"{dst_ip}:{dp}>{src_ip}:{sp}/{proto}"


def test_key_string_form():
    assert (
        str(FlowKey("10.1.2.20", 41005, "203.0.113.10", 443, 6))
        == "10.1.2.20:41005>203.0.113.10:443/6"
    )


def test_buffer_slot_uses_low_bits():
    key = FlowKey("10.0.0.1", 1234, "10.0.0.2", 80, 6)
    assert buffer_slot(key, 16) == 0x280A4FBC & 0xFFFF
    assert buffer_slot(key, 4) == 0x280A4FBC & 0xF
    assert buffer_slot(key, 32) == 0x280A4FBC


# -- header codec ----------------------------------------------------------


def test_bare_header_layout():
    h = DifcHeader(tag_bit(0) | tag_bit(255))
    wire = encode_header(h)
    assert len(wire) == HEADER_LEN_BARE == 33
    assert wire[0] == 0x00
    assert wire[1] == 0x80  # tag 0 is the msb of the first bitmap byte
    assert wire[32] == 0x01  # tag 255 is the lsb of the last
    assert wire[2:32] == bytes(30)


def test_tracked_header_layout():
    h = DifcHeader(0, tracker_id=0xDEADBEEF)
    wire = encode_header(h)
    assert len(wire) == HEADER_LEN_TRACKED == 37
    assert wire[0] == 0x01
    assert wire[1:33] == bytes(32)
    assert wire[33:] == b"\xde\xad\xbe\xef"


def test_tracker_id_range_check():
    with pytest.raises(ValueError):
        DifcHeader(0, tracker_id=1 << 32)
    with pytest.raises(ValueError):
        DifcHeader(0, tracker_id=-1)


@pytest.mark.parametrize(
    "header",
    [
        DifcHeader(0),
        DifcHeader(LABEL_MASK),
        DifcHeader(0, tracker_id=1),
        DifcHeader(LABEL_MASK, tracker_id=0xFFFFFFFF),
        DifcHeader(tag_bit(7)),
    ],
)
def test_boundary_round_trips(header):
    assert decode_header(encode_header(header)) == header


@given(
    st.integers(min_value=0, max_value=LABEL_MASK),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)
def test_codec_round_trip(bits, tracker):
    h = DifcHeader(bits, tracker)
    wire = encode_header(h)
    assert len(wire) == (HEADER_LEN_TRACKED if tracker else HEADER_LEN_BARE)
    back = decode_header(wire)
    assert back == h
    # second direction: re-encoding the decode is byte identical
    assert encode_header(back) == wire


def test_decode_rejects_truncated():
    with pytest.raises(MalformedHeader):
        decode_header(b"")
    with pytest.raises(MalformedHeader):
        decode_header(bytes(32))


def test_decode_rejects_unknown_flags():
    wire = bytes([0x02]) + bytes(32)
    with pytest.raises(MalformedHeader):
        decode_header(wire)


def test_decode_rejects_bad_lengths():
    bare = encode_header(DifcHeader(1))
    with pytest.raises(MalformedHeader):
        decode_header(bare + b"\x00")  # 34 bytes, no tracker flag
    tracked = encode_header(DifcHeader(1, tracker_id=9))
    with pytest.raises(MalformedHeader):
        decode_header(tracked[:35])  # tracker flag set, id truncated
    with pytest.raises(MalformedHeader):
        decode_header(tracked + b"\x00")  # trailing garbage


def test_decode_rejects_zero_tracker_with_flag():
    wire = bytes([0x01]) + bytes(32) + bytes(4)
    with pytest.raises(MalformedHeader):
        decode_header(wire)


def test_has_tracker():
    assert not DifcHeader(1).has_tracker
    assert DifcHeader(1, tracker_id=3).has_tracker
