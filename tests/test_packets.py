"""Packet model: construction checks, flags, the one copy the simulator
makes per sent packet and the in-place header rewrite, checked against
dataclasses.replace as the reference on random packets, and the per-flow
sharing: a flow's packets, copied from its template, against packets built
fresh, and the cached describe() text against a fresh rendering after any
copies and in-place edits."""

import ipaddress
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from difcnet.header import DifcHeader, FlowKey
from difcnet.labels import LABEL_MASK
from difcnet.packets import PROTO_ICMP, PROTO_TCP, PROTO_UDP, SimPacket, TcpFlags

_ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(
    lambda n: str(ipaddress.IPv4Address(n))
)
_ports = st.integers(min_value=0, max_value=65535)
_headers = st.builds(
    DifcHeader,
    st.integers(min_value=0, max_value=LABEL_MASK),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)
_flags = st.sampled_from(list(TcpFlags) + [TcpFlags.SYN | TcpFlags.ACK])
_seqs = st.integers(min_value=0, max_value=1000)


@st.composite
def keys(draw):
    return FlowKey(
        draw(_ips), draw(_ports), draw(_ips), draw(_ports),
        draw(st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP])),
    )


non_address_fields = st.fixed_dictionaries({
    # every constructor argument but the five address fields
    "tcp_flags": _flags,
    "ttl": st.integers(min_value=0, max_value=255),
    "difc": st.none() | _headers,
    "seq": _seqs,
    "label_ack": st.booleans(),
    "recirc_count": st.integers(min_value=0, max_value=8),
})


def _fresh(key: FlowKey, **kw) -> SimPacket:
    """The packet the constructor builds from the key's fields."""
    return SimPacket(key.src_ip, key.dst_ip, key.src_port, key.dst_port, key.protocol, **kw)


@st.composite
def packets(draw):
    """Random packets, half built by the constructor and half copied from
    one with `with_seq`, as the simulator makes a flow's later packets from
    its first, whose text is rendered when it is sent."""
    pkt = _fresh(draw(keys()), **draw(non_address_fields))
    if draw(st.booleans()):
        pkt.describe()
        pkt = pkt.with_seq(draw(_seqs), draw(_flags))
    return pkt


def _same(copy: SimPacket, reference: SimPacket) -> None:
    assert type(copy) is SimPacket
    for f in fields(SimPacket):
        if f.name != "_text":  # a cache; the describe() texts are compared below
            assert getattr(copy, f.name) == getattr(reference, f.name), f.name
    assert copy == reference
    assert copy.describe() == reference.describe()
    assert copy.is_initial == reference.is_initial


@given(packets(), _seqs, _flags)
def test_with_seq_matches_replace(pkt, seq, flags):
    pkt.describe()  # the copy must not keep the original's text
    before = replace(pkt)
    out = pkt.with_seq(seq, flags)
    _same(out, replace(pkt, seq=seq, tcp_flags=flags))
    assert out is not pkt and pkt == before  # the original is untouched


@given(packets(), _headers)
def test_set_header_rewrites_in_place_and_clears_the_text(pkt, header):
    pkt.describe()  # the rewrite must not keep the old text
    want = replace(pkt, difc=header)
    key = pkt.flow_key
    pkt.set_header(header)
    _same(pkt, want)
    assert pkt.flow_key is key


@given(packets())
def test_flow_key_built_once_and_shared_by_copies(pkt):
    assert pkt.flow_key == FlowKey(pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port, pkt.protocol)
    assert pkt.with_seq(1, TcpFlags.ACK).flow_key is pkt.flow_key


def test_is_syn_reads_the_syn_bit_of_tcp_only():
    def pkt(proto, flags):
        return SimPacket("1.1.1.1", "2.2.2.2", 1, 2, proto, tcp_flags=flags)

    assert pkt(PROTO_TCP, TcpFlags.SYN).is_syn
    assert pkt(PROTO_TCP, TcpFlags.SYN | TcpFlags.ACK).is_syn
    assert not pkt(PROTO_TCP, TcpFlags.ACK).is_syn
    assert not pkt(PROTO_TCP, TcpFlags.NONE).is_syn
    assert not pkt(PROTO_UDP, TcpFlags.SYN).is_syn


def test_the_evil_bit_is_the_headers_presence():
    # no constructor takes the evil bit, and it cannot be set apart from the header
    with pytest.raises(TypeError):
        SimPacket("1.1.1.1", "2.2.2.2", 1, 2, PROTO_TCP, evil_bit=True)
    bare = SimPacket("1.1.1.1", "2.2.2.2", 1, 2, PROTO_UDP)
    assert not bare.evil_bit and not bare.is_initial
    bare.set_header(DifcHeader())
    assert bare.evil_bit and bare.is_initial
    with pytest.raises(AttributeError):
        bare.evil_bit = False
    # an ICMP packet needs nothing besides its protocol number
    ping = SimPacket("1.1.1.1", "2.2.2.2", 1, 2, PROTO_ICMP)
    assert ping.is_initial and ping.describe() == "1.1.1.1:1>2.2.2.2:2/1[icmp#0]"


@pytest.mark.parametrize("bits", [-1, LABEL_MASK + 1])
def test_header_rejects_a_bitmap_out_of_range(bits):
    with pytest.raises(ValueError, match="label bitmap out of range"):
        DifcHeader(bits)
    with pytest.raises(ValueError, match="label bitmap out of range"):
        DifcHeader(bits, tracker_id=1)


def _same_key(got: FlowKey, want: FlowKey) -> None:
    assert got == want
    assert (got.src_ip, got.src_port, got.dst_ip, got.dst_port, got.protocol) == (
        want.src_ip, want.src_port, want.dst_ip, want.dst_port, want.protocol
    )
    assert str(got) == str(want) and hash(got) == hash(want) and got.crc32() == want.crc32()


@given(keys(), non_address_fields, st.lists(st.tuples(_seqs, _flags), max_size=4))
def test_later_packets_of_a_flow_equal_fresh_packets_and_share_its_key(key, kw, later):
    first = _fresh(key, **kw)
    first.describe()  # packet 0 renders its text before the later packets are made
    for seq, flags in later:
        got = first.with_seq(seq, flags)
        want = _fresh(key, **{**kw, "seq": seq, "tcp_flags": flags})
        _same(got, want)
        _same_key(got.flow_key, want.flow_key)
        # the key object is the first packet's, through every in-place edit a hop makes
        got.ttl -= 1
        got.recirc_count += 1
        got.set_header(DifcHeader(1))
        assert got.flow_key is first.flow_key


_address_changes = st.one_of(
    _ips.map(lambda v: {"src_ip": v}),
    _ips.map(lambda v: {"dst_ip": v}),
    _ports.map(lambda v: {"src_port": v}),
    _ports.map(lambda v: {"dst_port": v}),
)


@given(packets(), _address_changes)
def test_replace_with_a_new_address_or_port_rebuilds_the_key(pkt, change):
    pkt.describe()
    str(pkt.flow_key)
    pkt.flow_key.crc32()
    out = replace(pkt, **change)
    want = FlowKey(out.src_ip, out.src_port, out.dst_ip, out.dst_port, out.protocol)
    _same_key(out.flow_key, want)
    assert out.describe() == describe_reference(out)


def describe_reference(pkt: SimPacket) -> str:
    """describe() worked out from the packet's fields alone, with no cache."""
    tag = {PROTO_TCP: "tcp", PROTO_UDP: "udp", PROTO_ICMP: "icmp"}[pkt.protocol]
    marks = []
    if pkt.protocol == PROTO_TCP and pkt.tcp_flags & TcpFlags.SYN:
        marks.append("syn")
    if pkt.difc is not None:
        marks.append("labeled")
    if pkt.label_ack:
        marks.append("label_ack")
    shown = f"/{'+'.join(marks)}" if marks else ""
    key = f"{pkt.src_ip}:{pkt.src_port}>{pkt.dst_ip}:{pkt.dst_port}/{pkt.protocol}"
    return f"{key}[{tag}{shown}#{pkt.seq}]"


_steps = st.one_of(
    st.tuples(st.just("ttl"), st.integers(min_value=0, max_value=255)),
    st.tuples(st.just("recirc"), st.none()),
    st.tuples(st.just("header"), _headers),
    st.tuples(st.just("seq"), st.tuples(_seqs, _flags)),
    st.tuples(st.just("describe"), st.none()),
)


@given(packets(), st.lists(_steps, max_size=8))
def test_cached_describe_equals_a_fresh_rendering_after_any_copies(pkt, steps):
    """Copies (`with_seq`) and the edits a hop makes in place, in any order."""
    assert pkt.describe() == describe_reference(pkt)
    for op, arg in steps:
        if op == "ttl":
            pkt.ttl = arg
        elif op == "recirc":
            pkt.recirc_count += 1
        elif op == "header":
            pkt.set_header(arg)
        elif op == "seq":
            pkt = pkt.with_seq(*arg)
        else:
            assert pkt.describe() == describe_reference(pkt)
    assert pkt.describe() == describe_reference(pkt)


def test_packets_are_slotted():
    pkt = SimPacket("1.1.1.1", "2.2.2.2", 1, 2, PROTO_TCP)
    with pytest.raises(AttributeError):
        pkt.extra = 1
