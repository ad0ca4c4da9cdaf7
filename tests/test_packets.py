"""Packet model: construction checks, flags, the copy helpers the pipeline
uses per hop, checked against dataclasses.replace as the reference on
random packets, and the per-flow sharing: packets made from a flow's key
against packets built fresh, and the cached describe() text against a
fresh rendering."""

import ipaddress
from dataclasses import fields, replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from difcnet.header import DifcHeader, FlowKey
from difcnet.labels import LABEL_MASK, Label
from difcnet.packets import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    ControlKind,
    IcmpKind,
    SimPacket,
    TcpFlags,
)

_ips = st.integers(min_value=0, max_value=0xFFFFFFFF).map(
    lambda n: str(ipaddress.IPv4Address(n))
)
_ports = st.integers(min_value=0, max_value=65535)
_headers = st.builds(
    DifcHeader,
    st.integers(min_value=0, max_value=LABEL_MASK).map(Label),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)


@st.composite
def keys(draw):
    return FlowKey(
        draw(_ips), draw(_ports), draw(_ips), draw(_ports),
        draw(st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP])),
    )


@st.composite
def non_address_fields(draw, protocol):
    """Every constructor argument but the five address fields, valid for
    `protocol`."""
    control = draw(st.none() | st.sampled_from(list(ControlKind)))
    icmp_kind = draw(st.sampled_from(list(IcmpKind))) if protocol == PROTO_ICMP else None
    difc = draw(st.none() | _headers)
    return dict(
        tcp_flags=draw(st.sampled_from(list(TcpFlags) + [TcpFlags.SYN | TcpFlags.ACK])),
        icmp_kind=icmp_kind,
        ttl=draw(st.integers(min_value=0, max_value=255)),
        difc=difc,
        payload_len=draw(st.integers(min_value=0, max_value=1500)),
        seq=draw(st.integers(min_value=0, max_value=1000)),
        control=control,
        recirc_count=draw(st.integers(min_value=0, max_value=8)),
    )


def _fresh(key: FlowKey, **kw) -> SimPacket:
    """The packet the constructor builds from the key's fields."""
    return SimPacket(key.src_ip, key.dst_ip, key.src_port, key.dst_port, key.protocol, **kw)


@st.composite
def packets(draw):
    """Random packets, half built by the constructor and half made from a
    flow key the way the simulator makes them."""
    key = draw(keys())
    kw = draw(non_address_fields(key.protocol))
    if draw(st.booleans()):
        return SimPacket.of_flow(key, **kw)
    return _fresh(key, **kw)


def _same(copy: SimPacket, reference: SimPacket) -> None:
    assert type(copy) is SimPacket
    for f in fields(SimPacket):
        if f.name != "_text":  # a cache; the describe() texts are compared below
            assert getattr(copy, f.name) == getattr(reference, f.name), f.name
    assert copy == reference
    assert copy.describe() == reference.describe()
    assert copy.is_initial == reference.is_initial


@given(packets(), st.integers(min_value=0, max_value=255))
def test_with_ttl_matches_replace(pkt, ttl):
    out = pkt.with_ttl(ttl)
    _same(out, replace(pkt, ttl=ttl))
    assert out is not pkt and pkt == replace(pkt)  # the original is untouched


@given(packets())
def test_recirculated_matches_replace(pkt):
    _same(pkt.recirculated(), replace(pkt, recirc_count=pkt.recirc_count + 1))


@given(packets(), _headers)
def test_with_header_matches_replace(pkt, header):
    _same(pkt.with_header(header), replace(pkt, difc=header))


@given(packets())
def test_flow_key_built_once_and_shared_by_copies(pkt):
    assert pkt.flow_key == FlowKey(pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port, pkt.protocol)
    assert pkt.with_ttl(1).flow_key is pkt.flow_key


def test_is_syn_reads_the_syn_bit_of_tcp_only():
    def pkt(proto, flags):
        kind = IcmpKind.REQUEST if proto == PROTO_ICMP else None
        return SimPacket("1.1.1.1", "2.2.2.2", 1, 2, proto, tcp_flags=flags, icmp_kind=kind)

    assert pkt(PROTO_TCP, TcpFlags.SYN).is_syn
    assert pkt(PROTO_TCP, TcpFlags.SYN | TcpFlags.ACK).is_syn
    assert not pkt(PROTO_TCP, TcpFlags.ACK).is_syn
    assert not pkt(PROTO_TCP, TcpFlags.NONE).is_syn
    assert not pkt(PROTO_UDP, TcpFlags.SYN).is_syn


def test_constructor_checks_the_evil_bit_and_icmp_kind():
    # the evil bit is the header's presence: no constructor takes it, and
    # it cannot be set apart from the header
    with pytest.raises(TypeError):
        SimPacket("1.1.1.1", "2.2.2.2", 1, 2, PROTO_TCP, evil_bit=True)
    with pytest.raises(TypeError):
        SimPacket.of_flow(FlowKey("1.1.1.1", 1, "2.2.2.2", 2, PROTO_TCP), evil_bit=True)
    labelled = SimPacket.of_flow(FlowKey("1.1.1.1", 1, "2.2.2.2", 2, PROTO_UDP), difc=DifcHeader())
    assert labelled.evil_bit and labelled.is_initial
    with pytest.raises(AttributeError):
        labelled.evil_bit = False
    with pytest.raises(ValueError, match="icmp"):
        SimPacket("1.1.1.1", "2.2.2.2", 1, 2, PROTO_ICMP)
    with pytest.raises(ValueError, match="icmp"):
        SimPacket.of_flow(FlowKey("1.1.1.1", 1, "2.2.2.2", 2, PROTO_ICMP))
    # a control packet needs no ICMP kind, either way it is made
    ack = SimPacket.of_flow(
        FlowKey("1.1.1.1", 1, "2.2.2.2", 2, PROTO_ICMP), control=ControlKind.LABEL_ACK
    )
    assert ack == SimPacket("1.1.1.1", "2.2.2.2", 1, 2, PROTO_ICMP, control=ControlKind.LABEL_ACK)


def _same_key(got: FlowKey, want: FlowKey) -> None:
    assert got == want
    assert (got.src_ip, got.src_port, got.dst_ip, got.dst_port, got.protocol) == (
        want.src_ip, want.src_port, want.dst_ip, want.dst_port, want.protocol
    )
    assert str(got) == str(want) and hash(got) == hash(want) and got.crc32() == want.crc32()


@given(keys().flatmap(lambda k: st.tuples(st.just(k), non_address_fields(k.protocol))))
def test_packet_made_from_a_flow_key_equals_a_fresh_packet(key_and_fields):
    key, kw = key_and_fields
    str(key)  # a flow key renders its text before most of its packets are made
    got = SimPacket.of_flow(key, **kw)
    want = _fresh(key, **kw)
    _same(got, want)
    assert got.flow_key is key
    _same_key(got.flow_key, want.flow_key)


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
    if pkt.control is not None:
        marks.append(pkt.control.value)
    shown = f"/{'+'.join(marks)}" if marks else ""
    key = f"{pkt.src_ip}:{pkt.src_port}>{pkt.dst_ip}:{pkt.dst_port}/{pkt.protocol}"
    return f"{key}[{tag}{shown}#{pkt.seq}]"


_steps = st.one_of(
    st.tuples(st.just("ttl"), st.integers(min_value=0, max_value=255)),
    st.tuples(st.just("recirc"), st.none()),
    st.tuples(st.just("header"), _headers),
    st.tuples(st.just("describe"), st.none()),
)


@given(packets(), st.lists(_steps, max_size=8))
def test_cached_describe_equals_a_fresh_rendering_after_any_copies(pkt, steps):
    assert pkt.describe() == describe_reference(pkt)
    for op, arg in steps:
        if op == "ttl":
            pkt = pkt.with_ttl(arg)
        elif op == "recirc":
            pkt = pkt.recirculated()
        elif op == "header":
            pkt = pkt.with_header(arg)
        else:
            assert pkt.describe() == describe_reference(pkt)
    assert pkt.describe() == describe_reference(pkt)


def test_packets_are_slotted():
    pkt = SimPacket("1.1.1.1", "2.2.2.2", 1, 2, PROTO_TCP)
    with pytest.raises(AttributeError):
        pkt.extra = 1
