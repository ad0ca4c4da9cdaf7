"""Packet model: construction checks, flags, and the copy helpers the
pipeline uses per hop, checked against dataclasses.replace as the
reference on random packets."""

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
def packets(draw):
    protocol = draw(st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]))
    control = draw(st.none() | st.sampled_from(list(ControlKind)))
    icmp_kind = draw(st.sampled_from(list(IcmpKind))) if protocol == PROTO_ICMP else None
    difc = draw(st.none() | _headers)
    return SimPacket(
        src_ip=draw(_ips),
        dst_ip=draw(_ips),
        src_port=draw(_ports),
        dst_port=draw(_ports),
        protocol=protocol,
        tcp_flags=draw(st.sampled_from(list(TcpFlags) + [TcpFlags.SYN | TcpFlags.ACK])),
        icmp_kind=icmp_kind,
        evil_bit=difc is not None,
        ttl=draw(st.integers(min_value=0, max_value=255)),
        difc=difc,
        payload_len=draw(st.integers(min_value=0, max_value=1500)),
        seq=draw(st.integers(min_value=0, max_value=1000)),
        control=control,
        recirc_count=draw(st.integers(min_value=0, max_value=8)),
    )


def _same(copy: SimPacket, reference: SimPacket) -> None:
    assert type(copy) is SimPacket
    for f in fields(SimPacket):
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
    _same(pkt.with_header(header), replace(pkt, difc=header, evil_bit=True))


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
    with pytest.raises(ValueError, match="evil bit"):
        SimPacket("1.1.1.1", "2.2.2.2", 1, 2, PROTO_TCP, evil_bit=True)
    with pytest.raises(ValueError, match="icmp"):
        SimPacket("1.1.1.1", "2.2.2.2", 1, 2, PROTO_ICMP)


def test_packets_are_slotted():
    pkt = SimPacket("1.1.1.1", "2.2.2.2", 1, 2, PROTO_TCP)
    with pytest.raises(AttributeError):
        pkt.extra = 1
