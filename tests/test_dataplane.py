"""Switch pipeline: connection table, decision buffer, rate limiter, match
priority, privilege rewrite, recirculation.

The buffer collision cases use two kinds of crafted keys:
  - same slot, different full hash: found by scanning source ports
  - same full 32-bit hash: a frozen birthday-search pair; the buffer cannot
    tell these apart by design, and the test pins that behavior down
"""

import pytest

from difcnet.dataplane import (
    ConnDecTable,
    Decision,
    DecisionBuffer,
    RateLimiter,
    SimParams,
    Switch,
    apply_privileges,
    match_policies,
)
from difcnet.errors import CapacityExceeded
from difcnet.header import DifcHeader, FlowKey, buffer_slot
from difcnet.labels import tag_bit
from difcnet.netcl import compile_program, parse
from difcnet.packets import PROTO_ICMP, PROTO_TCP, PROTO_UDP, SimPacket, TcpFlags
from tests.conftest import LAN_POLICY, make_lan

# Distinct 5-tuples sharing one full CRC-32 (0x09001203), found by birthday
# search over random keys and verified against a bitwise CRC reference.
CRC_TWIN_A = FlowKey("39.186.229.146", 6094, "10.5.2.20", 80, 6)
CRC_TWIN_B = FlowKey("211.141.133.172", 50758, "10.5.2.20", 80, 6)


def same_slot_pair(index_bits=6):
    """Two keys mapping to one buffer slot but carrying different hashes."""
    base = FlowKey("10.5.2.11", 40001, "10.5.2.20", 80, 6)
    want = buffer_slot(base, index_bits)
    for port in range(41000, 60000):
        cand = FlowKey("10.5.2.12", port, "10.5.2.20", 80, 6)
        if buffer_slot(cand, index_bits) == want and cand.crc32() != base.crc32():
            return base, cand
    raise AssertionError("no slot collision in scanned range")


# -- conn_dec --------------------------------------------------------------


def _key(i=0):
    return FlowKey("10.0.0.1", 1000 + i, "10.0.0.2", 80, 6)


def test_conn_dec_install_and_lookup():
    t = ConnDecTable(capacity=4)
    t.install(_key(), Decision.ALLOW, now_ns=5)
    assert t.lookup(_key(), now_ns=6) is Decision.ALLOW
    assert t.lookup(_key(1), now_ns=6) is None
    assert _key() in t and len(t) == 1


def test_conn_dec_capacity_and_reinstall():
    t = ConnDecTable(capacity=2)
    t.install(_key(0), Decision.ALLOW, 0)
    t.install(_key(1), Decision.DROP, 0)
    with pytest.raises(CapacityExceeded):
        t.install(_key(2), Decision.ALLOW, 0)
    # overwriting an existing key is not growth
    t.install(_key(1), Decision.ALLOW, 1)
    assert t.lookup(_key(1), 2) is Decision.ALLOW


def test_conn_dec_gc_respects_lookup_refresh():
    t = ConnDecTable(capacity=4)
    t.install(_key(0), Decision.ALLOW, 0)
    t.install(_key(1), Decision.ALLOW, 0)
    t.lookup(_key(0), 900)  # traffic keeps the entry warm
    assert t.gc(now_ns=1000, idle_ns=500) == 1
    assert _key(0) in t
    assert _key(1) not in t


# -- decision buffer -------------------------------------------------------


def test_buffer_insert_lookup():
    b = DecisionBuffer(index_bits=8)
    b.insert(_key(), Decision.DROP)
    assert b.lookup(_key()) is Decision.DROP
    assert b.lookup(_key(1)) is None


def test_buffer_slot_eviction():
    k1, k2 = same_slot_pair(index_bits=6)
    b = DecisionBuffer(index_bits=6)
    b.insert(k1, Decision.ALLOW)
    assert b.evictions == 0
    b.insert(k2, Decision.DROP)  # evicts k1
    assert b.evictions == 1
    assert b.lookup(k1) is None  # full hash comparison catches the swap
    assert b.lookup(k2) is Decision.DROP


def test_buffer_reinsert_same_key_is_not_eviction():
    b = DecisionBuffer(index_bits=6)
    b.insert(_key(), Decision.ALLOW)
    b.insert(_key(), Decision.DROP)
    assert b.evictions == 0
    assert b.lookup(_key()) is Decision.DROP


def test_buffer_full_hash_collision_false_hit():
    # the documented blind spot: identical CRC means identical buffer view
    assert CRC_TWIN_A != CRC_TWIN_B
    assert CRC_TWIN_A.crc32() == CRC_TWIN_B.crc32() == 0x09001203
    b = DecisionBuffer(index_bits=16)
    b.insert(CRC_TWIN_A, Decision.ALLOW)
    assert b.lookup(CRC_TWIN_B) is Decision.ALLOW


# -- rate limiter ----------------------------------------------------------


def test_rate_limiter_per_source_window():
    rl = RateLimiter(limit=2, window_ns=1000)
    assert rl.allow("a", 0)
    assert rl.allow("a", 10)
    assert not rl.allow("a", 20)  # third in window
    assert rl.allow("b", 30)  # other sources unaffected
    assert rl.allow("a", 1000)  # new window resets


# -- stateless match helpers ----------------------------------------------


def _lan_cfg():
    lan = make_lan()
    return lan, compile_program(parse(LAN_POLICY), lan)


def test_match_policies_lowest_priority_wins_across_tables():
    lan, compiled = _lan_cfg()
    cfg = compiled.configs["S2"]
    # B carries TB; to C both "contains TA" (prio 0, ternary) and the exact
    # B drop (prio 1) could be confused; craft label with both tags
    both = tag_bit(0) | tag_bit(1)
    entry = match_policies(cfg, both, 0, "10.5.2.12", "10.5.2.20")
    assert entry.priority == 0  # the ternary allow outranks the exact drop
    entry = match_policies(cfg, tag_bit(1), 0, "10.5.2.12", "10.5.2.20")
    assert entry.priority == 1
    assert match_policies(cfg, 0, 0, "10.9.9.9", "10.5.2.20") is None


def test_apply_privileges_reads_original_label():
    prog = parse(
        "label_host(ip=A, label={S})\n"
        "if match(pkt_label contains S && dst_ip==C) then declassify({S})\n"
        "if match(pkt_label contains S && dst_ip==C) then endorse({P})\n"
    )
    lan = make_lan()
    compiled = compile_program(prog, lan)
    entries = compiled.configs["S2"].privilege_entries
    s, p = tag_bit(0), tag_bit(1)
    out = apply_privileges(entries, s, 0, "10.5.2.11", "10.5.2.20")
    # both fired against the original bits: S removed, P added
    assert out == p
    # a label that never matched is untouched
    assert apply_privileges(entries, 0, 0, "10.5.2.11", "10.5.2.20") == 0


# -- switch pipeline -------------------------------------------------------


def _switch(**settings):
    lan, compiled = _lan_cfg()
    return Switch("S2", lan, compiled.configs["S2"], SimParams(**settings)), compiled


def _syn(src, dst, bits=None, sport=41000, dport=80, tracker=0, proto=PROTO_TCP):
    difc = None
    if bits is not None or tracker:
        difc = DifcHeader(bits or 0, tracker)
    flags = TcpFlags.SYN if proto == PROTO_TCP else TcpFlags.NONE
    return SimPacket(
        src_ip=src,
        dst_ip=dst,
        src_port=sport,
        dst_port=dport,
        protocol=proto,
        tcp_flags=flags,
        difc=difc,
    )


def _data(src, dst, sport=41000, dport=80):
    return SimPacket(
        src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
        protocol=PROTO_TCP, tcp_flags=TcpFlags.ACK, seq=1,
    )


A, B, C = "10.5.2.11", "10.5.2.12", "10.5.2.20"


def test_labeled_initial_allowed():
    sw, _ = _switch()
    pkt = _syn(A, C, tag_bit(0))
    res = sw.process_packet(pkt, 100)
    assert res.verdict == "forward"
    assert pkt.ttl == 63  # the switch rewrites the packet it is given
    assert res.decision_source == "policy"
    (req,) = res.install_requests
    assert req.decision is Decision.ALLOW and req.at_ns == 100
    assert sw.buffer.lookup(req.key) is Decision.ALLOW


def test_unmatched_initial_hits_default_deny():
    sw, _ = _switch()
    res = sw.process_packet(_syn("10.9.9.9", C), 100)
    assert res.verdict == "drop"
    (req,) = res.install_requests
    assert req.decision is Decision.DROP
    assert any("default-deny" in l for l in res.log)


def test_exact_drop_rule():
    sw, _ = _switch()
    res = sw.process_packet(_syn(B, C), 100)
    assert res.verdict == "drop"
    assert res.decision_source == "policy"


def test_conn_dec_overrides_policy():
    sw, _ = _switch()
    key = _syn(A, C, tag_bit(0)).flow_key
    sw.conn_dec.install(key, Decision.DROP, 50)
    res = sw.process_packet(_syn(A, C, tag_bit(0)), 100)
    assert res.verdict == "drop"
    assert res.decision_source == "conn_dec"
    assert not res.install_requests  # no re-decision


def test_conn_dec_allow_short_circuits():
    sw, _ = _switch()
    pkt = _data(B, C)  # policy would drop B, the table says otherwise
    sw.conn_dec.install(pkt.flow_key, Decision.ALLOW, 50)
    res = sw.process_packet(pkt, 100)
    assert res.verdict == "forward"
    assert res.decision_source == "conn_dec"


def test_transit_skips_enforcement():
    sw, _ = _switch()
    # destination off this switch: forwarded untouched, no state consumed
    res = sw.process_packet(_data(A, "203.0.113.10"), 100)
    assert res.verdict == "forward"
    assert res.decision_source == "transit"
    assert not res.install_requests


def test_control_packets_bypass_tables():
    sw, _ = _switch()
    ack = SimPacket(
        src_ip=C, dst_ip=A, src_port=80, dst_port=41000, protocol=PROTO_UDP,
        label_ack=True,
    )
    res = sw.process_packet(ack, 100)
    assert res.verdict == "forward"
    assert res.decision_source == "control"


def test_non_initial_miss_recirculates_then_drops():
    sw, _ = _switch(recirc_limit=2, recirc_delay_ns=15_000_000)
    pkt = _data(A, C)
    res = sw.process_packet(pkt, 100)
    assert res.verdict == "recirculate"
    assert sw.recirc_delay_ns == 15_000_000  # the network waits this long
    assert pkt.recirc_count == 1
    res = sw.process_packet(pkt, 200)
    assert pkt.recirc_count == 2
    res = sw.process_packet(pkt, 300)
    assert res.verdict == "drop"
    assert res.decision_source == "recirc_limit"


def test_non_initial_buffer_hit():
    sw, _ = _switch()
    syn = _syn(A, C, tag_bit(0))
    sw.process_packet(syn, 100)
    res = sw.process_packet(_data(A, C), 200)
    assert res.verdict == "forward"
    assert res.decision_source == "buffer"


def test_eviction_forces_recirculation_not_wrong_verdict():
    k1, k2 = same_slot_pair(index_bits=6)
    sw, _ = _switch(index_bits=6)
    syn1 = _syn(k1.src_ip, k1.dst_ip, tag_bit(0), sport=k1.src_port)
    sw.process_packet(syn1, 100)
    # second flow lands in the same slot with a drop verdict
    syn2 = _syn(k2.src_ip, k2.dst_ip, sport=k2.src_port)
    sw.process_packet(syn2, 150)
    # the first flow's data must not read the usurper's decision
    res = sw.process_packet(_data(k1.src_ip, k1.dst_ip, sport=k1.src_port), 200)
    assert res.verdict == "recirculate"


def test_rate_limited_initial_leaves_no_state():
    sw, _ = _switch(rate_limit=1, rate_window_ns=1_000_000_000)
    first = _syn(A, C, tag_bit(0), sport=41000)
    second = _syn(A, C, tag_bit(0), sport=41001)
    assert sw.process_packet(first, 100).verdict == "forward"
    res = sw.process_packet(second, 200)
    assert res.verdict == "drop"
    assert res.decision_source == "rate"
    assert not res.install_requests
    assert sw.buffer.lookup(second.flow_key) is None


def test_privilege_rewrites_header_in_place():
    lan = make_lan()
    prog = parse(
        "label_host(ip=A, label={S})\n"
        "if match(pkt_label contains S && dst_ip==C) then declassify({S})\n"
        "if match(dst_ip==C) then allow\n"
    )
    compiled = compile_program(prog, lan)
    sw = Switch("S2", lan, compiled.configs["S2"])
    pkt = _syn(A, C, tag_bit(0))
    pkt.describe()  # the rewrite must not leave the cached text behind
    res = sw.process_packet(pkt, 100)
    assert res.verdict == "forward"
    assert pkt.difc.bits == 0  # tag stripped on the wire
    assert pkt.evil_bit
    assert pkt.describe().endswith("/syn+labeled#0]")
    assert any("rewrite-label" in l for l in res.log)


def test_privilege_preserves_tracker():
    lan = make_lan()
    prog = parse(
        "label_file(ip=A, file=/f)\n"
        "label_host(ip=A, label={S})\n"
        "if match(pkt_label contains S && dst_ip==C) then declassify({S})\n"
        "if match(dst_ip==C) then allow\n"
    )
    compiled = compile_program(prog, lan)
    sw = Switch("S2", lan, compiled.configs["S2"])
    pkt = _syn(A, C, tag_bit(0), tracker=1)
    sw.process_packet(pkt, 100)
    assert pkt.difc.tracker_id == 1
    assert pkt.difc.bits == 0


def test_tracker_rule_matches():
    lan = make_lan()
    prog = parse(
        "label_file(ip=A, file=/f)\n"
        "if match(tracker_id==/f@A && dst_ip==C) then drop\n"
        "if match(dst_ip==C) then allow\n"
    )
    compiled = compile_program(prog, lan)
    sw = Switch("S2", lan, compiled.configs["S2"])
    assert sw.process_packet(_syn(A, C, tracker=1), 100).verdict == "drop"
    assert sw.process_packet(_syn(A, C, tracker=2, sport=41002), 100).verdict == "forward"
    assert sw.process_packet(_syn(A, C, sport=41003), 100).verdict == "forward"


def test_udp_labeled_initial_generates_ack():
    sw, _ = _switch()
    pkt = _syn(A, C, tag_bit(0), proto=PROTO_UDP, sport=41000, dport=53)
    res = sw.process_packet(pkt, 100)
    assert res.verdict == "forward"
    (ack,) = res.generated
    assert ack.label_ack
    assert (ack.src_ip, ack.dst_ip) == (C, A)
    assert (ack.src_port, ack.dst_port) == (53, 41000)


def test_udp_bare_packet_is_not_initial():
    sw, _ = _switch()
    pkt = SimPacket(
        src_ip=A, dst_ip=C, src_port=41000, dst_port=53,
        protocol=PROTO_UDP,
    )
    res = sw.process_packet(pkt, 100)
    assert res.verdict == "recirculate"
    assert not res.generated


def test_icmp_is_always_initial():
    sw, _ = _switch()
    ping = _syn(A, C, tag_bit(0), proto=PROTO_ICMP)
    res = sw.process_packet(ping, 100)
    assert res.verdict == "forward"
    assert res.install_requests


def test_ttl_expiry():
    from dataclasses import replace

    sw, _ = _switch()
    pkt = replace(_syn(A, C, tag_bit(0)), ttl=1)
    res = sw.process_packet(pkt, 100)
    assert res.verdict == "drop"
    assert any("ttl-expired" in l for l in res.log)


def test_reroute_and_modify_actions():
    lan = make_lan()
    prog = parse(
        "if match(src_ip==A && dst_ip==C) then reroute(1)\n"
        "if match(src_ip==B && dst_ip==C) then modify(ttl=4)\n"
        "if match(dst_ip==C) then allow\n"
    )
    compiled = compile_program(prog, lan)
    sw = Switch("S2", lan, compiled.configs["S2"])
    res = sw.process_packet(_syn(A, C), 100)
    assert res.verdict == "forward" and res.egress_port == 1
    pkt = _syn(B, C)
    res = sw.process_packet(pkt, 100)
    assert res.verdict == "forward" and pkt.ttl == 3  # set then hop


def test_alert_action_forwards():
    lan = make_lan()
    prog = parse("if match(src_ip==A && dst_ip==C) then alert\n")
    compiled = compile_program(prog, lan)
    sw = Switch("S2", lan, compiled.configs["S2"])
    res = sw.process_packet(_syn(A, C), 100)
    assert res.verdict == "forward"
    assert any("alert" in l for l in res.log)
    assert res.install_requests[0].decision is Decision.ALLOW


def test_hops_that_write_no_line_share_the_empty_log():
    sw, _ = _switch()
    ack = SimPacket(
        src_ip=C, dst_ip=A, src_port=80, dst_port=41000, protocol=PROTO_UDP,
        label_ack=True,
    )
    held = _data(B, C, sport=41001)
    sw.conn_dec.install(held.flow_key, Decision.ALLOW, 50)
    hops = [
        (ack, "control"),
        (_data(A, "203.0.113.10"), "transit"),
        (held, "conn_dec"),
        (_syn(A, C, tag_bit(0)), "policy"),
        (_data(A, C), "buffer"),
    ]
    for pkt, source in hops:
        res = sw.process_packet(pkt, 100)
        assert (res.verdict, res.decision_source) == ("forward", source)
        assert res.log == (), source  # a list, even an empty one, is not ()
    pkt = _syn(B, C, sport=41002)
    res = sw.process_packet(pkt, 100)
    assert res.log == [f"S2 drop {pkt.flow_key} default-deny"]
