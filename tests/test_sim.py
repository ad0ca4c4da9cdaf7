"""End-to-end simulator behavior on small networks: admission, blocking,
bidirectional installs, recirculation under eviction, UDP acks, and
trace determinism."""

import pytest

from difcnet.dataplane import Decision, Switch
from difcnet.errors import DifcnetError
from difcnet.header import FlowKey, buffer_slot
from difcnet.hostagent import HostAgent
from difcnet.netcl import compile_program, parse
from difcnet.sim import Network, SimParams
from difcnet.topology import load_topology
from tests.conftest import LAN_POLICY, POLICY_DIR, TOPOLOGY_DIR, make_lan, make_split

MS = 1_000_000


def lan_network(params=None, policy=LAN_POLICY):
    topo = make_lan()
    compiled = compile_program(parse(policy), topo)
    return Network(topo, compiled, params or SimParams())


def split_network(policy, params=None):
    topo = make_split()
    compiled = compile_program(parse(policy), topo)
    return Network(topo, compiled, params or SimParams())


def test_bootstrap_initializes_agents_in_host_order():
    # hosts in name order; one with tracked files and no label gets the
    # empty label, and one with neither gets no lines
    net = lan_network(policy=(
        "label_host(ip=B, label={TB})\n"
        "label_host(ip=A, label={TA})\n"
        "label_file(ip=C, file=/g)\n"
        "label_file(ip=A, file=/f)\n"
    ))
    assert net.trace == [
        "t=0 label-init host=A label={TA}",
        "t=0 label-file host=A path=/f tracker=2",
        "t=0 label-init host=B label={TB}",
        "t=0 label-init host=C label={}",
        "t=0 label-file host=C path=/g tracker=1",
    ]
    a, c = net.agents["A"], net.agents["C"]
    assert a.files[a.inode_of("/f")] == (a.host_label, 2) and a.host_label
    assert c.files[c.inode_of("/g")] == (0, 1) and c.host_label == 0


def test_labeled_flow_admitted_end_to_end():
    net = lan_network()
    net.agents["A"].spawn(100)
    rec = net.send_flow(
        flow_id="f", src="A", dst="C", at_ns=1 * MS, pid=100, packets=3
    )
    net.run()
    assert rec.verdict == "allow"
    assert rec.delivered == 3 and rec.dropped == 0
    # every outcome carries the same fate
    assert [status for _, status, _ in sorted(rec.outcomes)] == ["delivered"] * 3


def test_policy_drop_blocks_whole_flow():
    net = lan_network()
    net.agents["B"].spawn(200)
    rec = net.send_flow(
        flow_id="f", src="B", dst="C", at_ns=1 * MS, pid=200, packets=3
    )
    net.run()
    assert rec.verdict == "drop"
    assert rec.dropped == 3 and rec.delivered == 0


def test_conn_dec_installed_forward_and_reverse():
    net = lan_network()
    net.agents["A"].spawn(100)
    rec = net.send_flow(flow_id="f", src="A", dst="C", at_ns=1 * MS, pid=100)
    net.run()
    sw = net.switches["S2"]
    assert sw.conn_dec.lookup(rec.key, net.now) is Decision.ALLOW
    assert sw.conn_dec.lookup(rec.key.reversed(), net.now) is Decision.ALLOW
    assert any("install conn-dec" in line for line in net.trace)


def test_reply_rides_reverse_install():
    # C's reply would fail policy (no rule admits traffic to A from C), but
    # the reversed conn_dec entry from the forward flow covers it
    net = lan_network(
        policy=(
            "label_host(ip=A, label={TA})\n"
            "if match(pkt_label contains TA && dst_ip==C) then allow\n"
        )
    )
    net.agents["A"].spawn(100)
    fwd = net.send_flow(
        flow_id="fwd", src="A", dst="C", at_ns=1 * MS, pid=100,
        src_port=41000, dst_port=80, packets=1,
    )
    reply = net.send_flow(
        flow_id="rep", src="C", dst="A", at_ns=40 * MS,
        src_port=80, dst_port=41000, packets=2,
    )
    net.run()
    assert fwd.verdict == "allow"
    assert reply.key == fwd.key.reversed()
    assert reply.verdict == "allow"
    assert reply.delivered == 2


def test_reply_before_install_is_refused():
    net = lan_network(
        policy=(
            "label_host(ip=A, label={TA})\n"
            "if match(pkt_label contains TA && dst_ip==C) then allow\n"
        )
    )
    net.agents["A"].spawn(100)
    net.send_flow(
        flow_id="fwd", src="A", dst="C", at_ns=1 * MS, pid=100, packets=1
    )
    # install lands at decision time + rtt (11.1ms); reply at 2ms misses it
    reply = net.send_flow(
        flow_id="rep", src="C", dst="A", at_ns=2 * MS,
        src_port=80, dst_port=41000, packets=1,
    )
    net.run()
    assert reply.verdict == "drop"


def _colliding_port(key, src_ip, index_bits):
    for port in range(42000, 60000):
        cand = FlowKey(src_ip, port, key.dst_ip, key.dst_port, key.protocol)
        if (
            buffer_slot(cand, index_bits) == buffer_slot(key, index_bits)
            and cand.crc32() != key.crc32()
        ):
            return port
    raise AssertionError("no collision found")


def test_eviction_recovers_via_recirculation():
    params = SimParams(index_bits=2)
    net = lan_network(params=params)
    net.agents["A"].spawn(100)
    net.agents["B"].spawn(200)
    fa = net.send_flow(
        flow_id="fa", src="A", dst="C", at_ns=1 * MS, pid=100,
        src_port=41000, packets=3, gap_ns=1 * MS,
    )
    port_b = _colliding_port(fa.key, "10.5.2.12", params.index_bits)
    fb = net.send_flow(
        flow_id="fb", src="B", dst="C", at_ns=int(1.2 * MS), pid=200,
        src_port=port_b, packets=1,
    )
    net.run()
    # fb's verdict evicted fa's buffer entry; fa's data packets recirculate
    # until the conn_dec install lands, then deliver
    assert any("recirculate" in line for line in net.trace)
    assert fa.delivered == 3
    assert fb.verdict == "drop"  # policy drops B to C
    assert net.switches["S2"].buffer.evictions >= 1


def test_udp_label_ack_round_trip():
    net = lan_network(
        policy=(
            "label_host(ip=A, label={TA})\n"
            "if match(pkt_label contains TA && dst_ip==C) then allow\n"
        )
    )
    net.agents["A"].spawn(100)
    rec = net.send_flow(
        flow_id="u", src="A", dst="C", at_ns=1 * MS, pid=100,
        protocol="udp", dst_port=53, packets=5,
    )
    net.run()
    assert rec.delivered == 5
    agent = net.agents["A"]
    assert agent.udp_sent[rec.key] == net.params.udp_label_prefix  # the ack fills the count
    acked_line = [l for l in net.trace if "label-ack" in l]
    assert acked_line  # switch generated at least one ack
    # after the ack the sender stops stamping: the last packets ride the
    # conn_dec/buffer state as plain traffic
    deliveries = [e for e in net.agents["C"].events if e.kind == "deliver"]
    assert deliveries[0].label_bits != 0
    assert deliveries[-1].label_bits == 0


def test_cross_switch_flow_transits_core():
    net = split_network(
        "label_host(ip=A, label={TA})\n"
        "if match(pkt_label contains TA && dst_ip==C) then allow\n"
    )
    net.agents["A"].spawn(100)
    rec = net.send_flow(flow_id="x", src="A", dst="C", at_ns=1 * MS, pid=100)
    net.run()
    assert rec.verdict == "allow"
    # decision at the destination switch, reverse entry next to the source
    assert net.switches["S3"].conn_dec.lookup(rec.key, net.now) is Decision.ALLOW
    assert (
        net.switches["S2"].conn_dec.lookup(rec.key.reversed(), net.now)
        is Decision.ALLOW
    )
    assert net.switches["S1"].conn_dec.lookup(rec.key, net.now) is None


def test_external_delivery_and_spoofed_source():
    net = lan_network(
        policy=(
            "label_host(ip=A, label={TA})\n"
            "if match(src_ip==A && dst_ip==external_network) then allow\n"
        )
    )
    net.agents["A"].spawn(100)
    out = net.send_flow(
        flow_id="out", src="A", dst="external", at_ns=1 * MS, pid=100, packets=2
    )
    spoof = net.send_flow(
        flow_id="spoof", src="192.0.2.66", dst="C", at_ns=2 * MS, packets=1
    )
    net.run()
    assert out.verdict == "allow"
    assert net.external_delivered == 2
    assert spoof.verdict == "drop"  # default deny, and no reverse install crash


@pytest.mark.parametrize(
    "src, dst, pid, verdict",
    [("A", "B", 100, "allow"), ("B", "C", 200, "drop")],
    ids=["delivered", "dropped"],
)
def test_flows_that_share_a_5_tuple_each_count_their_own_packets(src, dst, pid, verdict):
    # the switches see one connection, but each packet is counted on the
    # flow that sent it
    net = lan_network()
    net.agents[src].spawn(pid)
    a = net.send_flow(flow_id="a", src=src, dst=dst, at_ns=0, pid=pid)
    b = net.send_flow(flow_id="b", src=src, dst=dst, at_ns=50 * MS, pid=pid)
    net.run()
    assert a.key == b.key
    for rec in (a, b):
        assert rec.verdict == verdict
        assert rec.sent == rec.delivered + rec.dropped == 3
        assert sorted(seq for seq, _, _ in rec.outcomes) == [0, 1, 2]


def test_accept_pid_applies_only_at_the_flows_dst():
    # port 1 of S2 is host A, so the reroute delivers the labelled SYN of
    # A's flow to B back to A, which runs no pid 200; only B, the dst,
    # accepts with accept_pid. The later packets follow the conn_dec entry
    # to B, bare, so nothing is pending there to accept.
    net = lan_network(
        policy="label_host(ip=A, label={S0})\nif match(dst_ip==any) then reroute(1)\n"
    )
    net.agents["A"].spawn(100)
    net.agents["B"].spawn(200)
    rec = net.send_flow(flow_id="f", src="A", dst="B", at_ns=0, pid=100, accept_pid=200)
    net.run()
    assert (rec.sent, rec.delivered, rec.dropped) == (3, 3, 0)
    assert sorted(rec.outcomes) == [(0, "delivered", "A"), (1, "delivered", "B"),
                                    (2, "delivered", "B")]
    assert all(e.kind != "accept" for agent in net.agents.values() for e in agent.events)
    assert rec.key in net.agents["A"].in_labels  # delivered, pending, never accepted


def test_label_init_trace_lines():
    net = lan_network()
    assert "t=0 label-init host=A label={TA}" in net.trace
    assert "t=0 label-init host=B label={TB}" in net.trace


def test_gc_conn_dec():
    net = lan_network()
    net.agents["A"].spawn(100)
    net.send_flow(flow_id="f", src="A", dst="C", at_ns=1 * MS, pid=100)
    net.run()
    assert len(net.switches["S2"].conn_dec) == 2
    # clock sits at the install instant, so a nonzero idle keeps both
    assert net.gc_conn_dec(idle_ns=1) == 0
    assert net.trace[-1] == f"t={net.now} conn-dec-gc removed=0"
    net.now += 60_000 * MS
    assert net.gc_conn_dec(idle_ns=1000 * MS) == 2
    assert len(net.switches["S2"].conn_dec) == 0
    assert net.trace[-1] == f"t={net.now} conn-dec-gc removed=2"


def test_schedule_call_logs_label():
    net = lan_network()
    hits = []
    net.schedule_call(5 * MS, "custom-event", lambda: hits.append(1))
    net.run()
    assert hits == [1]
    assert any("custom-event" in line for line in net.trace)


def test_runs_are_byte_identical():
    def run_once():
        net = lan_network()
        net.agents["A"].spawn(100)
        net.agents["B"].spawn(200)
        net.send_flow(flow_id="f1", src="A", dst="C", at_ns=1 * MS, pid=100)
        net.send_flow(flow_id="f2", src="B", dst="C", at_ns=2 * MS, pid=200)
        net.send_flow(flow_id="f3", src="A", dst="B", at_ns=3 * MS, pid=100)
        net.run()
        return "\n".join(net.trace)

    assert run_once() == run_once()


def test_run_until_bound():
    net = lan_network()
    net.agents["A"].spawn(100)
    net.send_flow(flow_id="f", src="A", dst="C", at_ns=1 * MS, pid=100, packets=1)
    net.send_flow(flow_id="late", src="A", dst="C", at_ns=500 * MS, pid=100,
                  src_port=41009, packets=1)
    net.run(until_ns=100 * MS)
    assert net.flows["f"].delivered == 1
    assert net.flows["late"].sent == 0  # still queued beyond the horizon


def test_send_flow_rejects_an_unknown_protocol():
    net = lan_network()
    with pytest.raises(DifcnetError) as exc:
        net.send_flow(flow_id="f", src="A", dst="C", at_ns=1 * MS, protocol="sctp")
    assert str(exc.value) == "flow 'f': unknown protocol 'sctp', expected one of tcp, udp, icmp"
    assert not net.flows and not net._heap


def test_packets_of_a_flow_share_one_key(monkeypatch):
    seen = []

    def spy(original):
        def wrapper(self, pkt, *args, **kwargs):
            seen.append(pkt)
            return original(self, pkt, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(Switch, "process_packet", spy(Switch.process_packet))
    monkeypatch.setattr(HostAgent, "deliver", spy(HostAgent.deliver))
    net = split_network(
        "label_host(ip=A, label={TA})\n"
        "if match(pkt_label contains TA) then allow\n"
    )
    net.agents["A"].spawn(100)
    net.agents["C"].spawn(300)
    flows = [
        net.send_flow(flow_id="t", src="A", dst="C", at_ns=1 * MS, pid=100, packets=4),
        net.send_flow(flow_id="u", src="A", dst="C", at_ns=2 * MS, pid=100,
                      protocol="udp", dst_port=53, packets=5),
        net.send_flow(flow_id="i", src="A", dst="B", at_ns=3 * MS, pid=100, protocol="icmp"),
        net.send_flow(flow_id="r", src="C", dst="A", at_ns=4 * MS, pid=300,
                      src_port=80, dst_port=41000),
    ]
    net.run()
    by_value = {rec.key: rec.key for rec in flows}
    data = [pkt for pkt in seen if not pkt.label_ack]
    assert len(data) > sum(rec.sent for rec in flows)  # every hop and delivery is seen
    assert all(pkt.flow_key is by_value[pkt.flow_key] for pkt in data)
    assert {id(pkt.flow_key) for pkt in data} == {id(rec.key) for rec in flows}
    assert any(pkt.label_ack for pkt in seen)  # label acks carry keys of their own



def test_every_switch_and_agent_runs_the_network_params():
    p = SimParams(
        rtt_ns=2 * MS, recirc_delay_ns=5 * MS, recirc_limit=7, index_bits=9,
        conn_dec_capacity=11, rate_limit=13, rate_window_ns=17 * MS, udp_label_prefix=5,
    )
    net = split_network("if match(dst_ip==C) then allow\n", p)
    assert len(net.switches) == 3 and len(net.agents) == 3
    for sw in net.switches.values():
        assert (sw.buffer.index_bits, sw.conn_dec.capacity) == (9, 11)
        assert (sw.recirc_limit, sw.recirc_delay_ns) == (7, 5 * MS)
        assert (sw.limiter.limit, sw.limiter.window_ns) == (13, 17 * MS)
    assert [a.udp_label_prefix for a in net.agents.values()] == [5, 5, 5]
    assert net.control.rtt_ns == 2 * MS
    # a buffer miss waits 1.5 round trips, so the install it waits for has landed
    default = lan_network().switches["S2"]
    assert default.recirc_delay_ns == 15 * MS
    assert lan_network(SimParams(rtt_ns=4 * MS)).switches["S2"].recirc_delay_ns == 6 * MS
    # a switch made without params runs the defaults
    alone = Switch("S2", make_lan(), default.config)
    assert (alone.recirc_delay_ns, alone.buffer.index_bits) == (15 * MS, SimParams().index_bits)


# -- policy versions in one run ------------------------------------------------

HOSPITAL_TEXT = "\n".join(
    (POLICY_DIR / name).read_text() for name in ("listing1.ncl", "listing1_benign.ncl")
)


def hospital_network(text):
    topo = load_topology(TOPOLOGY_DIR / "hospital.yaml")
    return Network(topo, compile_program(parse(text), topo)), topo


# a new tag named ahead of the others: a fresh compile gives Host2,
# Top_Secret and PACS other bits
RELABELLED = "label_host(ip=Host1, label={Host1, Audit})\n" + HOSPITAL_TEXT


def test_a_live_pid_keeps_its_verdict_across_an_update_that_renumbers_tags():
    fresh, topo = hospital_network(RELABELLED)
    fresh.agents["Host2"].spawn(200)
    want = fresh.send_flow(flow_id="f", src="Host2", dst="PACS", at_ns=1 * MS, pid=200)
    fresh.run()
    assert (want.delivered, want.sent) == (3, 3)

    net, _ = hospital_network(HOSPITAL_TEXT)
    net.agents["Host2"].spawn(200)  # before the update
    new = compile_program(parse(RELABELLED), topo, net.control.compiled)
    net.schedule_call(1, "policy-update", lambda: net.control.apply_update(net.switches, new))
    rec = net.send_flow(flow_id="f", src="Host2", dst="PACS", at_ns=1 * MS, pid=200)
    net.run()
    assert (rec.delivered, rec.sent) == (want.delivered, want.sent)


def test_an_update_that_renumbers_the_running_tags_is_refused_before_any_switch_swaps():
    net, topo = hospital_network(HOSPITAL_TEXT)
    running = net.control.compiled
    configs = {sid: sw.config for sid, sw in net.switches.items()}
    with pytest.raises(DifcnetError) as exc:
        net.control.apply_update(net.switches, compile_program(parse(RELABELLED), topo))
    assert str(exc.value) == (
        "update refused, it renumbers the policy in force: tag Host2 (index 1 -> 2), "
        "tag Top_Secret (index 2 -> 3), tag PACS (index 3 -> 4)"
    )
    assert net.control.compiled is running
    assert all(sw.config is configs[sid] for sid, sw in net.switches.items())


def test_an_update_that_gives_a_running_tag_index_to_another_name_is_refused():
    """A fresh compile of the same text with Top_Secret renamed Audit gives
    Audit Top_Secret's index, so a pid stamped with Top_Secret's bit would
    read as Audit: the new numbering lacks a running tag."""
    def state(net):
        agents = {name: (a.host_label, dict(a.files), dict(a.pids)) for name, a in net.agents.items()}
        return net.control.compiled, [id(sw.config) for sw in net.switches.values()], agents

    def refused(net, new):
        before, trace = state(net), list(net.trace)
        with pytest.raises(DifcnetError) as exc:
            net.apply_update(new)
        assert state(net) == before and net.trace == trace
        return str(exc.value)

    net, topo = hospital_network(HOSPITAL_TEXT)
    net.agents["Host2"].spawn(200)
    renamed = compile_program(parse(HOSPITAL_TEXT.replace("Top_Secret", "Audit")), topo)
    assert renamed.registry.name_to_id["Audit"] == 2
    assert refused(net, renamed) == (
        "update refused, it renumbers the policy in force: tag Top_Secret (index 2 -> missing)"
    )
    # likewise a tracked file that a fresh compile no longer tracks
    net = lan_network(policy=LAN_POLICY + "label_file(ip=A, file=/f)\n")
    assert refused(net, compile_program(parse(LAN_POLICY), net.topology)) == (
        "update refused, it renumbers the policy in force: file /f@A (tracker 1 -> missing)"
    )


ENTERPRISE_TEXT = "\n".join(
    (POLICY_DIR / name).read_text() for name in ("listing3.ncl", "listing3_benign.ncl")
) + "\nif match(dst_ip==external_network) then allow\n"


def test_a_tracked_file_keeps_its_tracker_id_across_an_update():
    """Server1's pid reads the sensitive file and sends to Dev_Admin's pid,
    which sends to external. An update that tracks another file first must
    not give the sensitive file another tracker id: the agents stamp the old
    one, and the outbound flow would leave the network."""
    topo = load_topology(TOPOLOGY_DIR / "enterprise.yaml")
    other = "label_file(ip=Server1, file=/server1/other)\n" + ENTERPRISE_TEXT

    def outbound(update):
        net = Network(topo, compile_program(parse(ENTERPRISE_TEXT), topo))
        server, admin = net.agents["Server1"], net.agents["Dev_Admin"]
        server.spawn(100)
        admin.spawn(300)
        server.read(100, server.inode_of("/server1/sensitive_file"))
        net.send_flow(flow_id="in", src="Server1", dst="Dev_Admin", at_ns=1 * MS, pid=100,
                      accept_pid=300)
        if update:
            new = compile_program(parse(other), topo, net.control.compiled)
            assert new.file_trackers[("Server1", "/server1/other")] == 2
            net.schedule_call(50 * MS, "policy-update",
                              lambda: net.control.apply_update(net.switches, new))
        rec = net.send_flow(flow_id="out", src="Dev_Admin", dst="external", at_ns=100 * MS,
                            pid=300)
        net.run()
        assert admin.pids[300][1] == 1  # the tracker it read, through Server1's flow
        return rec.delivered, rec.dropped, [line for line in net.trace if " drop " in line]

    delivered, dropped, drops = outbound(update=False)
    assert (delivered, dropped) == (0, 3)
    assert drops[0].endswith(" S1 drop 10.0.3.10:41000>203.0.113.10:80/6 rule@1")
    assert outbound(update=True) == (delivered, dropped, drops)
    # compiled afresh, the sensitive file would be tracker 2; the update is refused
    net = Network(topo, compile_program(parse(ENTERPRISE_TEXT), topo))
    moved = r"file /server1/sensitive_file@Server1 \(tracker 1 -> 2\)$"
    with pytest.raises(DifcnetError, match=moved):
        net.control.apply_update(net.switches, compile_program(parse(other), topo))


# -- open verdict bugs ---------------------------------------------------------
# Each test states the verdict the simulator should give; each fails today.
# The change that fixes a bug turns its test into a plain one.


@pytest.mark.xfail(strict=True, reason="a bare UDP packet is never initial")
def test_an_unlabelled_udp_flow_is_admitted_like_tcp_and_icmp():
    net, _ = hospital_network("if match(dst_ip==any) then allow\n")
    net.agents["Host1"].spawn(100)
    flows = [
        net.send_flow(flow_id=protocol, src="Host1", dst="PACS", at_ns=(k + 1) * MS, pid=100,
                      protocol=protocol, src_port=41000 + k)
        for k, protocol in enumerate(("tcp", "icmp", "udp"))
    ]
    net.run()
    assert [(rec.flow_id, rec.delivered) for rec in flows] == [
        ("tcp", 3), ("icmp", 3), ("udp", 3)
    ]
