"""Packet ownership: the simulator makes one packet object per sent packet,
each switch rewrites the packet it is given in place, and a hop that only
forwards returns a result the switch shares between hops.

The reference, `CopyingNetwork`, builds each sent packet with the
constructor, hands each switch a fresh copy of the packet and forwards that
copy with a fresh result, so no two events, hops or flows share a packet or
a result: the copying pipeline the simulator had before switches rewrote
packets in place. On drawn LAN policies and flows both must give the same
trace, flow records and agent event logs. During the run, each packet the
simulator under test pops must be held by no other pending event and be no
flow's template, and after it every shared result must still be empty."""

from __future__ import annotations

import heapq
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from difcnet.dataplane import SimParams, Switch
from difcnet.netcl import compile_program, parse
from difcnet.packets import PROTO_TCP, SimPacket, TcpFlags
from difcnet.sim import Network
from difcnet.topology import DEFAULT_LINK_LATENCY_NS
from tests.conftest import make_lan
from tests.test_dataplane import _data, _syn

HOSTS = {"A": 100, "B": 200, "C": 300}  # the pid each host's flows send from
TAGS = ("S0", "S1", "I0")
ACTIONS = (
    "allow", "drop", "alert", "reroute(0)", "reroute(1)",  # both switches have ports 0 and 1
    "modify(ttl=1)", "modify(ttl=2)", "modify(ttl=9)",
    "declassify({S0})", "endorse({I0})",
)
TIMES = st.sampled_from([k * DEFAULT_LINK_LATENCY_NS for k in range(4)])
SHARED_SOURCES = {"transit", "conn_dec", "buffer", "control"}


class CopyingNetwork(Network):
    """The reference: nothing is shared and nothing is rewritten in place."""

    def _on_send(self, at: int, payload) -> None:
        flow, i = payload
        key = flow.rec.key  # not the template, so no edit of it can reach here
        flags = TcpFlags.NONE
        if key.protocol == PROTO_TCP:
            flags = TcpFlags.SYN if i == 0 else TcpFlags.ACK
        pkt = SimPacket(
            key.src_ip, key.dst_ip, key.src_port, key.dst_port, key.protocol, flags, seq=i
        )
        if flow.agent is not None:
            pkt = flow.agent.label_outgoing(flow.pid, pkt, now_ns=at)
        flow.rec.sent += 1
        self._log(at, f"send host={flow.src} {pkt.describe()}")
        self._push(at + DEFAULT_LINK_LATENCY_NS, self._on_switch, (flow.entry, pkt, flow.rec))
        if i + 1 < flow.packets:  # the number send_flow reserved for it
            heapq.heappush(self._heap, (
                flow.at_ns + (i + 1) * flow.gap, flow.base + i + 2, self._on_send, (flow, i + 1),
            ))

    def _on_switch(self, at: int, payload) -> None:
        sid, pkt, rec = payload
        sw = self.switches[sid]
        pkt = replace(pkt)  # the switch rewrites a copy of its own
        sw._passes.clear()  # and builds every result anew
        result = replace(sw.process_packet(pkt, at))
        for line in result.log:
            self._log(at, line)
        for req in result.install_requests:
            for pending in self.control.serve_conndec(req):
                self._push(pending.at_ns, self._on_install, pending)
        for gen in result.generated:
            self._push(at, self._on_switch, (sid, gen, None))
        if result.verdict == "drop":
            if rec is not None:
                rec.outcomes.append((pkt.seq, "dropped", f"{sid}:{result.decision_source}"))
                rec.dropped += 1
        elif result.verdict == "recirculate":
            self._push(at + sw.recirc_delay_ns, self._on_switch, (sid, pkt, rec))
        else:
            target, latency, is_switch = self._next_hops[sid][result.egress_port]
            hop = self._on_switch if is_switch else self._on_deliver
            self._push(at + latency, hop, (target, pkt, rec))


def watch_ownership(net: Network) -> None:
    """Check, at each pop of a switch or deliver event, that its packet is
    held by no other pending event and is no flow's template. The checks
    replace the handlers on the instance, so call this before any flow is
    sent: every event pushed afterwards carries a checking handler."""
    templates: dict[int, SimPacket] = {}  # by id, kept alive so ids stay unique
    on_send = net._on_send

    def send(at, payload):
        first = payload[0].first
        templates[id(first)] = first
        on_send(at, payload)

    def owned(handler):
        def check(at, payload):
            pkt = payload[1]
            assert id(pkt) not in templates, f"t={at}: a flow's template was sent"
            shared = [e for e in net._heap if e[2] in carriers and e[3][1] is pkt]
            assert not shared, f"t={at}: {pkt.describe()} is also held by {shared}"
            handler(at, payload)

        return check

    net._on_send = send
    net._on_switch = owned(net._on_switch)
    net._on_deliver = owned(net._on_deliver)
    carriers = (net._on_switch, net._on_deliver)


def assert_shared_results_untouched(net: Network) -> None:
    for sid, sw in net.switches.items():
        for (source, port), res in sw._passes.items():
            assert source in SHARED_SOURCES, (sid, source)
            assert (res.verdict, res.egress_port, res.decision_source) == ("forward", port, source)
            assert (res.log, res.install_requests, res.generated) == ((), (), ()), (sid, source)


def state(net: Network):
    flows = {
        fid: (rec.sent, rec.delivered, rec.dropped, rec.outcomes)
        for fid, rec in net.flows.items()
    }
    events = {  # AgentEvent compares by identity, so by its fields here
        name: [(e.seq, e.time_ns, e.kind, e.pid, e.inode, e.path, e.flow, e.label_bits, e.tracker)
               for e in agent.events]
        for name, agent in net.agents.items()
    }
    return net.trace, flows, events, net._evseq, net.now


# -- the oracle --------------------------------------------------------------


@st.composite
def rules(draw):
    conjuncts = []
    if draw(st.booleans()):
        conjuncts.append(f"pkt_label contains {{{draw(st.sampled_from(TAGS))}}}")
    src = draw(st.sampled_from([None, "any", *HOSTS]))
    if src is not None:
        conjuncts.append(f"src_ip=={src}")
    dst = draw(st.sampled_from(["any", "external_network", *HOSTS]))
    conjuncts.append(f"dst_ip=={dst}")
    return f"if match({' && '.join(conjuncts)}) then {draw(st.sampled_from(ACTIONS))}"


@st.composite
def policies(draw):
    """Host labels, up to five rules, then maybe a rule for every packet;
    without it, a packet no rule matches meets the default deny."""
    lines = []
    for host in HOSTS:
        tags = draw(st.lists(st.sampled_from(TAGS), max_size=2, unique=True))
        if tags:
            lines.append(f"label_host(ip={host}, label={{{', '.join(tags)}}})")
    lines += draw(st.lists(rules(), max_size=5))
    if draw(st.booleans()):
        lines.append(f"if match(dst_ip==any) then {draw(st.sampled_from(ACTIONS))}")
    return "\n".join(lines) + "\n"


@st.composite
def flows(draw, n):
    src = draw(st.sampled_from([*HOSTS, "external"]))
    dst = draw(st.sampled_from([h for h in (*HOSTS, "external") if h != src]))
    protocol = draw(st.sampled_from(["tcp", "udp", "icmp"]))
    return dict(
        flow_id=f"f{n}",
        src=src,
        dst=dst,
        at_ns=draw(TIMES),
        protocol=protocol,
        src_port=41000 + n,  # one key per flow
        dst_port=0 if protocol == "icmp" else 80,
        pid=HOSTS.get(src) if draw(st.booleans()) else None,
        accept_pid=HOSTS.get(dst) if draw(st.booleans()) else None,
        packets=draw(st.integers(1, 5)),
        gap_ns=draw(st.sampled_from([0, 100_000, 200_000])),
    )


# a short RTT and a small decision buffer, so that installs land within a
# flow, buffer misses recirculate and label acks come back mid-flow
params = st.builds(
    SimParams,
    rtt_ns=st.sampled_from([200_000, 1_000_000]),
    index_bits=st.sampled_from([1, 2, 16]),
    recirc_limit=st.sampled_from([1, 3]),
    rate_limit=st.sampled_from([2, 128]),
    conn_dec_capacity=st.sampled_from([1, 220_000]),
)


def run(cls, policy, flow_specs, p):
    topo = make_lan()
    net = cls(topo, compile_program(parse(policy), topo), p)
    # each host runs its own pid: a flow's accept_pid is used only at its
    # dst, even when a reroute delivers the flow elsewhere
    for name, pid in HOSTS.items():
        net.agents[name].spawn(pid)
    if cls is Network:
        watch_ownership(net)
    for spec in flow_specs:
        net.send_flow(**spec)
    net.run()
    return net


@settings(max_examples=300, deadline=None)
@given(
    policies(),
    st.integers(1, 6).flatmap(lambda k: st.tuples(*(flows(n) for n in range(k)))),
    params,
)
def test_in_place_pipeline_equals_the_copying_reference(policy, flow_specs, p):
    got = run(Network, policy, flow_specs, p)
    want = run(CopyingNetwork, policy, flow_specs, p)
    assert state(got) == state(want)
    assert_shared_results_untouched(got)


# -- the shared results ------------------------------------------------------


def test_a_forward_only_hop_returns_one_shared_result_per_source_and_port():
    topo = make_lan()
    policy = "label_host(ip=A, label={S0})\nif match(dst_ip==C) then allow\n"
    sw = Switch("S2", topo, compile_program(parse(policy), topo).configs["S2"])
    assert sw._passes == {}  # built on first use, not at construction
    transit = [sw.process_packet(_data("10.5.2.11", "203.0.113.10", sport=s), 0)
               for s in (1, 2)]
    assert transit[0] is transit[1] and transit[0].decision_source == "transit"
    # the policy path builds its own result, which it fills in
    admitted = [sw.process_packet(_syn("10.5.2.11", "10.5.2.20", 1, sport=s), 0)
                for s in (3, 4)]
    assert admitted[0] is not admitted[1]
    assert all(len(res.install_requests) == 1 for res in admitted)
    assert set(sw._passes) == {("transit", 0)}
