"""Flow scheduling: `Network.send_flow` pushes a flow's first packet and
each send pushes the next, which must process every event in the order of
pushing every packet up front (the reference below), ties included."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difcnet.errors import DifcnetError
from difcnet.header import FlowKey
from difcnet.netcl import compile_program, parse
from difcnet.packets import PROTO_TCP, SimPacket, TcpFlags
from difcnet.sim import (
    _PROTO_BY_NAME, FLOW_PROTOCOLS, FlowRecord, Network, SimParams, flow_address,
)
from difcnet.topology import DEFAULT_LINK_LATENCY_NS
from tests.conftest import LAN_POLICY, make_lan

MS = 1_000_000


class PerPacketNetwork(Network):
    """The reference schedule: `send_flow` pushes one event per packet of
    the flow before the run, and `_on_send` builds each packet with the
    constructor and looks the flow's record up by id. Endpoints resolve as
    in `Network.send_flow`, because this is the oracle for the schedule,
    not for resolution. Everything else is the simulator under test."""

    def send_flow(
        self,
        *,
        flow_id: str,
        src: str,
        dst: str,
        at_ns: int,
        protocol: str = "tcp",
        src_port: int = 41000,
        dst_port: int = 80,
        pid: int | None = None,
        accept_pid: int | None = None,
        packets: int = 3,
        gap_ns: int | None = None,
    ) -> FlowRecord:
        proto = _PROTO_BY_NAME.get(protocol)
        if proto is None:
            raise DifcnetError(
                f"flow {flow_id!r}: unknown protocol {protocol!r}, "
                f"expected one of {', '.join(FLOW_PROTOCOLS)}"
            )
        gap = self.params.packet_gap_ns if gap_ns is None else gap_ns
        src_ip = flow_address(self.topology, flow_id, "src", src)
        dst_ip = flow_address(self.topology, flow_id, "dst", dst)
        key = FlowKey(src_ip, src_port, dst_ip, dst_port, proto)
        rec = FlowRecord(flow_id, src, dst, key, accept_pid=accept_pid)
        self.flows[flow_id] = rec
        host = self.topology.host_by_ip.get(src_ip)
        entry = host.switch if host is not None else self.topology.gateway
        agent = self.agents[host.name] if pid is not None else None
        for i in range(packets):
            flags = TcpFlags.NONE
            if proto == PROTO_TCP:
                flags = TcpFlags.SYN if i == 0 else TcpFlags.ACK
            self._push(
                at_ns + i * gap,
                self._on_send,
                (src, entry, agent, pid, flow_id, key, flags, i),
            )
        return rec

    def _on_send(self, at: int, payload) -> None:
        src, entry, agent, pid, flow_id, key, flags, seq = payload
        pkt = SimPacket(
            src_ip=key.src_ip, dst_ip=key.dst_ip, src_port=key.src_port,
            dst_port=key.dst_port, protocol=key.protocol, tcp_flags=flags, seq=seq,
        )
        if agent is not None:
            pkt = agent.label_outgoing(pid, pkt, now_ns=at)
        rec = self.flows[flow_id]
        rec.sent += 1
        self._log(at, f"send host={src} {pkt.describe()}")
        self._push(at + DEFAULT_LINK_LATENCY_NS, self._on_switch, (entry, pkt, rec))


def lan(cls, params=None):
    topo = make_lan()
    net = cls(topo, compile_program(parse(LAN_POLICY), topo), params or SimParams())
    net.agents["A"].spawn(100)
    net.agents["B"].spawn(200)
    net.agents["C"].spawn(300)
    return net


def state(net):
    flows = {
        fid: (rec.sent, rec.delivered, rec.dropped, rec.outcomes)
        for fid, rec in net.flows.items()
    }
    events = {
        name: [(e.seq, e.time_ns, e.kind, e.flow, e.label_bits) for e in agent.events]
        for name, agent in net.agents.items()
    }
    return net.trace, flows, events, net._evseq, net.now


# -- the oracle --------------------------------------------------------------

# start times and gaps on the link latency's grid, so sends, hops and
# deliveries of different flows tie on time and break on event number
TIMES = st.sampled_from([k * DEFAULT_LINK_LATENCY_NS for k in range(6)])
SENDERS = {"A": 100, "B": 200, "C": 300, "10.5.2.12": 200}  # the last is B, by address


@st.composite
def flows(draw, prefix):
    src = draw(st.sampled_from(["A", "B", "C", "external", "192.0.2.66", "10.5.2.12"]))
    dst = draw(st.sampled_from([h for h in ("A", "B", "C", "external") if h != src]))
    protocol = draw(st.sampled_from(FLOW_PROTOCOLS))
    pid = SENDERS.get(src) if draw(st.booleans()) else None
    return dict(
        flow_id=f"{prefix}{draw(st.integers(0, 10**6))}",
        src=src,
        dst=dst,
        at_ns=draw(TIMES),
        protocol=protocol,
        src_port=draw(st.sampled_from([41000, 41001])),
        dst_port=0 if protocol == "icmp" else 80,
        pid=pid,
        accept_pid=SENDERS.get(dst) if draw(st.booleans()) else None,
        packets=draw(st.integers(0, 5)),
        gap_ns=draw(st.sampled_from([0, 100_000, 200_000])),
    )


@st.composite
def plans(draw):
    """Flows before the run, calls (some sending a flow mid-run), then
    slices of `run(until_ns=...)`, each followed by more flows. A flow sent
    mid-run starts its drawn time after the clock, since `send_flow`
    refuses a start in the past."""
    before = draw(st.lists(flows("f"), max_size=6))
    calls = draw(st.lists(
        st.tuples(TIMES, st.one_of(st.none(), flows("c"))), max_size=4
    ))
    slices = draw(st.lists(
        st.tuples(st.integers(0, 2 * MS), st.lists(flows("s"), max_size=2)), max_size=3
    ))
    return before, calls, slices


def unique(specs, seen):
    """The specs whose flow ids are new: send_flow rejects a reused id."""
    out = []
    for spec in specs:
        if spec is not None and spec["flow_id"] not in seen:
            seen.add(spec["flow_id"])
            out.append(spec)
    return out


def execute(cls, plan):
    before, calls, slices = plan
    net = lan(cls)
    seen: set = set()

    def send_from_now(spec):
        net.send_flow(**(spec | {"at_ns": net.now + spec["at_ns"]}))

    for spec in unique(before, seen):
        net.send_flow(**spec)
    for k, (at, spec) in enumerate(calls):
        send = unique([spec], seen)
        net.schedule_call(at, f"call {k}", lambda s=send: [send_from_now(x) for x in s])
    for until, more in slices:
        net.run(until_ns=until)
        for spec in unique(more, seen):
            send_from_now(spec)
    net.run()
    return state(net)


@settings(max_examples=300, deadline=None)
@given(plans())
def test_schedule_equals_pushing_every_packet_up_front(plan):
    assert execute(Network, plan) == execute(PerPacketNetwork, plan)


def test_a_mid_run_flow_at_the_clock_keeps_its_order():
    # two calls at 0.4 ms send flows that start then and 0.1 ms later: their
    # sends tie on time with the events flow a already has queued there
    plan = (
        [dict(flow_id="a", src="A", dst="C", at_ns=0, pid=100, packets=4, gap_ns=100_000)],
        [(400_000, dict(flow_id="b", src="B", dst="A", at_ns=0, pid=200, packets=3,
                        gap_ns=0)),
         (400_000, dict(flow_id="c", src="C", dst="B", at_ns=100_000, protocol="udp",
                        packets=4, gap_ns=200_000))],
        [(300_000, [dict(flow_id="d", src="A", dst="B", at_ns=0, protocol="icmp",
                         pid=100, packets=2, gap_ns=0)])],
    )
    assert execute(Network, plan) == execute(PerPacketNetwork, plan)


def test_the_heap_holds_one_send_per_flow():
    net = lan(Network)
    for i in range(10):
        net.send_flow(flow_id=f"f{i}", src="A", dst="C", at_ns=i * MS, pid=100,
                      src_port=41000 + i, packets=1000)
    assert len(net._heap) <= 10
    assert net._evseq == 10 * 1000  # every packet's event number is reserved
    high = 0
    while net._heap:
        net.run(until_ns=net._heap[0][0])
        high = max(high, len(net._heap))
    assert sum(rec.sent for rec in net.flows.values()) == 10_000
    assert high < 100  # the events in flight, not the packets to come


def test_a_flow_of_no_packets_registers_and_schedules_nothing():
    net = lan(Network)
    rec = net.send_flow(flow_id="f", src="A", dst="C", at_ns=MS, pid=100, packets=0)
    assert net.flows == {"f": rec}
    assert not net._heap and net._evseq == 0
    net.run()
    assert (rec.sent, rec.delivered, rec.dropped) == (0, 0, 0)


# -- input checks ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, params, problem",
    [
        ({"packets": -1}, None, "packets must be an integer >= 0, not -1"),
        ({"packets": 2.0}, None, "packets must be an integer >= 0, not 2.0"),
        ({"packets": True}, None, "packets must be an integer >= 0, not True"),
        ({"packets": "3"}, None, "packets must be an integer >= 0, not '3'"),
        ({"gap_ns": -1}, None, "packet gap must be an integer >= 0 ns, not -1"),
        ({"gap_ns": 0.5}, None, "packet gap must be an integer >= 0 ns, not 0.5"),
        ({}, SimParams(packet_gap_ns=-200_000),
         "packet gap must be an integer >= 0 ns, not -200000"),
        ({"flow_id": "used"}, None, "flow id already in use"),
        ({"src_port": 70000}, None, "src_port must be an integer from 0 to 65535, not 70000"),
        ({"dst_port": -1}, None, "dst_port must be an integer from 0 to 65535, not -1"),
        ({"src_port": "80"}, None, "src_port must be an integer from 0 to 65535, not '80'"),
        ({"dst_port": True}, None, "dst_port must be an integer from 0 to 65535, not True"),
        ({"at_ns": -5}, None, "at_ns must be an integer no earlier than now (0 ns), not -5"),
        ({"at_ns": 1.5}, None, "at_ns must be an integer no earlier than now (0 ns), not 1.5"),
        ({"pid": -1}, None, "pid must be an integer >= 0 or null, not -1"),
        ({"pid": "100"}, None, "pid must be an integer >= 0 or null, not '100'"),
        ({"pid": True}, None, "pid must be an integer >= 0 or null, not True"),
        ({"accept_pid": -1}, None, "accept_pid must be an integer >= 0 or null, not -1"),
        ({"accept_pid": 300.0}, None, "accept_pid must be an integer >= 0 or null, not 300.0"),
        ({"src": "external"}, None, "pid 100 needs a host as src, not 'external'"),
        ({"src": "192.0.2.66"}, None, "pid 100 needs a host as src, not '192.0.2.66'"),
        ({"dst": "external", "accept_pid": 300}, None,
         "accept_pid 300 needs a host as dst, not 'external'"),
        ({"dst": "192.0.2.66", "accept_pid": 300}, None,
         "accept_pid 300 needs a host as dst, not '192.0.2.66'"),
    ],
    ids=["negative", "float", "bool", "text", "negative-gap", "float-gap",
         "negative-default-gap", "reused-id", "src-port-too-big", "negative-dst-port",
         "text-port", "bool-port", "negative-start", "float-start", "negative-pid", "text-pid",
         "bool-pid", "negative-accept-pid", "float-accept-pid", "pid-from-external",
         "pid-from-outside", "accept-pid-to-external", "accept-pid-to-outside"],
)
def test_send_flow_rejects_bad_input_before_touching_state(kwargs, params, problem):
    net = lan(Network, params)
    used = net.send_flow(flow_id="used", src="B", dst="C", at_ns=0, pid=200, packets=2,
                         gap_ns=100_000)
    before = (dict(net.flows), list(net._heap), net._evseq)
    spec = dict(flow_id="f", src="A", dst="C", at_ns=MS, pid=100) | kwargs
    with pytest.raises(DifcnetError) as exc:
        net.send_flow(**spec)
    assert str(exc.value) == f"flow {spec['flow_id']!r}: {problem}"
    assert (dict(net.flows), list(net._heap), net._evseq) == before
    net.run()
    assert net.flows["used"] is used and used.sent == 2



def test_a_start_before_the_clock_is_refused_before_touching_state():
    net = lan(Network)
    net.send_flow(flow_id="a", src="A", dst="C", at_ns=0, pid=100, packets=4, gap_ns=100_000)
    net.run(until_ns=250_000)
    assert net.now == 200_000  # the last event run
    before = (dict(net.flows), list(net._heap), net._evseq)
    with pytest.raises(DifcnetError) as exc:
        net.send_flow(flow_id="b", src="B", dst="C", at_ns=199_999, pid=200)
    assert str(exc.value) == (
        "flow 'b': at_ns must be an integer no earlier than now (200000 ns), not 199999"
    )
    with pytest.raises(DifcnetError) as exc:
        net.schedule_call(100_000, "late", lambda: None)
    assert str(exc.value) == (
        "call 'late': at_ns must be an integer no earlier than now (200000 ns), not 100000"
    )
    assert (dict(net.flows), list(net._heap), net._evseq) == before
    net.send_flow(flow_id="b", src="B", dst="C", at_ns=200_000, pid=200)  # now is not past
    net.schedule_call(200_000, "on time", lambda: None)
    net.run()
    assert net.flows["b"].sent == 3 and "t=200000 on time" in net.trace
