"""Deterministic packet-level event simulator.

Single-threaded discrete event loop over integer nanosecond timestamps.
Ties break on an event number handed out in scheduling order, and nothing
in a trace line depends on object identity or wall-clock time, so two runs
of the same scenario produce byte-identical traces.

Every heap entry is (time, event number, handler, payload), and `run`
calls `handler(time, payload)`. A switch or delivery event's payload is
(target, packet, record): the `FlowRecord` of the flow that sent the
packet, or None for a label ack, which a switch makes and no flow sends.
So each drop and delivery is counted on the flow that sent the packet,
even when two flows share a 5-tuple; the switches and the receiving
agent then see one connection.

Flows are scheduled one packet at a time. `send_flow` pushes only a flow's
first send event, and each send event pushes the flow's next packet, so
the heap holds one pending send per unfinished flow plus the events in
flight rather than every future packet. The order is exactly that of
pushing every packet up front:

- `send_flow` reserves the flow's event numbers when it is called, one
  per packet, so packet i carries the key (at_ns + i*gap, base + i + 1)
  whenever it is pushed: the key it would get if all were pushed at once.
- Along a flow the keys rise, because the gap is at least 0 and the
  reserved numbers rise. So at any moment the flow's pending packet has
  the smallest key of the flow's packets still to send, and the heap's
  minimum is the one an up-front heap would have. Each pop therefore
  takes the same event, ties included, and the handlers push the same
  events with the same numbers.
- Every push, reserved or not, advances `_evseq`, so it still counts
  every event the run makes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from .controlplane import ControlPlane
from .dataplane import InstallRequest, SimParams, Switch
from .errors import DifcnetError, UnknownName
from .hostagent import HostAgent, SeqSource
from .netcl.compiler import CompiledPolicy, UpdatePlan
from .packets import PROTO_NAMES, PROTO_TCP, SimPacket, TcpFlags
from .topology import DEFAULT_LINK_LATENCY_NS, PID, PORT, Topology, is_count

_heappush = heapq.heappush
_PROTO_BY_NAME = {name: proto for proto, name in PROTO_NAMES.items()}
FLOW_PROTOCOLS = tuple(_PROTO_BY_NAME)  # the names send_flow accepts


@dataclass
class FlowRecord:
    flow_id: str
    src: str
    dst: str
    key: object
    accept_pid: int | None = None
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    outcomes: list[tuple[int, str, str]] = field(default_factory=list)  # seq, status, where

    @property
    def verdict(self) -> str:
        return "allow" if self.delivered > 0 else "drop"


def flow_address(topology: Topology, flow_id: str, field: str, name: str) -> str:
    """The one address a flow endpoint names, through `Topology.resolve`.
    A name that is unknown or stands for several addresses is an error
    naming the flow and the field."""
    try:
        ips = topology.resolve(name)
    except UnknownName as exc:
        raise DifcnetError(f"flow {flow_id!r}: {field}: {exc}") from None
    if len(ips) != 1:
        raise DifcnetError(
            f"flow {flow_id!r}: {field}: {name!r} names {len(ips)} addresses, "
            "a flow endpoint names one"
        )
    return ips[0]


class _FlowPlan(NamedTuple):
    """What is fixed for every packet of one flow, worked out by
    `send_flow`. Packet i (from 0) is sent at at_ns + i*gap with the event
    number base + i + 1. `first` is the flow's template and is never sent:
    every packet is a copy of it with its own seq (`with_seq`), packet 0
    with the template's TCP flags and every later one with `later`, so no
    hop can rewrite the template."""

    src: str
    entry: str  # the switch the flow's packets enter at
    agent: HostAgent | None  # labels the packets, when the flow has a pid
    pid: int | None
    rec: FlowRecord
    first: SimPacket
    later: TcpFlags
    at_ns: int
    gap: int
    packets: int
    base: int


class Network:
    def __init__(
        self,
        topology: Topology,
        compiled: CompiledPolicy,
        params: SimParams | None = None,
    ) -> None:
        self.topology = topology
        self.params = p = params or SimParams()
        self.seq_source = SeqSource()
        self.agents: dict[str, HostAgent] = {
            h.name: HostAgent(
                h.name,
                h.ip,
                seq_source=self.seq_source,
                udp_label_prefix=p.udp_label_prefix,
            )
            for h in topology.hosts
        }
        self.switches: dict[str, Switch] = {
            s: Switch(s, topology, compiled.configs[s], p) for s in topology.switches
        }
        self._next_hops = {s: topology.next_hops(s) for s in self.switches}
        self.control = ControlPlane(topology, compiled, p.rtt_ns)
        self.now = 0
        self._heap: list = []
        self._evseq = 0
        self.trace: list[str] = []
        self.flows: dict[str, FlowRecord] = {}
        self.external_delivered = 0  # flow packets (not label acks) that left the network
        self._label_agents(None, compiled, 0)

    # -- wiring -----------------------------------------------------------

    def _label_agents(self, before: CompiledPolicy | None, after: CompiledPolicy, at: int) -> None:
        """Puts `after`'s labels in force on the agents at time `at`, when the
        network is built (`before` is None) and at each update: in host-name
        order, each host whose label differs from `before`'s, or on which
        `after` tracks files that `before` did not, gets its label and those
        files."""
        labels, tracked = (before.host_labels, before.file_trackers) if before else ({}, {})
        files: dict[str, list[tuple[str, int]]] = {}
        for (name, path), tracker in sorted(after.file_trackers.items()):
            if (name, path) not in tracked:
                files.setdefault(name, []).append((path, tracker))
        for host in sorted(self.topology.hosts, key=attrgetter("name")):
            bound = files.get(host.name, ())
            label = after.label_of_ip(host.ip)
            if label.bits == labels.get(host.ip, 0) and not bound:
                continue
            self.agents[host.name].initialize(label, tuple(bound), now_ns=at)
            self._log(at, f"label-init host={host.name} "
                          f"label={after.registry.format_label(label.bits)}")
            for path, tracker in bound:
                self._log(at, f"label-file host={host.name} path={path} tracker={tracker}")

    def _push(self, at_ns: int, handler, payload) -> None:
        self._evseq += 1
        _heappush(self._heap, (at_ns, self._evseq, handler, payload))

    def _log(self, at_ns: int, text: str) -> None:
        self.trace.append(f"t={at_ns} {text}")

    def _check_time(self, what: str, at_ns) -> None:
        if not (is_count(at_ns) and at_ns >= self.now):
            raise DifcnetError(
                f"{what}: at_ns must be an integer no earlier than now ({self.now} ns), "
                f"not {at_ns!r}"
            )

    def schedule_call(self, at_ns: int, label: str, fn) -> None:
        self._check_time(f"call {label!r}", at_ns)
        self._push(at_ns, self._on_call, (label, fn))

    # -- traffic entry ----------------------------------------------------

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
        if not is_count(packets):
            raise DifcnetError(
                f"flow {flow_id!r}: packets must be an integer >= 0, not {packets!r}"
            )
        gap = self.params.packet_gap_ns if gap_ns is None else gap_ns
        if not is_count(gap):
            raise DifcnetError(
                f"flow {flow_id!r}: packet gap must be an integer >= 0 ns, not {gap!r}"
            )
        for name, value, kind in (
            ("src_port", src_port, PORT), ("dst_port", dst_port, PORT),
            ("pid", pid, PID), ("accept_pid", accept_pid, PID),
        ):
            if not kind.test(value):
                raise DifcnetError(f"flow {flow_id!r}: {name} must be {kind.words}, not {value!r}")
        self._check_time(f"flow {flow_id!r}", at_ns)
        if flow_id in self.flows:
            raise DifcnetError(f"flow {flow_id!r}: flow id already in use")
        src_ip = flow_address(self.topology, flow_id, "src", src)
        dst_ip = flow_address(self.topology, flow_id, "dst", dst)
        # a flow from a host's address, however named, enters at its switch and is
        # labelled by its agent (see _on_send); any other enters at the gateway
        host = self.topology.host_by_ip.get(src_ip)
        if host is None and pid is not None:
            raise DifcnetError(f"flow {flow_id!r}: pid {pid} needs a host as src, not {src!r}")
        if accept_pid is not None and dst_ip not in self.topology.host_by_ip:
            # no agent receives the flow, so nothing would ever accept it
            raise DifcnetError(
                f"flow {flow_id!r}: accept_pid {accept_pid} needs a host as dst, not {dst!r}"
            )
        flags, later = (
            (TcpFlags.SYN, TcpFlags.ACK) if proto == PROTO_TCP else (TcpFlags.NONE, TcpFlags.NONE)
        )
        # the template: every packet is a copy of it, so the flow has one key
        first = SimPacket(src_ip, dst_ip, src_port, dst_port, proto, flags)
        rec = FlowRecord(flow_id, src, dst, first.flow_key, accept_pid=accept_pid)
        self.flows[flow_id] = rec
        if packets == 0:
            return rec
        entry = host.switch if host is not None else self.topology.gateway
        agent = self.agents[host.name] if pid is not None else None
        base = self._evseq
        self._evseq += packets  # one number per packet, see the module docstring
        flow = _FlowPlan(src, entry, agent, pid, rec, first, later, at_ns, gap, packets, base)
        _heappush(self._heap, (at_ns, base + 1, self._on_send, (flow, 0)))
        return rec

    def apply_update(self, compiled: CompiledPolicy) -> UpdatePlan:
        """Puts policy version `compiled` in force now and returns its plan:
        the switches by `ControlPlane.apply_update`, which refuses a
        renumbering before anything changes, then the agents by the rule
        the network was built with."""
        before = self.control.compiled
        plan = self.control.apply_update(self.switches, compiled)
        self._label_agents(before, compiled, self.now)
        return plan

    def gc_conn_dec(self, idle_ns: int) -> int:
        """Removes the conn_dec entries idle for longer than `idle_ns`, logs
        how many and returns the count."""
        removed = sum(sw.conn_dec.gc(self.now, idle_ns) for sw in self.switches.values())
        self._log(self.now, f"conn-dec-gc removed={removed}")
        return removed

    # -- event loop -------------------------------------------------------

    def run(self, until_ns: int | None = None) -> None:
        heap, pop = self._heap, heapq.heappop
        while heap:
            if until_ns is not None and heap[0][0] > until_ns:
                break
            at, _, handler, payload = pop(heap)
            self.now = at
            handler(at, payload)

    def _on_send(self, at: int, payload) -> None:
        flow, i = payload
        src, entry, agent, pid, rec, first, later, at_ns, gap, packets, base = flow
        pkt = first.with_seq(i, later if i else first.tcp_flags)
        if agent is not None:
            pkt = agent.label_outgoing(pid, pkt, now_ns=at)
        rec.sent += 1
        self.trace.append(f"t={at} send host={src} {pkt.describe()}")
        heap = self._heap
        self._evseq = seq = self._evseq + 1
        _heappush(heap, (at + DEFAULT_LINK_LATENCY_NS, seq, self._on_switch, (entry, pkt, rec)))
        i += 1
        if i < packets:
            _heappush(heap, (at_ns + i * gap, base + i + 1, self._on_send, (flow, i)))

    def _on_switch(self, at: int, payload) -> None:
        sid, pkt, rec = payload
        sw = self.switches[sid]
        result = sw.process_packet(pkt, at)
        for line in result.log:
            self._log(at, line)
        for req in result.install_requests:
            for pending in self.control.serve_conndec(req):
                self._push(pending.at_ns, self._on_install, pending)
        for gen in result.generated:  # label acks, which belong to no flow
            self._push(at, self._on_switch, (sid, gen, None))
        if result.verdict == "drop":
            if rec is not None:
                rec.outcomes.append((pkt.seq, "dropped", f"{sid}:{result.decision_source}"))
                rec.dropped += 1
        elif result.verdict == "recirculate":
            self._push(at + sw.recirc_delay_ns, self._on_switch, (sid, pkt, rec))
        else:
            target, latency, is_switch = self._next_hops[sid][result.egress_port]
            self._evseq = seq = self._evseq + 1
            _heappush(self._heap, (
                at + latency, seq, self._on_switch if is_switch else self._on_deliver,
                (target, pkt, rec),
            ))

    def _on_deliver(self, at: int, payload) -> None:
        target, pkt, rec = payload
        agent = self.agents.get(target)
        if agent is not None:
            agent.deliver(pkt, now_ns=at)
        if rec is not None:  # None: a label ack
            key = pkt.flow_key
            if agent is None:
                self.external_delivered += 1
            elif (
                rec.accept_pid is not None and agent.ip == key.dst_ip and key in agent.in_labels
            ):  # a reroute may deliver the flow to a host it is not addressed to
                agent.accept(rec.accept_pid, key, now_ns=at)
            rec.outcomes.append((pkt.seq, "delivered", target))
            rec.delivered += 1
        self.trace.append(f"t={at} deliver host={target} {pkt.describe()}")

    def _on_install(self, at: int, pending: InstallRequest) -> None:
        ok = self.control.perform_install(self.switches, pending)
        state = "conn-dec" if ok else "conn-dec-failed"
        self._log(
            at,
            f"install {state} switch={pending.switch_id} key={pending.key} "
            f"decision={pending.decision.value}",
        )

    def _on_call(self, at: int, payload) -> None:
        label, fn = payload
        if label:
            self._log(at, label)
        fn()
