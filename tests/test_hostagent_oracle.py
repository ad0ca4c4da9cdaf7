"""The host agent against a reference: the earlier agent, which kept a
process's and a file's label and tracker in parallel dicts of `Label`
objects, an acknowledged-UDP-flow set beside the UDP counts, and wrote the
label-and-tracker rule once per operation. Hypothesis draws scripts on one
to three agents that share one `SeqSource` and runs each on both; after
every step the raised error, the new events, the returned packet and every
process, file, pending-flow and UDP state must be equal."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from difcnet.errors import PidReuseViolation, UnknownEntry, UnknownInode
from difcnet.header import DifcHeader, FlowKey
from difcnet.hostagent import (
    FIRST_AUTO_INODE,
    HostAgent,
    SeqSource,
    file_entity,
    flow_entity,
    host_entity,
    pid_entity,
)
from difcnet.labels import Label, tag_bit
from difcnet.packets import PROTO_ICMP, PROTO_TCP, PROTO_UDP, SimPacket, TcpFlags

# -- the reference agent -----------------------------------------------------


def union(a: Label, b: Label) -> Label:
    return Label(a.bits | b.bits)


class RefAgentEvent:
    __slots__ = (
        "seq", "time_ns", "host", "kind", "pid", "inode", "path", "flow",
        "label_bits", "tracker", "source", "target",
    )

    def __init__(
        self, seq, time_ns, host, kind, pid=0, inode=0, path="", flow="",
        label_bits=0, tracker=0,
    ):
        self.seq = seq
        self.time_ns = time_ns
        self.host = host
        self.kind = kind
        self.pid = pid
        self.inode = inode
        self.path = path
        self.flow = flow
        self.label_bits = label_bits
        self.tracker = tracker
        if kind == "send":
            self.source, self.target = pid_entity(host, pid), flow_entity(flow)
        elif kind == "accept":
            self.source, self.target = flow_entity(flow), pid_entity(host, pid)
        elif kind == "read":
            self.source, self.target = file_entity(host, inode), pid_entity(host, pid)
        elif kind == "write" or kind == "create":
            self.source, self.target = pid_entity(host, pid), file_entity(host, inode)
        elif kind == "spawn":
            self.source, self.target = host_entity(host), pid_entity(host, pid)
        elif kind == "label-file":
            self.source, self.target = host_entity(host), file_entity(host, inode)
        else:
            self.source = self.target = None

    def __repr__(self):
        return (
            f"AgentEvent(seq={self.seq!r}, time_ns={self.time_ns!r}, host={self.host!r}, "
            f"kind={self.kind!r}, pid={self.pid!r}, inode={self.inode!r}, path={self.path!r}, "
            f"flow={self.flow!r}, label_bits={self.label_bits!r}, tracker={self.tracker!r})"
        )


class RefHostAgent:
    def __init__(self, host, ip, *, seq_source, udp_label_prefix):
        self.host = host
        self.ip = ip
        self.host_label = Label(0)
        self.pid_labels = {}
        self.pid_trackers = {}
        self.file_labels = {}
        self.file_trackers = {}
        self.file_paths = {}
        self.in_labels = {}
        self.udp_sent = {}
        self.udp_acked = set()
        self.udp_label_prefix = udp_label_prefix
        self._next_inode = FIRST_AUTO_INODE
        self._seq = seq_source
        self.events = []

    def _emit(self, time_ns, kind, **fields):
        self.events.append(RefAgentEvent(self._seq.next(), time_ns, self.host, kind, **fields))

    def initialize(self, label, files=(), now_ns=0):
        self.host_label = label
        for path, tracker in files:
            inode = self._bind(path)
            self.file_labels[inode] = union(self.file_labels.get(inode, Label(0)), label)
            self.file_trackers[inode] = tracker
            self._emit(
                now_ns, "label-file", inode=inode, path=path,
                label_bits=self.file_labels[inode].bits, tracker=tracker,
            )
        self._emit(now_ns, "label-init", label_bits=label.bits)

    def _bind(self, path):
        inode = self.file_paths.get(path)
        if inode is None:
            inode = self._next_inode
            self._next_inode += 1
            self.file_paths[path] = inode
            self.file_labels.setdefault(inode, Label(0))
            self.file_trackers.setdefault(inode, 0)
        return inode

    def inode_of(self, path):
        inode = self.file_paths.get(path)
        if inode is None:
            raise UnknownInode(f"{self.host}: no file at {path}")
        return inode

    def spawn(self, pid, now_ns=0):
        if pid in self.pid_labels:
            raise PidReuseViolation(f"{self.host}: pid {pid} is already live")
        self.pid_labels[pid] = self.host_label
        self.pid_trackers[pid] = 0
        self._emit(now_ns, "spawn", pid=pid, label_bits=self.host_label.bits)

    def exit(self, pid, now_ns=0):
        self._require_pid(pid)
        self._emit(now_ns, "exit", pid=pid, label_bits=self.pid_labels[pid].bits)
        del self.pid_labels[pid]
        del self.pid_trackers[pid]

    def _require_pid(self, pid):
        if pid not in self.pid_labels:
            raise UnknownEntry(f"{self.host}: pid {pid} is not live")

    def _require_inode(self, inode):
        if inode not in self.file_labels:
            raise UnknownInode(f"{self.host}: inode {inode} does not exist")

    def read(self, pid, inode, now_ns=0):
        self._require_pid(pid)
        self._require_inode(inode)
        self.pid_labels[pid] = union(self.pid_labels[pid], self.file_labels[inode])
        if self.file_trackers.get(inode, 0):
            self.pid_trackers[pid] = self.file_trackers[inode]
        self._emit(
            now_ns, "read", pid=pid, inode=inode,
            label_bits=self.file_labels[inode].bits,
            tracker=self.file_trackers.get(inode, 0),
        )

    def write(self, pid, inode, now_ns=0):
        self._require_pid(pid)
        self._require_inode(inode)
        self.file_labels[inode] = union(self.file_labels[inode], self.pid_labels[pid])
        if self.pid_trackers.get(pid, 0):
            self.file_trackers[inode] = self.pid_trackers[pid]
        self._emit(
            now_ns, "write", pid=pid, inode=inode,
            label_bits=self.pid_labels[pid].bits,
            tracker=self.pid_trackers.get(pid, 0),
        )

    def create(self, pid, path, now_ns=0):
        self._require_pid(pid)
        inode = self._bind(path)
        self.file_labels[inode] = union(self.file_labels[inode], self.pid_labels[pid])
        if self.pid_trackers.get(pid, 0):
            self.file_trackers[inode] = self.pid_trackers[pid]
        self._emit(
            now_ns, "create", pid=pid, inode=inode, path=path,
            label_bits=self.file_labels[inode].bits,
            tracker=self.file_trackers.get(inode, 0),
        )
        return inode

    def label_outgoing(self, pid, pkt, now_ns=0):
        self._require_pid(pid)
        label = self.pid_labels[pid]
        tracker = self.pid_trackers.get(pid, 0)
        key = pkt.flow_key
        wants_header = pkt.is_initial
        if pkt.protocol == PROTO_UDP and key not in self.udp_acked:
            sent = self.udp_sent.get(key, 0)
            if sent < self.udp_label_prefix:
                wants_header = True
                self.udp_sent[key] = sent + 1
        if wants_header and (label.bits or tracker):
            pkt = replace(pkt, difc=DifcHeader(label.bits, tracker))
        labeled = pkt.evil_bit
        self.events.append(RefAgentEvent(
            self._seq.next(), now_ns, self.host, "send", pid, 0, "", str(key),
            label.bits if labeled else 0, tracker if labeled else 0,
        ))
        return pkt

    def deliver(self, pkt, now_ns=0):
        if pkt.label_ack:
            acked = pkt.flow_key.reversed()
            self.udp_acked.add(acked)
            self._emit(now_ns, "label-ack", flow=str(acked))
            return
        key = pkt.flow_key
        difc = pkt.difc
        if difc is not None:
            label, tracker = self.in_labels.get(key, (Label(0), 0))
            label = union(label, Label(difc.bits))
            if difc.tracker_id:
                tracker = difc.tracker_id
            self.in_labels[key] = (label, tracker)
            got_bits, got_tracker = difc.bits, difc.tracker_id
        else:
            got_bits = got_tracker = 0
        self.events.append(RefAgentEvent(
            self._seq.next(), now_ns, self.host, "deliver", 0, 0, "", str(key),
            got_bits, got_tracker,
        ))

    def accept(self, pid, key, now_ns=0):
        self._require_pid(pid)
        if key not in self.in_labels:
            raise UnknownEntry(f"{self.host}: nothing pending on {key}")
        label, tracker = self.in_labels.pop(key)
        self.pid_labels[pid] = union(self.pid_labels[pid], label)
        if tracker:
            self.pid_trackers[pid] = tracker
        self._emit(
            now_ns, "accept", pid=pid, flow=str(key),
            label_bits=label.bits, tracker=tracker,
        )

    def reboot(self, now_ns=0):
        self.pid_labels.clear()
        self.pid_trackers.clear()
        self.in_labels.clear()
        self.udp_sent.clear()
        self.udp_acked.clear()
        self._emit(now_ns, "restore")
        self._emit(now_ns, "reboot")


# -- drawn scripts -------------------------------------------------------------

IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
PATHS = ("/a", "/b", "/c", "/d")
PIDS = st.integers(1, 3)
PORTS = st.sampled_from((41000, 41001))
BITS = st.sets(st.integers(0, 3)).map(lambda tags: sum(tag_bit(t) for t in tags))
TRACKERS = st.sampled_from((0, 1, 2, 3))
# the packets label_outgoing and deliver are given: an opening or a later
# TCP packet, UDP, or an ICMP request
SHAPES = st.sampled_from(("syn", "ack", "udp", "icmp"))
NOT_LIVE = 9
NO_INODE = FIRST_AUTO_INODE - 1
NO_FLOW = FlowKey(IPS[0], 1, IPS[1], 2, PROTO_TCP)


def _packet(shape, src_ip, sport, dst_ip, difc=None):
    proto = {"syn": PROTO_TCP, "ack": PROTO_TCP, "udp": PROTO_UDP, "icmp": PROTO_ICMP}[shape]
    return SimPacket(
        src_ip=src_ip, dst_ip=dst_ip, src_port=sport, dst_port=80, protocol=proto,
        tcp_flags={"syn": TcpFlags.SYN, "ack": TcpFlags.ACK}.get(shape, TcpFlags.NONE),
        difc=difc,
    )


# a pid, inode or pending flow is drawn as a pick: when the step runs, pick
# i names the (i mod n)-th of the n the reference agent holds, and MISSING
# (or any pick when it holds none) names one it does not hold
MISSING = 4
PICK = st.integers(0, MISSING)
OTHER = st.integers(0, 2)  # another agent, taken modulo the number of agents
FILES = st.lists(st.tuples(st.sampled_from(PATHS), TRACKERS), max_size=3)  # 0: no tracker
ARGS = {
    "initialize": st.tuples(BITS, FILES),
    "spawn": st.tuples(PIDS),
    "exit": st.tuples(PICK),
    "read": st.tuples(PICK, PICK),
    "write": st.tuples(PICK, PICK),
    "create": st.tuples(PICK, st.sampled_from(PATHS)),
    "send": st.tuples(PICK, OTHER, SHAPES, PORTS),
    "deliver": st.tuples(OTHER, SHAPES, PORTS, st.none() | st.tuples(BITS, TRACKERS)),
    "ack": st.tuples(OTHER, PORTS),
    "accept": st.tuples(PICK, PICK),
    "reboot": st.tuples(),
}
# the steps that move labels are drawn more often than those that clear
# state, so that a script builds up trackers to join
KINDS = (*ARGS, "spawn", "read", "read", "write", "send", "deliver", "accept")
STEP = st.sampled_from(KINDS).flatmap(lambda kind: ARGS[kind].map(lambda args: (kind, *args)))


@st.composite
def scripts(draw):
    """(agents, UDP label prefix, steps), each step (agent index, step).
    Each agent starts initialized, with pids 1 and 2 live, and then runs
    the drawn steps."""
    n = draw(st.integers(1, 3))
    start = [(h, draw(ARGS["initialize"].map(lambda a: ("initialize", *a)))) for h in range(n)]
    start += [(h, ("spawn", pid)) for h in range(n) for pid in (1, 2)]
    steps = draw(st.lists(st.tuples(st.integers(0, n - 1), STEP), min_size=10, max_size=40))
    return n, draw(st.integers(0, 3)), start + steps


def _picked(held, i, missing):
    held = list(held)
    return held[i % len(held)] if held and i != MISSING else missing


def _resolve(refs, h, step):
    """The step with its picks replaced by what they name, and the other
    agent it names taken modulo the number of agents."""
    ref = refs[h]
    kind, *args = step
    if kind in ("exit", "read", "write", "create", "send", "accept"):
        args[0] = _picked(ref.pid_labels, args[0], NOT_LIVE)
    if kind in ("read", "write"):
        args[1] = _picked(ref.file_labels, args[1], NO_INODE)
    elif kind == "accept":
        args[1] = _picked(ref.in_labels, args[1], NO_FLOW)
    elif kind == "send":
        args[1] %= len(refs)
    elif kind in ("deliver", "ack"):
        args[0] %= len(refs)
    return (kind, *args)


def _apply(agents, h, step, now):
    """Runs one step on agent `h` of one world and returns what it returned
    or raised. A sent packet is delivered to the agent it is addressed to."""
    kind, agent = step[0], agents[h]
    try:
        if kind == "initialize":
            return agent.initialize(Label(step[1]), tuple(step[2]), now_ns=now)
        if kind in ("spawn", "exit"):
            return getattr(agent, kind)(step[1], now_ns=now)
        if kind in ("read", "write", "create"):
            return getattr(agent, kind)(step[1], step[2], now_ns=now)
        if kind == "send":
            _, pid, dst, shape, sport = step
            pkt = agent.label_outgoing(pid, _packet(shape, agent.ip, sport, IPS[dst]), now_ns=now)
            agents[dst].deliver(pkt, now_ns=now)
            return pkt
        if kind == "deliver":
            _, src, shape, sport, header = step
            difc = None if header is None else DifcHeader(*header)
            return agent.deliver(_packet(shape, IPS[src], sport, agent.ip, difc), now_ns=now)
        if kind == "ack":  # the switch acknowledges the UDP flow agent -> src
            return agent.deliver(SimPacket(
                src_ip=IPS[step[1]], dst_ip=agent.ip, src_port=80, dst_port=step[2],
                protocol=PROTO_UDP, label_ack=True,
            ), now_ns=now)
        if kind == "accept":
            return agent.accept(step[1], step[2], now_ns=now)
        return agent.reboot(now_ns=now)
    except (PidReuseViolation, UnknownEntry, UnknownInode) as exc:
        return type(exc), str(exc)


def _event(e):
    return (
        e.seq, e.time_ns, e.host, e.kind, e.pid, e.inode, e.path, e.flow,
        e.label_bits, e.tracker, e.source, e.target, repr(e),
    )


def _udp_budget(agent, acked=frozenset()):
    """Labelled UDP packets each flow may still send."""
    budget = {k: max(agent.udp_label_prefix - n, 0) for k, n in agent.udp_sent.items()}
    return budget | {k: 0 for k in acked}


def _ref_state(ref):
    return (
        ref.host_label.bits,
        {pid: (label.bits, ref.pid_trackers[pid]) for pid, label in ref.pid_labels.items()},
        {inode: (label.bits, ref.file_trackers[inode]) for inode, label in ref.file_labels.items()},
        ref.file_paths,
        {key: (label.bits, tracker) for key, (label, tracker) in ref.in_labels.items()},
        _udp_budget(ref, ref.udp_acked),
    )


def _state(agent):
    return (
        agent.host_label, agent.pids, agent.files, agent.file_paths, agent.in_labels,
        _udp_budget(agent),
    )


@settings(max_examples=300, deadline=None)
@given(scripts())
def test_the_agent_equals_the_reference_step_by_step(script):
    n, prefix, steps = script
    ref_seq, seq = SeqSource(), SeqSource()
    refs = [
        RefHostAgent(f"H{i}", IPS[i], seq_source=ref_seq, udp_label_prefix=prefix)
        for i in range(n)
    ]
    agents = [
        HostAgent(f"H{i}", IPS[i], seq_source=seq, udp_label_prefix=prefix) for i in range(n)
    ]
    for t, (h, drawn) in enumerate(steps, start=1):
        step = _resolve(refs, h, drawn)
        seen = [len(a.events) for a in agents]
        assert _apply(agents, h, step, t) == _apply(refs, h, step, t), (h, step)
        for ref, agent, start in zip(refs, agents, seen):
            assert [_event(e) for e in agent.events[start:]] == [
                _event(e) for e in ref.events[start:]
            ], (h, step)
            assert _state(agent) == _ref_state(ref), (h, step)
