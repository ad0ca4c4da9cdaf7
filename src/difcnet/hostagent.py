"""Host-side reference monitor. Tracks per-process and per-file labels,
stamps outgoing initial packets with the sender's label header, and folds
received labels into processes when they accept the data.

Every process, file and pending flow has one state, (label bits, tracker
id or 0), and every flow of data between them follows one rule, `_join`:
the entity that takes in the data takes the union of the labels and the
source's tracker, when the source has one.

The agent never blocks traffic itself; admission is the switches' job. Its
obligations are (a) truthful labeling of what leaves the host and (b) label
bookkeeping for what arrives, so taint survives file and process hops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    PidReuseViolation,
    UnknownEntry,
    UnknownInode,
)
from .header import DifcHeader, FlowKey
from .labels import Label
from .packets import PROTO_UDP, SimPacket

FIRST_AUTO_INODE = 10_001
DEFAULT_UDP_LABEL_PREFIX = 3


class SeqSource:
    """Shared monotonically increasing sequence for a total event order
    across all agents in one run."""

    def __init__(self) -> None:
        self._n = 0

    def next(self) -> int:
        self._n += 1
        return self._n


# Provenance entities. They are defined here so an event can name its edge
# when it is made; provenance re-exports them.
Entity = tuple


def host_entity(host: str) -> Entity:
    return ("host", host)


def pid_entity(host: str, pid: int) -> Entity:
    return ("pid", host, pid)


def file_entity(host: str, inode: int) -> Entity:
    return ("file", host, inode)


def flow_entity(key: str) -> Entity:
    return ("flow", key)


State = tuple  # (label bits, tracker id or 0)


def _join(into: State, source: State) -> State:
    """The state of an entity after it takes in data from `source`."""
    return into[0] | source[0], source[1] or into[1]


@dataclass(slots=True, eq=False)
class AgentEvent:
    """One agent log record. Treat it as immutable: the influence edge is
    computed when it is made, `source` -> `target`, both None for kinds
    that move no state between entities (label-init, deliver, label-ack,
    exit, restore, reboot). A spawn's edge is a strong update; every other
    edge is weak."""

    seq: int
    time_ns: int
    host: str
    kind: str
    pid: int = 0
    inode: int = 0
    path: str = ""
    flow: str = ""
    label_bits: int = 0
    tracker: int = 0
    source: Entity | None = field(init=False, repr=False, default=None)
    target: Entity | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        kind, host = self.kind, self.host
        if kind == "send":
            self.source, self.target = pid_entity(host, self.pid), flow_entity(self.flow)
        elif kind == "accept":
            self.source, self.target = flow_entity(self.flow), pid_entity(host, self.pid)
        elif kind == "read":
            self.source, self.target = file_entity(host, self.inode), pid_entity(host, self.pid)
        elif kind == "write" or kind == "create":
            self.source, self.target = pid_entity(host, self.pid), file_entity(host, self.inode)
        elif kind == "spawn":
            self.source, self.target = host_entity(host), pid_entity(host, self.pid)
        elif kind == "label-file":
            self.source, self.target = host_entity(host), file_entity(host, self.inode)


class HostAgent:
    def __init__(
        self,
        host: str,
        ip: str,
        *,
        seq_source: SeqSource | None = None,
        udp_label_prefix: int = DEFAULT_UDP_LABEL_PREFIX,
    ) -> None:
        self.host = host
        self.ip = ip
        self.host_label = 0  # bits
        self.pids: dict[int, State] = {}
        self.files: dict[int, State] = {}  # by inode
        self.file_paths: dict[str, int] = {}
        self.in_labels: dict[FlowKey, State] = {}  # what arrived, not yet accepted
        # labelled packets sent per UDP flow; a label ack fills the count
        self.udp_sent: dict[FlowKey, int] = {}
        self.udp_label_prefix = udp_label_prefix
        self._next_inode = FIRST_AUTO_INODE
        self._seq = seq_source or SeqSource()
        self.events: list[AgentEvent] = []

    # -- bookkeeping ------------------------------------------------------

    def _emit(self, time_ns: int, kind: str, state: State = (0, 0), **fields) -> None:
        self.events.append(AgentEvent(
            self._seq.next(), time_ns, self.host, kind,
            label_bits=state[0], tracker=state[1], **fields,
        ))

    def initialize(
        self,
        label: Label,
        files: tuple[tuple[str, int], ...] = (),
        now_ns: int = 0,
    ) -> None:
        self.host_label = label.bits
        for path, tracker in files:
            inode = self._bind(path)
            # a bound file takes the policy's tracker, even 0, not the join
            self.files[inode] = state = (self.files[inode][0] | label.bits, tracker)
            self._emit(now_ns, "label-file", state, inode=inode, path=path)
        self._emit(now_ns, "label-init", (label.bits, 0))

    def _bind(self, path: str) -> int:
        inode = self.file_paths.get(path)
        if inode is None:
            inode = self._next_inode
            self._next_inode += 1
            self.file_paths[path] = inode
            self.files[inode] = (0, 0)
        return inode

    def inode_of(self, path: str) -> int:
        inode = self.file_paths.get(path)
        if inode is None:
            raise UnknownInode(f"{self.host}: no file at {path}")
        return inode

    def _pid(self, pid: int) -> State:
        state = self.pids.get(pid)
        if state is None:
            raise UnknownEntry(f"{self.host}: pid {pid} is not live")
        return state

    def _file(self, inode: int) -> State:
        state = self.files.get(inode)
        if state is None:
            raise UnknownInode(f"{self.host}: inode {inode} does not exist")
        return state

    # -- process lifecycle ------------------------------------------------

    def spawn(self, pid: int, now_ns: int = 0) -> None:
        if pid in self.pids:
            raise PidReuseViolation(f"{self.host}: pid {pid} is already live")
        self.pids[pid] = state = (self.host_label, 0)
        self._emit(now_ns, "spawn", state, pid=pid)

    def exit(self, pid: int, now_ns: int = 0) -> None:
        bits = self._pid(pid)[0]
        del self.pids[pid]
        self._emit(now_ns, "exit", (bits, 0), pid=pid)

    # -- file i/o ---------------------------------------------------------

    def read(self, pid: int, inode: int, now_ns: int = 0) -> None:
        into = self._pid(pid)
        source = self._file(inode)
        self.pids[pid] = _join(into, source)
        self._emit(now_ns, "read", source, pid=pid, inode=inode)

    def write(self, pid: int, inode: int, now_ns: int = 0) -> None:
        source = self._pid(pid)
        self.files[inode] = _join(self._file(inode), source)
        self._emit(now_ns, "write", source, pid=pid, inode=inode)

    def create(self, pid: int, path: str, now_ns: int = 0) -> int:
        source = self._pid(pid)
        inode = self._bind(path)
        self.files[inode] = state = _join(self.files[inode], source)
        self._emit(now_ns, "create", state, pid=pid, inode=inode, path=path)
        return inode

    # -- network tx/rx ----------------------------------------------------

    def label_outgoing(self, pid: int, pkt: SimPacket, now_ns: int = 0) -> SimPacket:
        """Write a label header into `pkt` when the packet opens a flow (or,
        for UDP, into the first `udp_label_prefix` packets of a flow, fewer
        once the switch acknowledges the label), as a TC egress hook writes
        into the outgoing buffer, and return the same packet. Hosts without
        any label send bare packets."""
        bits, tracker = self._pid(pid)
        key = pkt.flow_key
        wants_header = pkt.is_initial
        if pkt.protocol == PROTO_UDP:
            sent = self.udp_sent.get(key, 0)
            if sent < self.udp_label_prefix:
                wants_header = True
                self.udp_sent[key] = sent + 1
        if wants_header and (bits or tracker):
            pkt.set_header(DifcHeader(bits, tracker))
        labeled = pkt.evil_bit
        # per packet, so the event is built here rather than through _emit
        self.events.append(AgentEvent(
            self._seq.next(), now_ns, self.host, "send", pid, 0, "", str(key),
            bits if labeled else 0, tracker if labeled else 0,
        ))
        return pkt

    def deliver(self, pkt: SimPacket, now_ns: int = 0) -> None:
        if pkt.label_ack:
            acked = pkt.flow_key.reversed()
            self.udp_sent[acked] = self.udp_label_prefix
            self._emit(now_ns, "label-ack", flow=str(acked))
            return
        key = pkt.flow_key
        difc = pkt.difc
        if difc is not None:
            got = (difc.bits, difc.tracker_id)
            self.in_labels[key] = _join(self.in_labels.get(key, (0, 0)), got)
        else:
            got = (0, 0)
        # per packet, so the event is built here rather than through _emit
        self.events.append(AgentEvent(
            self._seq.next(), now_ns, self.host, "deliver", 0, 0, "", str(key), *got,
        ))

    def accept(self, pid: int, key: FlowKey, now_ns: int = 0) -> None:
        """The receiving process takes ownership of data from `key`; its
        label absorbs whatever arrived."""
        into = self._pid(pid)
        source = self.in_labels.pop(key, None)
        if source is None:
            raise UnknownEntry(f"{self.host}: nothing pending on {key}")
        self.pids[pid] = _join(into, source)
        self._emit(now_ns, "accept", source, pid=pid, flow=str(key))

    # -- persistence ------------------------------------------------------

    def reboot(self, now_ns: int = 0) -> None:
        """Power cycle: the host label and file state (labels, trackers,
        paths, the next inode) persist on disk; every live process,
        in-flight label bucket and UDP label count is gone. The log records
        the state coming back (`restore`), then the reboot."""
        self.pids.clear()
        self.in_labels.clear()
        self.udp_sent.clear()
        self._emit(now_ns, "restore")
        self._emit(now_ns, "reboot")
