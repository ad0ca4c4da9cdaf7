"""Host-side reference monitor. Tracks per-process and per-file labels,
stamps outgoing initial packets with the sender's label header, and folds
received labels into processes when they accept the data.

The agent never blocks traffic itself; admission is the switches' job. Its
obligations are (a) truthful labeling of what leaves the host and (b) label
bookkeeping for what arrives, so taint survives file and process hops.
"""

from __future__ import annotations

from .errors import (
    PidReuseViolation,
    UnknownEntry,
    UnknownInode,
)
from .header import DifcHeader, FlowKey
from .labels import Label
from .packets import PROTO_UDP, ControlKind, SimPacket

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


class AgentEvent:
    """One agent log record. Treat it as immutable: the influence edge is
    computed in the constructor, `source` -> `target`, both None for kinds
    that move no state between entities (label-init, deliver, label-ack,
    exit, restore, reboot). A spawn's edge is a strong update; every other
    edge is weak."""

    __slots__ = (
        "seq", "time_ns", "host", "kind", "pid", "inode", "path", "flow",
        "label_bits", "tracker", "source", "target",
    )

    def __init__(
        self,
        seq: int,
        time_ns: int,
        host: str,
        kind: str,
        pid: int = 0,
        inode: int = 0,
        path: str = "",
        flow: str = "",
        label_bits: int = 0,
        tracker: int = 0,
    ) -> None:
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

    def __repr__(self) -> str:
        return (
            f"AgentEvent(seq={self.seq!r}, time_ns={self.time_ns!r}, host={self.host!r}, "
            f"kind={self.kind!r}, pid={self.pid!r}, inode={self.inode!r}, path={self.path!r}, "
            f"flow={self.flow!r}, label_bits={self.label_bits!r}, tracker={self.tracker!r})"
        )


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
        self.host_label = Label(0)
        self.pid_labels: dict[int, Label] = {}
        self.pid_trackers: dict[int, int] = {}
        self.file_labels: dict[int, Label] = {}
        self.file_trackers: dict[int, int] = {}
        self.file_paths: dict[str, int] = {}
        self.in_labels: dict[FlowKey, tuple[Label, int]] = {}
        self.udp_sent: dict[FlowKey, int] = {}
        self.udp_acked: set[FlowKey] = set()
        self.udp_label_prefix = udp_label_prefix
        self._next_inode = FIRST_AUTO_INODE
        self._seq = seq_source or SeqSource()
        self.events: list[AgentEvent] = []

    # -- bookkeeping ------------------------------------------------------

    def _emit(self, time_ns: int, kind: str, **fields) -> None:
        self.events.append(
            AgentEvent(self._seq.next(), time_ns, self.host, kind, **fields)
        )

    def initialize(
        self,
        label: Label,
        files: tuple[tuple[str, int], ...] = (),
        now_ns: int = 0,
    ) -> None:
        self.host_label = label
        for path, tracker in files:
            inode = self._bind(path)
            self.file_labels[inode] = self.file_labels.get(inode, Label(0)) | label
            self.file_trackers[inode] = tracker
            self._emit(
                now_ns, "label-file", inode=inode, path=path,
                label_bits=self.file_labels[inode].bits, tracker=tracker,
            )
        self._emit(now_ns, "label-init", label_bits=label.bits)

    def _bind(self, path: str) -> int:
        inode = self.file_paths.get(path)
        if inode is None:
            inode = self._next_inode
            self._next_inode += 1
            self.file_paths[path] = inode
            self.file_labels.setdefault(inode, Label(0))
            self.file_trackers.setdefault(inode, 0)
        return inode

    def inode_of(self, path: str) -> int:
        inode = self.file_paths.get(path)
        if inode is None:
            raise UnknownInode(f"{self.host}: no file at {path}")
        return inode

    # -- process lifecycle ------------------------------------------------

    def spawn(self, pid: int, now_ns: int = 0) -> None:
        if pid in self.pid_labels:
            raise PidReuseViolation(f"{self.host}: pid {pid} is already live")
        self.pid_labels[pid] = self.host_label
        self.pid_trackers[pid] = 0
        self._emit(now_ns, "spawn", pid=pid, label_bits=self.host_label.bits)

    def exit(self, pid: int, now_ns: int = 0) -> None:
        self._require_pid(pid)
        self._emit(now_ns, "exit", pid=pid, label_bits=self.pid_labels[pid].bits)
        del self.pid_labels[pid]
        del self.pid_trackers[pid]

    def _require_pid(self, pid: int) -> None:
        if pid not in self.pid_labels:
            raise UnknownEntry(f"{self.host}: pid {pid} is not live")

    def _require_inode(self, inode: int) -> None:
        if inode not in self.file_labels:
            raise UnknownInode(f"{self.host}: inode {inode} does not exist")

    # -- file i/o ---------------------------------------------------------

    def read(self, pid: int, inode: int, now_ns: int = 0) -> None:
        self._require_pid(pid)
        self._require_inode(inode)
        self.pid_labels[pid] = self.pid_labels[pid] | self.file_labels[inode]
        if self.file_trackers.get(inode, 0):
            self.pid_trackers[pid] = self.file_trackers[inode]
        self._emit(
            now_ns, "read", pid=pid, inode=inode,
            label_bits=self.file_labels[inode].bits,
            tracker=self.file_trackers.get(inode, 0),
        )

    def write(self, pid: int, inode: int, now_ns: int = 0) -> None:
        self._require_pid(pid)
        self._require_inode(inode)
        self.file_labels[inode] = self.file_labels[inode] | self.pid_labels[pid]
        if self.pid_trackers.get(pid, 0):
            self.file_trackers[inode] = self.pid_trackers[pid]
        self._emit(
            now_ns, "write", pid=pid, inode=inode,
            label_bits=self.pid_labels[pid].bits,
            tracker=self.pid_trackers.get(pid, 0),
        )

    def create(self, pid: int, path: str, now_ns: int = 0) -> int:
        self._require_pid(pid)
        inode = self._bind(path)
        self.file_labels[inode] = self.file_labels[inode] | self.pid_labels[pid]
        if self.pid_trackers.get(pid, 0):
            self.file_trackers[inode] = self.pid_trackers[pid]
        self._emit(
            now_ns, "create", pid=pid, inode=inode, path=path,
            label_bits=self.file_labels[inode].bits,
            tracker=self.file_trackers.get(inode, 0),
        )
        return inode

    # -- network tx/rx ----------------------------------------------------

    def label_outgoing(self, pid: int, pkt: SimPacket, now_ns: int = 0) -> SimPacket:
        """Attach a label header when the packet opens a flow (or, for UDP,
        to the first `udp_label_prefix` packets of a flow the switch has not
        acknowledged). Hosts without any label send bare packets."""
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
            pkt = pkt.with_header(DifcHeader(label, tracker))
        labeled = pkt.evil_bit
        # per packet, so the event is built here rather than through _emit
        self.events.append(AgentEvent(
            self._seq.next(), now_ns, self.host, "send", pid, 0, "", str(key),
            label.bits if labeled else 0, tracker if labeled else 0,
        ))
        return pkt

    def deliver(self, pkt: SimPacket, now_ns: int = 0) -> None:
        if pkt.control is ControlKind.LABEL_ACK:
            acked = pkt.flow_key.reversed()
            self.udp_acked.add(acked)
            self._emit(now_ns, "label-ack", flow=str(acked))
            return
        key = pkt.flow_key
        difc = pkt.difc
        if difc is not None:
            label, tracker = self.in_labels.get(key, (Label(0), 0))
            label = label | difc.label
            if difc.tracker_id:
                tracker = difc.tracker_id
            self.in_labels[key] = (label, tracker)
            got_bits, got_tracker = difc.label.bits, difc.tracker_id
        else:
            got_bits = got_tracker = 0
        # per packet, so the event is built here rather than through _emit
        self.events.append(AgentEvent(
            self._seq.next(), now_ns, self.host, "deliver", 0, 0, "", str(key),
            got_bits, got_tracker,
        ))

    def accept(self, pid: int, key: FlowKey, now_ns: int = 0) -> None:
        """The receiving process takes ownership of data from `key`; its
        label absorbs whatever arrived."""
        self._require_pid(pid)
        if key not in self.in_labels:
            raise UnknownEntry(f"{self.host}: nothing pending on {key}")
        label, tracker = self.in_labels.pop(key)
        self.pid_labels[pid] = self.pid_labels[pid] | label
        if tracker:
            self.pid_trackers[pid] = tracker
        self._emit(
            now_ns, "accept", pid=pid, flow=str(key),
            label_bits=label.bits, tracker=tracker,
        )

    # -- persistence ------------------------------------------------------

    def reboot(self, now_ns: int = 0) -> None:
        """Power cycle: the host label and file state (labels, trackers,
        paths, the next inode) persist on disk; every live process,
        in-flight label bucket and UDP label count is gone. The log records
        the state coming back (`restore`), then the reboot."""
        self.pid_labels.clear()
        self.pid_trackers.clear()
        self.in_labels.clear()
        self.udp_sent.clear()
        self.udp_acked.clear()
        self._emit(now_ns, "restore")
        self._emit(now_ns, "reboot")
