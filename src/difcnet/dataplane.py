"""Switch data plane: per-connection decision state and the match pipeline.

A switch enforces policy only for packets addressed to one of its directly
attached hosts (or, at the gateway, to the external network). Everything
else is forwarded untouched. Enforcement order for an enforced packet:

  1. exact per-connection table (conn_dec) - a hit ends the pipeline
  2. initial packets: per-source rate check, then classification, then the
     matched entry's action; the verdict is written to the direct-mapped
     decision buffer and an install request is emitted
  3. classification of an initial packet: `decide`, shared with the route
     analysis, behind a cache keyed on (original label bits, tracker id,
     source, destination). It runs the privilege stage (declassify/endorse
     against the original label; no header means the empty label, and a
     rewrite that changes the bits writes one), then the match entries in
     ascending priority: the first match wins, no match means drop.
     `set_config` empties the cache, and a full cache
     (CLASSIFY_CACHE_CAPACITY keys) is emptied before the next store
  4. non-initial packets: decision buffer lookup; a miss recirculates the
     packet after a delay longer than one RTT, bounded by a recirculation
     budget, after which it drops

The decision buffer is direct-mapped on the low bits of a CRC-32 over the
canonical 13-byte flow key and stores the full 32-bit hash next to the
decision. Inserting into an occupied slot evicts the previous occupant. Two
different connections that share the full 32-bit hash are indistinguishable
to the buffer; the exact conn_dec table in front of it bounds the lifetime
of such a false hit to one install delay.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import CapacityExceeded
from .header import DifcHeader, FlowKey
from .labels import Label
from .netcl.ast import Alert, Allow, Drop, Modify, Reroute
from .netcl.compiler import PrivilegeEntry, SwitchConfig, TableEntry
from .packets import PROTO_UDP, ControlKind, SimPacket
from .topology import Topology

CONN_DEC_CAPACITY = 220_000
CLASSIFY_CACHE_CAPACITY = 4_096
DEFAULT_INDEX_BITS = 16
DEFAULT_RECIRC_LIMIT = 3
DEFAULT_RATE_LIMIT = 128
DEFAULT_RATE_WINDOW_NS = 1_000_000_000
DEFAULT_RTT_NS = 10_000_000


def recirc_delay(rtt_ns: int) -> int:
    """1.5 RTT: a buffer miss recirculates once the install it awaits lands."""
    return rtt_ns * 3 // 2


class Decision(enum.Enum):
    ALLOW = "allow"
    DROP = "drop"


class ConnDecTable:
    """Exact-match per-connection decision table with LRU-free eviction:
    full means install fails (CapacityExceeded), relying on gc of idle
    entries rather than displacement."""

    def __init__(self, capacity: int = CONN_DEC_CAPACITY) -> None:
        self.capacity = capacity
        self._entries: dict[FlowKey, tuple[Decision, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: FlowKey) -> bool:
        return key in self._entries

    def install(self, key: FlowKey, decision: Decision, now_ns: int) -> None:
        if key not in self._entries and len(self._entries) >= self.capacity:
            raise CapacityExceeded(
                f"conn_dec full ({self.capacity} entries), cannot install {key}"
            )
        self._entries[key] = (decision, now_ns)

    def lookup(self, key: FlowKey, now_ns: int) -> Decision | None:
        hit = self._entries.get(key)
        if hit is None:
            return None
        self._entries[key] = (hit[0], now_ns)
        return hit[0]

    def gc(self, now_ns: int, idle_ns: int) -> int:
        stale = [k for k, (_, t) in self._entries.items() if now_ns - t >= idle_ns]
        for k in stale:
            del self._entries[k]
        return len(stale)


class DecisionBuffer:
    """Direct-mapped decision store covering the window between a verdict
    and the conn_dec install landing one RTT later."""

    def __init__(self, index_bits: int = DEFAULT_INDEX_BITS) -> None:
        self.index_bits = index_bits
        self._mask = (1 << index_bits) - 1
        self._slots: dict[int, tuple[int, Decision]] = {}
        self.evictions = 0

    def insert(self, key: FlowKey, decision: Decision) -> bool:
        """Returns True when an existing occupant with a different hash was
        evicted. The slot is the low index_bits of the CRC (buffer_slot)."""
        crc = key.crc32()
        slot = crc & self._mask
        prev = self._slots.get(slot)
        self._slots[slot] = (crc, decision)
        evicted = prev is not None and prev[0] != crc
        if evicted:
            self.evictions += 1
        return evicted

    def lookup(self, key: FlowKey) -> Decision | None:
        crc = key.crc32()
        entry = self._slots.get(crc & self._mask)
        if entry is None or entry[0] != crc:
            return None
        return entry[1]

    def clear(self) -> None:
        self._slots.clear()


class RateLimiter:
    """Fixed-window cap on policy evaluations per source address. Only
    packets that would occupy decision state are counted, so an attacker
    burning its budget cannot crowd out other sources."""

    def __init__(
        self,
        limit: int = DEFAULT_RATE_LIMIT,
        window_ns: int = DEFAULT_RATE_WINDOW_NS,
    ) -> None:
        self.limit = limit
        self.window_ns = window_ns
        self._window_idx = -1
        self._counts: dict[str, int] = {}

    def allow(self, src_ip: str, now_ns: int) -> bool:
        idx = now_ns // self.window_ns
        if idx != self._window_idx:
            self._window_idx = idx
            self._counts = {}
        n = self._counts.get(src_ip, 0) + 1
        self._counts[src_ip] = n
        return n <= self.limit


def match_policies(
    config: SwitchConfig, label_bits: int, tracker: int, src_ip: str, dst_ip: str
) -> TableEntry | None:
    """The first matching entry, which is the one with the lowest priority
    number because the entries are in ascending priority."""
    for entry in config.entries:
        if entry.match.matches(label_bits, tracker, src_ip, dst_ip):
            return entry
    return None


def apply_privileges(
    entries: tuple[PrivilegeEntry, ...],
    label_bits: int,
    tracker: int,
    src_ip: str,
    dst_ip: str,
) -> int:
    """All matching entries are evaluated against the original label, then
    declassify clears its accumulated bits and endorse sets its bits:
    new = (orig & ~declass) | endorse. The tracker id never changes."""
    declass = 0
    endorse = 0
    for entry in entries:
        if not entry.match.matches(label_bits, tracker, src_ip, dst_ip):
            continue
        if entry.direction == "declassify":
            declass |= entry.mask
        else:
            endorse |= entry.mask
    return (label_bits & ~declass) | endorse


def decide(
    config: SwitchConfig, label_bits: int, tracker: int, src_ip: str, dst_ip: str
) -> tuple[int, TableEntry | None]:
    """(rewritten label bits, first matching entry or None) for an initial
    packet: the one admission decision of the switch and the route analysis."""
    new_bits = label_bits
    if config.privilege_entries:  # most configs have none; skip the call
        new_bits = apply_privileges(config.privilege_entries, label_bits, tracker, src_ip, dst_ip)
    return new_bits, match_policies(config, new_bits, tracker, src_ip, dst_ip)


@dataclass(frozen=True)
class InstallRequest:
    switch_id: str
    key: FlowKey
    decision: Decision
    created_ns: int


# a hop's trace lines: a list on the paths that write one, else the shared
# empty tuple, so a hop that writes nothing allocates nothing
Log = list[str] | tuple[()]


@dataclass(slots=True)
class PipelineResult:
    """One packet's outcome at one switch. Only an initial packet's
    evaluation generates packets or install requests; every other hop
    leaves both as the shared empty tuple."""

    verdict: str  # forward | drop | recirculate
    packet: SimPacket
    egress_port: int | None = None
    generated: list[SimPacket] | tuple[()] = ()
    install_requests: list[InstallRequest] | tuple[()] = ()
    recirculate_delay_ns: int = 0
    decision_source: str = ""
    log: Log = ()


class Switch:
    def __init__(
        self,
        switch_id: str,
        topology: Topology,
        config: SwitchConfig,
        *,
        index_bits: int = DEFAULT_INDEX_BITS,
        conn_dec_capacity: int = CONN_DEC_CAPACITY,
        recirc_limit: int = DEFAULT_RECIRC_LIMIT,
        recirc_delay_ns: int = recirc_delay(DEFAULT_RTT_NS),
        rate_limit: int = DEFAULT_RATE_LIMIT,
        rate_window_ns: int = DEFAULT_RATE_WINDOW_NS,
    ) -> None:
        self.switch_id = switch_id
        self.topology = topology
        self.config = config
        self.conn_dec = ConnDecTable(conn_dec_capacity)
        self.buffer = DecisionBuffer(index_bits)
        self.limiter = RateLimiter(rate_limit, rate_window_ns)
        self.recirc_limit = recirc_limit
        self.recirc_delay_ns = recirc_delay_ns
        self._enforced = set(topology.enforced_ips(switch_id))
        self._forwarding = topology.forwarding(switch_id)
        # (orig label bits, tracker, src, dst) -> (rewritten bits, entry)
        self._classified: dict[
            tuple[int, int, str, str], tuple[int, TableEntry | None]
        ] = {}
        self.classify_hits = 0
        self.classify_misses = 0

    # control plane hooks -------------------------------------------------

    def install_conn_dec(self, key: FlowKey, decision: Decision, now_ns: int) -> None:
        self.conn_dec.install(key, decision, now_ns)

    def set_config(self, config: SwitchConfig) -> None:
        self.config = config
        self._classified = {}

    # pipeline ------------------------------------------------------------

    def _forward(self, pkt: SimPacket, source: str, log: Log = ()) -> PipelineResult:
        port = self._forwarding.get(pkt.dst_ip)
        if port is None:
            log = [*log, f"{self.switch_id} no-route dst={pkt.dst_ip}"]
            return PipelineResult("drop", pkt, decision_source="forwarding", log=log)
        if pkt.ttl <= 1:
            log = [*log, f"{self.switch_id} ttl-expired {pkt.flow_key}"]
            return PipelineResult("drop", pkt, decision_source="forwarding", log=log)
        return PipelineResult(
            "forward", pkt.with_ttl(pkt.ttl - 1), egress_port=port,
            decision_source=source, log=log,
        )

    def _execute(self, pkt: SimPacket, entry: TableEntry, log: Log) -> PipelineResult:
        action = entry.action
        if isinstance(action, Drop):
            log = [*log, f"{self.switch_id} drop {pkt.flow_key} rule@{entry.priority}"]
            return PipelineResult("drop", pkt, decision_source="policy", log=log)
        if isinstance(action, Alert):
            log = [*log, f"{self.switch_id} alert {pkt.flow_key} rule@{entry.priority}"]
            return self._forward(pkt, "policy", log)
        if isinstance(action, Reroute):
            if pkt.ttl <= 1:
                log = [*log, f"{self.switch_id} ttl-expired {pkt.flow_key}"]
                return PipelineResult("drop", pkt, decision_source="policy", log=log)
            out = pkt.with_ttl(pkt.ttl - 1)
            log = [*log, f"{self.switch_id} reroute port={action.port} {pkt.flow_key}"]
            return PipelineResult(
                "forward", out, egress_port=action.port, decision_source="policy", log=log
            )
        if isinstance(action, Modify):
            if action.field_name == "ttl":
                pkt = pkt.with_ttl(int(action.value))
            log = [
                *log,
                f"{self.switch_id} modify {action.field_name}={action.value} {pkt.flow_key}",
            ]
            return self._forward(pkt, "policy", log)
        assert isinstance(action, Allow)
        return self._forward(pkt, "policy", log)

    def process_packet(self, pkt: SimPacket, now_ns: int) -> PipelineResult:
        # control traffic (label acks) is switch generated and rides
        # outside the enforcement tables
        if pkt.control is not None:
            return self._forward(pkt, "control")
        if pkt.dst_ip not in self._enforced:
            return self._forward(pkt, "transit")

        key = pkt.flow_key
        held = self.conn_dec.lookup(key, now_ns)
        if held is not None:
            if held is Decision.DROP:
                log = [f"{self.switch_id} drop {key} conn_dec"]
                return PipelineResult("drop", pkt, decision_source="conn_dec", log=log)
            return self._forward(pkt, "conn_dec")

        if pkt.is_initial:
            return self._evaluate_initial(pkt, key, now_ns)

        buffered = self.buffer.lookup(key)
        if buffered is not None:
            if buffered is Decision.DROP:
                log = [f"{self.switch_id} drop {key} buffer"]
                return PipelineResult("drop", pkt, decision_source="buffer", log=log)
            return self._forward(pkt, "buffer")

        if pkt.recirc_count >= self.recirc_limit:
            log = [f"{self.switch_id} drop {key} recirc-limit"]
            return PipelineResult("drop", pkt, decision_source="recirc_limit", log=log)
        out = pkt.recirculated()
        return PipelineResult(
            "recirculate",
            out,
            recirculate_delay_ns=self.recirc_delay_ns,
            decision_source="recirc",
            log=[f"{self.switch_id} recirculate {key} n={out.recirc_count}"],
        )

    def classify(
        self, label_bits: int, tracker: int, src_ip: str, dst_ip: str
    ) -> tuple[int, TableEntry | None]:
        """`decide` for an initial packet under the current config, served
        from the classification cache when the key was seen before."""
        ckey = (label_bits, tracker, src_ip, dst_ip)
        cached = self._classified.get(ckey)
        if cached is not None:
            self.classify_hits += 1
            return cached
        self.classify_misses += 1
        result = decide(self.config, label_bits, tracker, src_ip, dst_ip)
        if len(self._classified) >= CLASSIFY_CACHE_CAPACITY:
            self._classified.clear()
        self._classified[ckey] = result
        return result

    def _evaluate_initial(self, pkt: SimPacket, key: FlowKey, now_ns: int) -> PipelineResult:
        if not self.limiter.allow(pkt.src_ip, now_ns):
            log = [f"{self.switch_id} drop {key} rate-limited"]
            return PipelineResult("drop", pkt, decision_source="rate", log=log)

        difc = pkt.difc  # no header: the empty label
        orig_bits, tracker = (0, 0) if difc is None else (difc.label.bits, difc.tracker_id)
        new_bits, entry = self.classify(orig_bits, tracker, pkt.src_ip, pkt.dst_ip)
        log: Log = ()
        if new_bits != orig_bits:
            pkt = pkt.with_header(DifcHeader(Label(new_bits), tracker))
            log = [
                f"{self.switch_id} rewrite-label {key} "
                f"{orig_bits:064x}->{new_bits:064x}"
            ]

        if entry is None:
            decision = Decision.DROP
            log = [*log, f"{self.switch_id} drop {key} default-deny"]
            result = PipelineResult("drop", pkt, decision_source="policy", log=log)
        else:
            result = self._execute(pkt, entry, log)
            decision = (
                Decision.ALLOW if result.verdict == "forward" else Decision.DROP
            )

        self.buffer.insert(key, decision)
        result.install_requests = [InstallRequest(self.switch_id, key, decision, now_ns)]
        if pkt.protocol == PROTO_UDP:
            result.generated = [
                SimPacket(
                    src_ip=pkt.dst_ip,
                    dst_ip=pkt.src_ip,
                    src_port=pkt.dst_port,
                    dst_port=pkt.src_port,
                    protocol=PROTO_UDP,
                    control=ControlKind.LABEL_ACK,
                    payload_len=0,
                )
            ]
            result.log = [*result.log, f"{self.switch_id} label-ack {key}"]
        return result
