"""Network topology: hosts, switches, links, name bindings, forwarding.

Loaded from a YAML document:

    name: enterprise
    switches: [S1, S2]
    links:
      - [S1, S2]            # optional third element: latency in ns
    hosts:
      - {name: Host1, ip: 10.0.2.11, switch: S2}
    external:
      name: external
      ip: 203.0.113.10
      gateway: S1
    groups:
      Servers_Floor: [Server1, Server2]
    firewall:                # optional, ordered, first match wins, default allow
      - {action: allow, src: [Host2], dst: Server1}
      - {action: deny, dst: Server1}

Every host attaches to exactly one switch. Forwarding tables are
shortest-path over the switch graph, computed at load time.

Names. Policies, firewall rules, flows, and scenario events and
expectations may name an endpoint by a host name, a group name, the
external endpoint's name, the binding `external_network` (always the
external endpoint), or an address. One resolver, `Topology.resolve`,
serves all of them. A flow endpoint must name one address, so a group of
several hosts is not one. Addresses are canonical dotted quads: a host's
address and the external address are checked when the topology loads, a
raw address where it is named, and no two hosts, groups, the external
name and `external_network` share a name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import yaml

from .errors import DifcnetError, UnknownHost, UnknownName
from .header import ipv4_bytes

EXTERNAL_BINDING = "external_network"  # always names the external endpoint
DEFAULT_LINK_LATENCY_NS = 100_000  # 0.1 ms per link
# libyaml's loader parses about eight times faster than the pure-Python one
# and builds equal documents; pyyaml without libyaml still loads, slowly
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


@dataclass(frozen=True)
class Host:
    name: str
    ip: str
    switch: str


@dataclass(frozen=True)
class FirewallRule:
    """Stateless 5-tuple-level allow/deny. None matches anything."""

    action: str  # "allow" | "deny"
    src: frozenset[str] | None = None  # ips
    dst: frozenset[str] | None = None

    def __post_init__(self):
        if self.action not in ("allow", "deny"):
            raise DifcnetError(
                f"firewall rule action must be 'allow' or 'deny', not {self.action!r}"
            )


@dataclass
class Topology:
    name: str
    switches: list[str]
    hosts: list[Host]
    links: list[tuple[str, str, int]]  # switch-switch, latency ns
    external_name: str = "external"
    external_ip: str = "203.0.113.10"
    gateway: str = ""
    groups: dict[str, tuple[str, ...]] = field(default_factory=dict)
    firewall: list[FirewallRule] = field(default_factory=list)

    def __post_init__(self):
        if not self.switches:
            raise DifcnetError("'switches' must list at least one switch")
        for a, b, _lat in self.links:
            for s in (a, b):
                if s not in self.switches:
                    raise DifcnetError(f"link {a}-{b} names unknown switch {s!r}")
        _check_address("external.ip", self.external_ip)
        by_ip: dict[str, str] = {}
        for i, h in enumerate(self.hosts):
            where = f"hosts[{i}] ({h.name})"
            _check_address(f"{where}: ip", h.ip)
            if h.ip == self.external_ip:
                raise DifcnetError(f"{where}: ip {h.ip} is the external endpoint's address")
            if h.ip in by_ip:
                raise DifcnetError(f"{where}: ip {h.ip} is already used by {by_ip[h.ip]}")
            by_ip[h.ip] = where
            if h.switch not in self.switches:
                raise DifcnetError(f"host {h.name} attached to unknown switch {h.switch}")
        # every name resolves to one thing, whichever part of the file names it
        named = [(f"hosts[{i}]", h.name) for i, h in enumerate(self.hosts)]
        named += [(f"groups.{g}", g) for g in self.groups]
        named.append(("external.name", self.external_name))
        owner = {EXTERNAL_BINDING: f"the binding {EXTERNAL_BINDING}"}
        for where, name in named:
            if name in owner:
                raise DifcnetError(f"{where}: name {name!r} is already used by {owner[name]}")
            owner[name] = where
        self.host_by_name = {h.name: h for h in self.hosts}
        self.host_by_ip = {h.ip: h for h in self.hosts}
        if not self.gateway:
            self.gateway = self.switches[0]
        for group, members in self.groups.items():
            for m in members:
                if m not in self.host_by_name:
                    raise DifcnetError(f"group {group} member {m} is not a host")
        self._ports: dict[str, list[str]] = {}
        self._forwarding: dict[str, dict[str, int]] = {}
        self._latency: dict[tuple[str, str], int] = {}
        for a, b, lat in self.links:  # the first link between two switches wins
            self._latency.setdefault((a, b), lat)
            self._latency.setdefault((b, a), lat)
        self._build_ports()
        self._build_forwarding()
        switches = set(self.switches)
        self._next_hops = {
            s: tuple((t, self.link_latency(s, t), t in switches) for t in ports)
            for s, ports in self._ports.items()
        }

    # --- name resolution -------------------------------------------------

    def resolve(self, name: str) -> tuple[str, ...]:
        """The addresses `name` stands for: a host's address, the external
        address (under the external name or `external_network`), a group's
        member addresses in group order, or a canonical dotted quad itself.
        This is the only place a name becomes addresses."""
        host = self.host_by_name.get(name)
        if host is not None:
            return (host.ip,)
        if name == self.external_name or name == EXTERNAL_BINDING:
            return (self.external_ip,)
        members = self.groups.get(name)
        if members is not None:
            return tuple(self.host_by_name[m].ip for m in members)
        try:
            ipv4_bytes(name)
        except ValueError:
            raise UnknownName(f"cannot resolve {name!r} in topology {self.name!r}") from None
        return (name,)

    def switch_of_ip(self, ip: str) -> str:
        if ip in self.host_by_ip:
            return self.host_by_ip[ip].switch
        if ip == self.external_ip:
            return self.gateway
        raise UnknownHost(f"no switch attached to {ip}")

    def hosts_on(self, switch: str) -> list[Host]:
        return [h for h in self.hosts if h.switch == switch]

    def host_switches(self) -> list[str]:
        """Switches with at least one attached host, in topology order."""
        return [s for s in self.switches if any(h.switch == s for h in self.hosts)]

    def enforced_ips(self, switch: str) -> set[str]:
        ips = {h.ip for h in self.hosts_on(switch)}
        if switch == self.gateway:
            ips.add(self.external_ip)
        return ips

    # --- ports and forwarding -------------------------------------------

    def _build_ports(self):
        neighbors: dict[str, list[str]] = {s: [] for s in self.switches}
        for a, b, _lat in self.links:
            neighbors[a].append(b)
            neighbors[b].append(a)
        for s in self.switches:
            endpoints = list(neighbors[s]) + [h.name for h in self.hosts_on(s)]
            if s == self.gateway:
                endpoints.append(self.external_name)
            self._ports[s] = endpoints

    def ports(self, switch: str) -> list[str]:
        return self._ports[switch]

    def _build_forwarding(self):
        # next-hop switch toward every other switch, by BFS
        adj: dict[str, list[str]] = {s: [] for s in self.switches}
        for a, b, _lat in self.links:
            adj[a].append(b)
            adj[b].append(a)
        next_hop: dict[str, dict[str, str]] = {}
        for src in self.switches:
            prev: dict[str, str] = {src: src}
            q = deque([src])
            while q:
                cur = q.popleft()
                for nb in adj[cur]:
                    if nb not in prev:
                        prev[nb] = cur
                        q.append(nb)
            hops = {}
            for dst in self.switches:
                if dst == src or dst not in prev:
                    continue
                node = dst
                while prev[node] != src:
                    node = prev[node]
                hops[dst] = node
            next_hop[src] = hops
        missing = [
            (a, b)
            for a in self.switches
            for b in self.switches
            if a != b and b not in next_hop[a]
        ]
        if missing:
            raise DifcnetError(f"switch graph is not connected: {missing[:3]}")

        for s in self.switches:
            table: dict[str, int] = {}
            ports = self._ports[s]
            for h in self.hosts:
                if h.switch == s:
                    table[h.ip] = ports.index(h.name)
                else:
                    table[h.ip] = ports.index(next_hop[s][h.switch])
            if s == self.gateway:
                table[self.external_ip] = ports.index(self.external_name)
            else:
                table[self.external_ip] = ports.index(next_hop[s][self.gateway])
            self._forwarding[s] = table

    def forwarding(self, switch: str) -> dict[str, int]:
        return self._forwarding[switch]

    def port_target(self, switch: str, port: int) -> str:
        """Device name (switch, host, or external endpoint) behind a port."""
        return self._ports[switch][port]

    def link_latency(self, a: str, b: str) -> int:
        return self._latency.get((a, b), DEFAULT_LINK_LATENCY_NS)

    def next_hops(self, switch: str) -> tuple[tuple[str, int, bool], ...]:
        """Per port of `switch`, built at load: (port_target,
        link_latency to it, whether it is a switch)."""
        return self._next_hops[switch]


def _check_address(where: str, ip) -> None:
    try:
        ipv4_bytes(ip)
    except ValueError as exc:
        raise DifcnetError(f"{where}: {exc}") from None


def _firewall_side(topo: Topology, value, where: str) -> frozenset[str] | None:
    """The union of the addresses a firewall rule side's names resolve to;
    None (the side is absent) matches anything."""
    if value is None:
        return None
    names = value if isinstance(value, list) else [value]
    ips: set[str] = set()
    for name in names:
        if not isinstance(name, str):
            raise DifcnetError(f"{where}: a name must be a string, not {name!r}")
        try:
            ips.update(topo.resolve(name))
        except UnknownName as exc:
            raise UnknownName(f"{where}: {exc}") from None
    return frozenset(ips)


def read_yaml(path) -> object:
    """The YAML document in `path`; a file that cannot be read or a syntax
    error is a DifcnetError naming the file (and the line)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return yaml.load(fh, Loader=YAML_LOADER)
    except OSError as exc:
        raise DifcnetError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DifcnetError(f"{path}: cannot read: not UTF-8 text ({exc.reason})") from None
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark or exc.context_mark
        where = f"{path}:{mark.line + 1}" if mark is not None else str(path)
        raise DifcnetError(f"{where}: invalid YAML: {exc.problem or exc.context}") from None
    except yaml.YAMLError as exc:
        raise DifcnetError(f"{path}: invalid YAML: {exc}") from None


def load_topology(path: str) -> Topology:
    """Errors in the document are raised with the file path in front."""
    doc = read_yaml(path)
    try:
        return topology_from_dict(doc)
    except DifcnetError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def topology_from_dict(doc: dict) -> Topology:
    if not isinstance(doc, dict):
        raise DifcnetError("topology must be a mapping")
    if "switches" not in doc:
        raise DifcnetError("missing field 'switches'")
    links = []
    for i, entry in enumerate(doc.get("links", [])):
        if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
            raise DifcnetError(
                f"links[{i}]: a link is [switch, switch] or [switch, switch, latency_ns], "
                f"not {entry!r}"
            )
        try:
            lat = int(entry[2]) if len(entry) == 3 else DEFAULT_LINK_LATENCY_NS
        except (TypeError, ValueError):
            raise DifcnetError(
                f"links[{i}]: latency must be a number of ns, not {entry[2]!r}"
            ) from None
        links.append((entry[0], entry[1], lat))
    hosts = []
    for i, h in enumerate(doc.get("hosts", [])):
        for key in ("name", "ip", "switch"):
            if key not in h:
                raise DifcnetError(f"hosts[{i}] ({h.get('name', '?')}): missing field {key!r}")
        hosts.append(Host(h["name"], h["ip"], h["switch"]))
    ext = doc.get("external", {})
    groups = {k: tuple(v) for k, v in doc.get("groups", {}).items()}

    topo = Topology(
        name=doc.get("name", "unnamed"),
        switches=list(doc["switches"]),
        hosts=hosts,
        links=links,
        external_name=ext.get("name", "external"),
        external_ip=ext.get("ip", "203.0.113.10"),
        gateway=ext.get("gateway", ""),
        groups=groups,
    )

    fw = []
    for i, r in enumerate(doc.get("firewall", [])):
        fw.append(
            FirewallRule(
                action=r.get("action"),
                src=_firewall_side(topo, r.get("src"), f"firewall[{i}].src"),
                dst=_firewall_side(topo, r.get("dst"), f"firewall[{i}].dst"),
            )
        )
    topo.firewall = fw
    return topo


def firewall_admits(rules: list[FirewallRule], src_ip: str, dst_ip: str) -> bool:
    """First matching rule wins; no match means allow."""
    for r in rules:
        if (r.src is None or src_ip in r.src) and (r.dst is None or dst_ip in r.dst):
            return r.action == "allow"
    return True
