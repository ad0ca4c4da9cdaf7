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

Every host attaches to exactly one switch. The binding `external_network`
always resolves to the external endpoint's address. Forwarding tables are
shortest-path over the switch graph, computed at load time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import yaml

from .errors import DifcnetError, UnknownHost, UnknownName

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
        self.host_by_name = {h.name: h for h in self.hosts}
        self.host_by_ip = {h.ip: h for h in self.hosts}
        if len(self.host_by_name) != len(self.hosts) or len(self.host_by_ip) != len(self.hosts):
            raise DifcnetError("duplicate host name or ip")
        for h in self.hosts:
            if h.switch not in self.switches:
                raise DifcnetError(f"host {h.name} attached to unknown switch {h.switch}")
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
        """Resolve a policy-source name to one or more addresses."""
        if name == "external_network" or name == self.external_name:
            return (self.external_ip,)
        if name in self.host_by_name:
            return (self.host_by_name[name].ip,)
        if name in self.groups:
            return tuple(self.host_by_name[m].ip for m in self.groups[name])
        if _looks_like_ip(name):
            return (name,)
        raise UnknownName(f"cannot resolve {name!r} in topology {self.name!r}")

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


def _looks_like_ip(name: str) -> bool:
    parts = name.split(".")
    return len(parts) == 4 and all(p.isdigit() and int(p) < 256 for p in parts)


def _resolve_fw_side(value, topo_hosts, groups, external_ip) -> frozenset[str] | None:
    if value is None:
        return None
    names = value if isinstance(value, list) else [value]
    ips: set[str] = set()
    for n in names:
        if n in groups:
            for member in groups[n]:
                ips.add(topo_hosts[member])
        elif n in topo_hosts:
            ips.add(topo_hosts[n])
        elif n in ("external", "external_network"):
            ips.add(external_ip)
        elif _looks_like_ip(n):
            ips.add(n)
        else:
            raise UnknownName(f"firewall rule references unknown name {n!r}")
    return frozenset(ips)


def read_yaml(path) -> object:
    """The YAML document in `path`; a syntax error is a DifcnetError naming
    the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=YAML_LOADER)
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

    host_ips = {h.name: h.ip for h in hosts}
    fw = []
    for r in doc.get("firewall", []):
        fw.append(
            FirewallRule(
                action=r.get("action"),
                src=_resolve_fw_side(r.get("src"), host_ips, groups, topo.external_ip),
                dst=_resolve_fw_side(r.get("dst"), host_ips, groups, topo.external_ip),
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
