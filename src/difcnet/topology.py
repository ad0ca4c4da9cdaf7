"""Network topology: hosts, switches, links, name bindings, forwarding.

Loaded from a YAML document:

    name: enterprise
    switches: [S1, S2]
    links:
      - [S1, S2]            # optional third element: latency in ns, an int >= 0
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

The endpoints are the hosts, each on one switch, then the external
endpoint, on the gateway. Forwarding tables are shortest-path over the
switch graph, computed at load time.

Names. Policies, firewall rules and flows may name an endpoint by a host
name, a group name, the external endpoint's name, the binding
`external_network` (always the external endpoint), or an address. One
resolver, `Topology.resolve`, serves all of them from one name map built
at load. A flow endpoint must name one address, so a group of several
hosts is not one; a flow from a host's address, however named, is sent
from that host. Scenario events and expectations take a host name, as
each picks a host's agent. Addresses are canonical dotted quads: a host's
address and the external address are checked when the topology loads, a
raw address where it is named, and no two switches, hosts, groups, the
external name and `external_network` share a name.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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

    action: str  # "allow" | "deny", checked when the topology loads
    src: frozenset[str] | None = None  # ips
    dst: frozenset[str] | None = None


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
        for i, (a, b, lat) in enumerate(self.links):
            for j, s in enumerate((a, b)):
                if s not in self.switches:
                    raise DifcnetError(f"links[{i}][{j}]: {s!r} is not a switch")
            # a negative latency would deliver a packet before it was sent
            if isinstance(lat, bool) or not isinstance(lat, int) or lat < 0:
                raise DifcnetError(
                    f"links[{i}]: latency must be a number of ns, not {lat!r} (an integer >= 0)"
                )
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
                raise DifcnetError(f"hosts[{i}].switch: {h.switch!r} is not a switch")
        # every name resolves to one thing, whichever part of the file names it
        named = [(f"switches[{i}]", s) for i, s in enumerate(self.switches)]
        named += [(f"hosts[{i}]", h.name) for i, h in enumerate(self.hosts)]
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
        elif self.gateway not in self.switches:
            raise DifcnetError(f"external.gateway: {self.gateway!r} is not a switch")
        # the external endpoint attaches to the gateway like a host
        self.endpoints = [*self.hosts, Host(self.external_name, self.external_ip, self.gateway)]
        self._switch_of_ip = {e.ip: e.switch for e in self.endpoints}
        self._addresses = {e.name: (e.ip,) for e in self.endpoints}  # name -> addresses
        self._addresses[EXTERNAL_BINDING] = (self.external_ip,)
        for group, members in self.groups.items():
            for j, m in enumerate(members):
                if m not in self.host_by_name:
                    raise DifcnetError(f"groups.{group}[{j}]: {m!r} is not a host")
            self._addresses[group] = tuple(self.host_by_name[m].ip for m in members)
        self._latency: dict[tuple[str, str], int] = {}
        for a, b, lat in self.links:  # the first link between two switches wins
            self._latency.setdefault((a, b), lat)
            self._latency.setdefault((b, a), lat)
        self._build_tables()
        switches = set(self.switches)
        self._next_hops = {
            s: tuple((t, self.link_latency(s, t), t in switches) for t in ports)
            for s, ports in self._ports.items()
        }

    # --- name resolution -------------------------------------------------

    def resolve(self, name: str) -> tuple[str, ...]:
        """The addresses `name` stands for: an endpoint's address (a host
        or the external endpoint, also under `external_network`), a
        group's member addresses in group order, or a canonical dotted quad
        itself. This is the only place a name becomes addresses."""
        ips = self._addresses.get(name)
        if ips is not None:
            return ips
        try:
            ipv4_bytes(name)
        except ValueError:
            raise UnknownName(f"cannot resolve {name!r} in topology {self.name!r}") from None
        return (name,)

    def switch_of_ip(self, ip: str) -> str:
        try:
            return self._switch_of_ip[ip]
        except KeyError:
            raise UnknownHost(f"no switch attached to {ip}") from None

    def host_switches(self) -> list[str]:
        """Switches with at least one attached host, in topology order."""
        return [s for s in self.switches if any(h.switch == s for h in self.hosts)]

    def enforced_ips(self, switch: str) -> set[str]:
        return {e.ip for e in self.endpoints if e.switch == switch}

    # --- ports and forwarding -------------------------------------------

    def _build_tables(self):
        """Per switch, its ports (neighbour switches in link order, then its
        endpoints in table order) and its forwarding table: a destination's
        port is the first one to the destination's switch's first hop on a
        BFS shortest path, ties broken by link order."""
        adj: dict[str, list[str]] = {s: [] for s in self.switches}
        for a, b, _lat in self.links:
            adj[a].append(b)
            adj[b].append(a)
        self._ports: dict[str, list[str]] = {}
        self._forwarding: dict[str, dict[str, int]] = {}
        for s in self.switches:
            ports = adj[s] + [e.name for e in self.endpoints if e.switch == s]
            self._ports[s] = ports
            port_of: dict[str, int] = {}
            for i, target in enumerate(ports):
                port_of.setdefault(target, i)
            first_hop = _first_hops(adj, s)
            missing = [t for t in self.switches if t not in first_hop]
            if missing:
                raise DifcnetError(
                    f"switch graph is not connected: {s!r} cannot reach {missing[:3]}"
                )
            self._forwarding[s] = {
                e.ip: port_of[e.name if e.switch == s else first_hop[e.switch]]
                for e in self.endpoints
            }

    def ports(self, switch: str) -> list[str]:
        return self._ports[switch]

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


def _first_hops(adj: dict[str, list[str]], src: str) -> dict[str, str]:
    """Each switch reachable from `src` -> the first hop from `src` on a BFS
    shortest path to it, ties broken by link order; `src` maps to itself."""
    first_hop = {src: src}
    q = deque()
    for nb in adj[src]:
        if nb not in first_hop:
            first_hop[nb] = nb
            q.append(nb)
    while q:
        cur = q.popleft()
        for nb in adj[cur]:
            if nb not in first_hop:
                first_hop[nb] = first_hop[cur]
                q.append(nb)
    return first_hop


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
    ips: set[str] = set()
    for name in value if isinstance(value, list) else [value]:
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


class Kind(NamedTuple):
    """What an input field may hold: the words an error says it must be,
    the test a value of it passes and, for a list, the kind of each item.
    A `shape` kind is a list of fixed form, so an error shows a list that
    fails it as it is, not as "a list"."""

    words: str
    test: Callable[[object], bool]
    item: Kind | None = None
    shape: bool = False


def is_count(value) -> bool:
    """An int >= 0 that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


PORT = Kind("an integer from 0 to 65535", lambda v: is_count(v) and v <= 65_535)
PID = Kind("an integer >= 0 or null", lambda v: v is None or is_count(v))  # null: no pid


def one_of(*values: str) -> Kind:
    return Kind(f"one of {', '.join(values)}", values.__contains__)


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


STRING = Kind("a string", lambda v: isinstance(v, str))
STRINGS = Kind("a list of strings", _strings, STRING)
LIST = Kind("a list", lambda v: isinstance(v, list))
MAPPING = Kind("a mapping", lambda v: isinstance(v, dict))


def _joined(*parts: str) -> str:
    return ": ".join(p for p in parts if p)


def _kind_error(error: type[DifcnetError], where: str, value, kind: Kind) -> DifcnetError:
    """`error` saying that `value`, at `where`, is not of `kind`; in a list,
    it names the first item that is not of the item kind. A list (unless
    `kind` is a shape) or a mapping is shown by its kind, any other value
    by its repr."""
    if kind.item is not None and isinstance(value, list):
        for j, item in enumerate(value):
            if not kind.item.test(item):
                return _kind_error(error, f"{where}[{j}]", item, kind.item)
    shown = repr(value) if kind.shape and isinstance(value, list) else (
        {list: "a list", dict: "a mapping"}.get(type(value)) or repr(value)
    )
    return error(_joined(where, f"must be {kind.words}, not {shown}"))


def check_entry(
    error: type[DifcnetError], file: str, field: str, entry, fields: dict, required=()
) -> dict:
    """`entry`, the mapping at `field` ("" for the root) of `file`, checked
    to hold only keys `fields` lists, each with a value of its kind, and
    every key in `required`. Anything else raises `error` as `<file>:
    <field path>: ...`; `file` is "" where the caller adds it."""
    if not isinstance(entry, dict):
        raise _kind_error(error, _joined(file, field), entry, MAPPING)
    for key, value in entry.items():
        kind = fields.get(key)
        if kind is None or not kind.test(value):
            where = _joined(file, f"{field}.{key}" if field else str(key))
            if kind is None:
                raise error(f"{where}: unknown key, expected one of {', '.join(fields)}")
            raise _kind_error(error, where, value, kind)
    for key in required:
        if key not in entry:
            raise error(_joined(file, field, f"missing field {key!r}"))
    return entry


# Each entry of a topology document: {key: kind}. A link is checked on its own.
LINK = Kind(
    "[switch, switch] or [switch, switch, latency_ns]",
    lambda v: isinstance(v, (list, tuple)) and len(v) in (2, 3),
    shape=True,
)
TOPOLOGY_FIELDS = {
    "name": STRING, "switches": STRINGS, "links": LIST, "hosts": LIST, "external": MAPPING,
    "groups": MAPPING, "firewall": LIST,
}
HOST_FIELDS = {"name": STRING, "ip": STRING, "switch": STRING}  # all required
EXTERNAL_FIELDS = {"name": STRING, "ip": STRING, "gateway": STRING}
# the Topology field that each key of the external section sets
EXTERNAL_AS = {"name": "external_name", "ip": "external_ip", "gateway": "gateway"}
_SIDE = Kind("a string or a list of strings", lambda v: isinstance(v, str) or _strings(v), STRING)
FIREWALL_FIELDS = {"action": one_of("allow", "deny"), "src": _SIDE, "dst": _SIDE}


def topology_from_dict(doc: dict) -> Topology:
    check_entry(DifcnetError, "", "", doc, TOPOLOGY_FIELDS, ("switches",))
    links = []
    for i, entry in enumerate(doc.get("links", [])):
        if not LINK.test(entry):
            raise _kind_error(DifcnetError, f"links[{i}]", entry, LINK)
        for j in (0, 1):
            if not isinstance(entry[j], str):
                raise _kind_error(DifcnetError, f"links[{i}][{j}]", entry[j], STRING)
        lat = entry[2] if len(entry) == 3 else DEFAULT_LINK_LATENCY_NS
        links.append((entry[0], entry[1], lat))
    hosts = [
        Host(**check_entry(DifcnetError, "", f"hosts[{i}]", h, HOST_FIELDS, tuple(HOST_FIELDS)))
        for i, h in enumerate(doc.get("hosts", []))
    ]
    ext = check_entry(DifcnetError, "", "external", doc.get("external", {}), EXTERNAL_FIELDS)
    groups = {}
    for group, members in doc.get("groups", {}).items():
        for value, kind in ((group, STRING), (members, STRINGS)):
            if not kind.test(value):
                raise _kind_error(DifcnetError, f"groups.{group}", value, kind)
        groups[group] = tuple(members)

    topo = Topology(
        name=doc.get("name", "unnamed"),
        switches=list(doc["switches"]),
        hosts=hosts,
        links=links,
        groups=groups,
        **{EXTERNAL_AS[key]: value for key, value in ext.items()},  # the defaults are Topology's
    )

    fw = []
    for i, r in enumerate(doc.get("firewall", [])):
        where = f"firewall[{i}]"
        check_entry(DifcnetError, "", where, r, FIREWALL_FIELDS, ("action",))
        fw.append(
            FirewallRule(
                action=r["action"],
                src=_firewall_side(topo, r.get("src"), f"{where}.src"),
                dst=_firewall_side(topo, r.get("dst"), f"{where}.dst"),
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
