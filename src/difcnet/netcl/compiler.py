"""Compiles a parsed policy program into per-switch configurations.

Placement: a rule lands only on the switch(es) directly attached to the
rule's destination address(es); a destination of `any` (or no destination
conjunct) places the rule on every host-attached switch plus the gateway.
Intermediate switches never hold policy state.

Match entries: each switch holds one list of match entries in ascending
priority, and the first entry that matches a packet decides it. The table a
hardware target would store an entry in is storage accounting only, worked
out by `MatchSpec.table`: a predicate on the packet label (via `contains`,
or via a source name that carries a host-label assignment) needs a ternary
entry, one keyed on a tracker id alone a tracker entry, and anything else
an exact entry. A ternary entry may also carry exact field values, so mixed
predicates stay a single entry.

Source semantics: `src_ip==X` where X has a `label_host` assignment matches
on the packet label (label must cover X's assigned tags), because the label
is what identifies traffic that originated from, or was relayed through, X.
A raw address or unlabeled name matches the source address field exactly.
Destinations always match the address field.

Sharing: one `compile_program` call works out each distinct conjunct's
effect once (its label bits, tracker id, address match, and for a
destination its placements) and reuses it for every rule that holds an
equal conjunct, so rules with the same source or destination share one
`FieldMatch`. The memo lives for that call only. Checks that depend on the
action (reroute port, `modify` field) stay per rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import (
    CompileError,
    DifcnetError,
    PlacementError,
    UnknownHost,
    UnknownName,
)
from ..labels import Label, TagRegistry
from ..topology import Topology
from .ast import (
    Action,
    Conjunct,
    Contains,
    Declassify,
    Endorse,
    LabelFile,
    LabelHost,
    Modify,
    Program,
    Reroute,
    Rule,
)

MODIFIABLE_FIELDS = ("ttl", "options")


@dataclass(frozen=True, slots=True)
class FieldMatch:
    """Exact match over an address field: membership in `values`, inverted
    when `negate` is set."""

    values: frozenset[str]
    negate: bool = False

    def matches(self, ip: str) -> bool:
        return (ip in self.values) != self.negate


@dataclass(frozen=True, slots=True)
class MatchSpec:
    """One compiled match pattern over label bits, tracker id, and exact
    address fields. The label part hits iff the packet label covers every
    tag in `label_mask`: (pkt_bits & label_mask) == label_mask."""

    label_mask: int = 0
    tracker_match: int = 0  # 0 = no tracker predicate
    src: FieldMatch | None = None
    dst: FieldMatch | None = None

    def matches(self, label_bits: int, tracker: int, src_ip: str, dst_ip: str) -> bool:
        if label_bits & self.label_mask != self.label_mask:
            return False
        if self.tracker_match and tracker != self.tracker_match:
            return False
        if self.src is not None and not self.src.matches(src_ip):
            return False
        if self.dst is not None and not self.dst.matches(dst_ip):
            return False
        return True

    @property
    def table(self) -> str:
        """"ternary", "tracker" or "exact": the table that stores this
        pattern on a switch with TCAM, for occupancy accounting."""
        if self.label_mask:
            return "ternary"
        if self.tracker_match:
            return "tracker"
        return "exact"


@dataclass(frozen=True, slots=True)
class TableEntry:
    match: MatchSpec
    action: Action
    priority: int
    source_line: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class PrivilegeEntry:
    """Declassify/endorse stage entry: on match, clear or set `mask` bits in
    the packet label. The tracker id is never touched."""

    match: MatchSpec
    mask: int
    direction: str  # "declassify" | "endorse"
    priority: int
    source_line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SwitchConfig:
    """One switch's state. `entries` and `privilege_entries` are each in
    strictly ascending priority, so a priority names at most one entry of a
    list, and the first entry that matches a packet is the one with the
    lowest priority number."""

    switch_id: str
    entries: tuple[TableEntry, ...] = ()
    privilege_entries: tuple[PrivilegeEntry, ...] = ()
    init_packets: tuple[tuple[str, int], ...] = ()  # (host ip, label bits)

    def __post_init__(self):
        for entries in (self.entries, self.privilege_entries):
            for prev, entry in zip(entries, entries[1:]):
                if entry.priority <= prev.priority:
                    raise CompileError(
                        f"switch {self.switch_id}: entry of priority {entry.priority} "
                        f"follows priority {prev.priority}"
                    )

    def entry_count(self) -> int:
        return len(self.entries) + len(self.privilege_entries)


@dataclass
class CompiledPolicy:
    registry: TagRegistry
    configs: dict[str, SwitchConfig]
    host_labels: dict[str, int]  # ip -> assigned label bits
    # (host name, path) -> tracker id; like `registry`, it also holds what
    # the versions before this one numbered
    file_trackers: dict[tuple[str, str], int]
    rule_count: int = 0

    def label_of_ip(self, ip: str) -> Label:
        """The label assigned to the host at `ip`, empty if none is."""
        return Label(self.host_labels.get(ip, 0))


def _register_tags(program: Program, registry: TagRegistry) -> None:
    # Bit positions follow first appearance in source order. A tag that is
    # both declassified and endorsed is a contradiction, raised for the
    # first such tag before any tag registers. `parse` shares equal
    # conjunct and action nodes, so the distinct nodes (by identity, in
    # source order) are gathered first and each is looked at once.
    nodes: dict[int, object] = {}
    for stmt in program.statements:
        if isinstance(stmt, Rule):
            for c in stmt.conjuncts:
                nodes[id(c)] = c
            nodes[id(stmt.action)] = stmt.action
        else:
            nodes[id(stmt)] = stmt
    pulled: dict[str, type] = {}  # tag -> Declassify or Endorse
    order: dict[str, None] = {}  # tags in order of first appearance
    for node in nodes.values():
        if isinstance(node, (LabelHost, Contains)):
            order.update(dict.fromkeys(node.tags))
        elif isinstance(node, (Endorse, Declassify)):
            for t in node.tags:
                if pulled.setdefault(t, type(node)) is not type(node):
                    raise CompileError(
                        f"tag {t!r} cannot be both declassified and endorsed"
                    )
                order[t] = None
    for t in order:
        registry.register(t)


def _check_modify(action: Modify, line: int) -> None:
    if action.field_name not in MODIFIABLE_FIELDS:
        raise CompileError(f"line {line}: field {action.field_name!r} is not modifiable")
    if action.field_name == "ttl" and not (
        action.value.isdecimal() and int(action.value) <= 255
    ):
        raise CompileError(
            f"line {line}: ttl must be an integer from 0 to 255, not {action.value!r}"
        )


def tracker_of(file_trackers: dict[tuple[str, str], int], ref: str) -> int:
    """The tracker id of the file a `<path>@<host>` reference names, as
    `tracker_id==` conjuncts and scenario expectations write it."""
    path, at, host = str(ref).rpartition("@")
    if not at:
        raise DifcnetError("tracker value must be <path>@<host>")
    tracker = file_trackers.get((host, path))
    if tracker is None:
        raise DifcnetError(f"no tracker assigned for {ref}")
    return tracker


def _resolve(topology: Topology, name: str, line: int) -> tuple[str, ...]:
    """`Topology.resolve`; an unknown name is a CompileError at source line `line`."""
    try:
        return topology.resolve(name)
    except UnknownName as exc:
        raise CompileError(f"line {line}: {exc}") from None


# (label bits, tracker id or 0, source match, destination match, placements):
# what one conjunct adds to a rule. Bits are or-ed in; any other part that is
# not 0 or None replaces the rule's value, so a later conjunct wins.
_Effect = tuple[int, int, FieldMatch | None, FieldMatch | None, tuple[str, ...] | None]


def _conjunct_effect(
    c: Conjunct,
    line: int,
    registry: TagRegistry,
    topology: Topology,
    directive_labels: dict[str, int],
    file_trackers: dict[tuple[str, str], int],
    all_placements: tuple[str, ...],
) -> _Effect:
    """The effect of conjunct `c`, first met on source line `line`. It
    depends on the conjunct alone, never on the rule or its action, so a
    compile shares it among every rule holding an equal conjunct."""
    if isinstance(c, Contains):
        return registry.label_of(c.tags), 0, None, None, None
    if c.lhs == "tracker_id":
        if c.op != "==":
            raise CompileError(f"line {line}: tracker predicates support == only")
        try:
            return 0, tracker_of(file_trackers, c.rhs), None, None, None
        except DifcnetError as exc:
            raise CompileError(f"line {line}: {exc}") from None
    if c.lhs == "src_ip":
        if c.rhs == "any":
            return 0, 0, None, None, None
        if c.op == "==" and c.rhs in directive_labels:
            # labeled source: match provenance via the label bits
            return directive_labels[c.rhs], 0, None, None, None
        if c.op == "!=" and c.rhs in directive_labels:
            raise CompileError(
                f"line {line}: != is not supported on labeled source {c.rhs!r}"
            )
        ips = _resolve(topology, c.rhs, line)
        return 0, 0, FieldMatch(frozenset(ips), negate=(c.op == "!=")), None, None
    # dst_ip
    if c.rhs == "any":
        return 0, 0, None, None, all_placements
    ips = _resolve(topology, c.rhs, line)
    if c.op != "==":
        # negated destination can match traffic to any switch
        return 0, 0, None, FieldMatch(frozenset(ips), negate=True), all_placements
    try:
        placements = tuple(dict.fromkeys(topology.switch_of_ip(ip) for ip in ips))
    except UnknownHost:
        raise PlacementError(
            f"line {line}: destination {c.rhs!r} has no attached switch"
        ) from None
    return 0, 0, None, FieldMatch(frozenset(ips)), placements


def compile_program(
    program: Program, topology: Topology, previous: CompiledPolicy | None = None
) -> CompiledPolicy:
    """`program`'s configs for every switch of `topology`. Compiled against
    `previous`, the policy version it follows in a run, it continues that
    version's numbering: every tag keeps its bit and every tracked file its
    tracker id, and new ones take numbers no earlier version used."""
    registry = TagRegistry()
    for name in previous.registry.name_to_id if previous else ():
        registry.register(name)  # in index order, so each keeps its index
    _register_tags(program, registry)

    # Host label assignments. Directive names may be hosts or groups; in the
    # group case every member receives the label. Multiple directives for
    # the same host union.
    host_labels: dict[str, int] = {}
    directive_labels: dict[str, int] = {}  # directive name -> label bits
    file_trackers = dict(previous.file_trackers) if previous else {}
    next_tracker = max(file_trackers.values(), default=0) + 1
    for stmt in program.labelings:
        if isinstance(stmt, LabelHost):
            bits = registry.label_of(stmt.tags)
            directive_labels[stmt.host] = directive_labels.get(stmt.host, 0) | bits
            ips = _resolve(topology, stmt.host, stmt.line)
            if any(ip not in topology.host_by_ip for ip in ips):
                raise CompileError(
                    f"line {stmt.line}: label_host {stmt.host!r} is not a host "
                    f"or a group of hosts"
                )
            for ip in ips:
                host_labels[ip] = host_labels.get(ip, 0) | bits
        elif isinstance(stmt, LabelFile):
            if stmt.host not in topology.host_by_name:
                raise CompileError(
                    f"line {stmt.line}: label_file host {stmt.host!r} is not a host "
                    f"in topology {topology.name!r}"
                )
            key = (stmt.host, stmt.path)
            if key not in file_trackers:
                file_trackers[key] = next_tracker
                next_tracker += 1

    all_placements = tuple(topology.host_switches()) + (
        (topology.gateway,) if topology.gateway not in topology.host_switches() else ()
    )

    entries: dict[str, list[TableEntry]] = {s: [] for s in topology.switches}
    privilege: dict[str, list[PrivilegeEntry]] = {s: [] for s in topology.switches}

    # one compile call works out each distinct conjunct's effect once
    effects: dict[Conjunct, _Effect] = {}
    for rule in program.rules:
        label_mask = 0
        tracker_match = 0
        src_field: FieldMatch | None = None
        dst_field: FieldMatch | None = None
        placements: tuple[str, ...] | None = None

        for c in rule.conjuncts:
            effect = effects.get(c)
            if effect is None:
                effect = effects[c] = _conjunct_effect(
                    c, rule.line, registry, topology, directive_labels, file_trackers,
                    all_placements,
                )
            bits, tracker, src, dst, where = effect
            label_mask |= bits
            if tracker:
                tracker_match = tracker
            if src is not None:
                src_field = src
            if dst is not None:
                dst_field = dst
            if where is not None:
                placements = where

        if placements is None:
            placements = all_placements

        if isinstance(rule.action, Reroute):
            for s in placements:
                if rule.action.port >= len(topology.ports(s)):
                    raise CompileError(
                        f"line {rule.line}: switch {s} has no egress port {rule.action.port}"
                    )
        if isinstance(rule.action, Modify):
            _check_modify(rule.action, rule.line)

        spec = MatchSpec(
            label_mask=label_mask,
            tracker_match=tracker_match,
            src=src_field,
            dst=dst_field,
        )

        if isinstance(rule.action, (Declassify, Endorse)):
            mask = registry.label_of(rule.action.tags)
            direction = "declassify" if isinstance(rule.action, Declassify) else "endorse"
            entry = PrivilegeEntry(spec, mask, direction, rule.priority, rule.line)
            for s in placements:
                privilege[s].append(entry)
            continue

        entry = TableEntry(spec, rule.action, rule.priority, rule.line)
        for s in placements:
            entries[s].append(entry)

    init: dict[str, list[tuple[str, int]]] = {s: [] for s in topology.switches}
    for ip in sorted(host_labels):
        init[topology.switch_of_ip(ip)].append((ip, host_labels[ip]))

    configs = {
        s: SwitchConfig(
            switch_id=s,
            entries=tuple(entries[s]),
            privilege_entries=tuple(privilege[s]),
            init_packets=tuple(init[s]),
        )
        for s in topology.switches
    }
    return CompiledPolicy(
        registry=registry,
        configs=configs,
        host_labels=host_labels,
        file_trackers=file_trackers,
        rule_count=len(program.rules),
    )


def _by_priority(entries) -> tuple:
    """The first of `entries` met at each priority, in ascending priority."""
    first: dict[int, object] = {}
    for entry in entries:
        first.setdefault(entry.priority, entry)
    return tuple(first[p] for p in sorted(first))


def merge_to_single_switch(compiled: CompiledPolicy, switch_id: str) -> SwitchConfig:
    """Collapse a deployment onto one switch holding every entry, used to
    check that distribution never changes verdicts. The compiler puts one
    entry object on every switch a rule lands on, so an entry replicated on
    several switches counts once, by its priority."""
    configs = compiled.configs.values()
    return SwitchConfig(
        switch_id=switch_id,
        entries=_by_priority(e for cfg in configs for e in cfg.entries),
        privilege_entries=_by_priority(e for cfg in configs for e in cfg.privilege_entries),
        init_packets=tuple(p for cfg in configs for p in cfg.init_packets),
    )


# --- dynamic update ------------------------------------------------------


@dataclass(frozen=True)
class SwitchUpdate:
    # match entries, privilege entries and (host ip, label bits) init packets
    adds: tuple
    removes: tuple

    @property
    def empty(self) -> bool:
        return not self.adds and not self.removes


@dataclass(frozen=True)
class UpdatePlan:
    per_switch: dict[str, SwitchUpdate]

    @property
    def empty(self) -> bool:
        return all(u.empty for u in self.per_switch.values())

    def counts(self) -> tuple[int, int]:
        adds = sum(len(u.adds) for u in self.per_switch.values())
        removes = sum(len(u.removes) for u in self.per_switch.values())
        return adds, removes


def _unmatched(old, new) -> tuple[list, list]:
    """(entries of `new` equal to no entry of `old`, entries of `old` equal
    to no entry of `new`), each in its sequence's order. A priority names at
    most one entry of each side, so each priority on both sides is one
    equality test."""
    olds = {e.priority: e for e in old}
    kept = {e.priority for e in new if e.priority in olds and olds[e.priority] == e}
    return (
        [e for e in new if e.priority not in kept],
        [e for e in old if e.priority not in kept],
    )


def diff_configs(old: dict[str, SwitchConfig], new: dict[str, SwitchConfig]) -> UpdatePlan:
    """Entries common to both sides (structurally equal match, action, and
    priority) are untouched; the plan lists only real adds and removes:
    match entries, then privilege entries, then init packets, each in
    config order."""
    plan: dict[str, SwitchUpdate] = {}
    for s in dict.fromkeys(list(old) + list(new)):
        a = old[s] if s in old else SwitchConfig(s)
        b = new[s] if s in new else SwitchConfig(s)
        entry_adds, entry_removes = _unmatched(a.entries, b.entries)
        priv_adds, priv_removes = _unmatched(a.privilege_entries, b.privilege_entries)
        old_init, new_init = set(a.init_packets), set(b.init_packets)
        plan[s] = SwitchUpdate(
            adds=(*entry_adds, *priv_adds, *(p for p in b.init_packets if p not in old_init)),
            removes=(
                *entry_removes, *priv_removes, *(p for p in a.init_packets if p not in new_init)
            ),
        )
    return UpdatePlan(plan)
