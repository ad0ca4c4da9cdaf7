"""Attack-route analysis: who can reach what, and how many lateral routes
a deployment cuts off.

A chain h = x1 -> x2 -> ... -> xj -> target models an attacker who starts
on h (initial compromise happens out of band), re-terminates on each pivot
host, and opens a fresh connection for every hop. Hosts on a chain are
distinct. Under label enforcement the attacker's process label grows at
every pivot: it absorbs the delivered packet label plus the pivot host's
own label, so provenance survives re-termination.

A route of length k is an ordered k-permutation of the non-target hosts;
the attack succeeds when every hop, including the final hop into the
target, is admitted.

What follows a prefix of a chain depends only on its last host, the set of
hosts it has visited and the label bits it carries. So both searches here,
`chain_exists` and the exhaustive rows of `coverage_report`, merge the
prefixes that reach the same state and expand each state once, keeping a
count of the prefixes it stands for (Held and Karp's dynamic programme
over subsets, J. SIAM 1962).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# bench/tracing.py patches apply_privileges and match_policies by name here
from .dataplane import apply_privileges, decide, match_policies  # noqa: F401
from .netcl.ast import Drop
from .netcl.compiler import CompiledPolicy
from .topology import FirewallRule, Topology, firewall_admits

SHARED_COVERAGE_TAG = "V"

# (chain length k, number of hosts the packet filter leaves open to the
# target) per topology, matching each deployment's published filter config
DEFAULT_COVERAGE_ROWS = {
    "enterprise": ((6, 1), (5, 2), (4, 3), (3, 4), (2, 5)),
    "cisco": ((5, 2), (4, 4), (3, 6), (2, 8)),
    "stanford": ((4, 10), (3, 20), (2, 30)),
}

SAMPLE_THRESHOLD = 100_000
SAMPLE_SIZE = 20_000


def route_count(n: int, k: int) -> int:
    """Ordered selections of k pivots out of n candidates."""
    if k > n:
        return 0
    return math.perm(n, k)


# -- admission functions --------------------------------------------------


def make_policy_admit(compiled: CompiledPolicy, topology: Topology):
    """Admission by the destination switch's `decide`: any entry but `drop` admits."""

    def admit(src_ip: str, dst_ip: str, label_bits: int) -> tuple[bool, int]:
        cfg = compiled.configs[topology.switch_of_ip(dst_ip)]
        new_bits, entry = decide(cfg, label_bits, 0, src_ip, dst_ip)
        return entry is not None and not isinstance(entry.action, Drop), new_bits

    return admit


def make_firewall_admit(rules: tuple[FirewallRule, ...]):
    def admit(src_ip: str, dst_ip: str, label_bits: int) -> tuple[bool, int]:
        return firewall_admits(rules, src_ip, dst_ip), label_bits

    return admit


def allowlist_firewall(topology: Topology, target: str, allowed: int) -> tuple[FirewallRule, ...]:
    """Filter that guards only the target: the first `allowed` non-target
    hosts (topology order) may talk to it, nobody else, everything
    unrelated to the target passes."""
    _, ips, target_ip = _pivots(topology, target)
    return (
        FirewallRule("allow", frozenset(ips[:allowed]), frozenset({target_ip})),
        FirewallRule("deny", None, frozenset({target_ip})),
    )


# -- reachability ---------------------------------------------------------


def _advance(layer: dict, ips: list[str], labels: list[int], admit) -> tuple[dict, int]:
    """One hop from every state of `layer` to every host it has not
    visited. A state is (index of the last host, mask of the visited hosts,
    label bits carried) and maps to the number of prefixes that reach it.
    Returns the admitted successors, merged the same way, and the number of
    prefixes whose hop was refused."""
    nxt: dict = {}
    refused = 0
    for (x, seen, bits), count in layer.items():
        src = ips[x]
        for y, dst in enumerate(ips):
            if seen >> y & 1:
                continue
            ok, delivered = admit(src, dst, bits)
            if ok:
                state = (y, seen | 1 << y, delivered | labels[y])
                nxt[state] = nxt.get(state, 0) + count
            else:
                refused += count
    return nxt, refused


def _pivots(topology: Topology, target: str) -> tuple[list[str], list[str], str]:
    """The non-target hosts' names and addresses, and the target's address."""
    pivots = [h for h in topology.hosts if h.name != target]
    return (
        [h.name for h in pivots],
        [h.ip for h in pivots],
        topology.host_by_name[target].ip,
    )


def _reaches(i: int, ips: list[str], labels: list[int], target_ip: str, steps: int, admit) -> bool:
    """Whether a chain of at most `steps` hops leads from pivot `i` into the target."""
    layer = {(i, 1 << i, labels[i]): 1}
    for used in range(steps):
        if any(admit(ips[x], target_ip, bits)[0] for x, _, bits in layer):
            return True
        if used + 1 < steps:
            layer = _advance(layer, ips, labels, admit)[0]
    return False


def chain_exists(
    topology: Topology,
    start: str,
    target: str,
    max_steps: int,
    admit,
    label_of,
) -> bool:
    """Whether a chain of at most `max_steps` hops leads from `start` into
    `target`."""
    names, ips, target_ip = _pivots(topology, target)
    labels = [label_of(name) for name in names]
    return _reaches(names.index(start), ips, labels, target_ip, max_steps, admit)


def hosts_reaching(
    topology: Topology, target: str, max_steps: int, admit, label_of
) -> set[str]:
    names, ips, target_ip = _pivots(topology, target)
    labels = [label_of(name) for name in names]
    return {
        name
        for i, name in enumerate(names)
        if _reaches(i, ips, labels, target_ip, max_steps, admit)
    }


@dataclass
class ReachabilityCell:
    target: str
    steps: int
    count: int
    hosts: tuple[str, ...]


def reachability_table(
    topology: Topology, targets: list[str], steps: list[int], admit, label_of
) -> list[ReachabilityCell]:
    out = []
    for target in targets:
        for k in steps:
            hs = sorted(hosts_reaching(topology, target, k, admit, label_of))
            out.append(ReachabilityCell(target, k, len(hs), tuple(hs)))
    return out


# -- generated policies ---------------------------------------------------


def build_reachability_policy(topology: Topology, allowed: dict[str, list[str]]) -> str:
    """Per-host unique labels; for each guarded target, drop traffic whose
    provenance includes any host outside its allow list, then admit the
    rest. Labeled-source drops survive pivoting because labels accumulate."""
    lines = [
        f"label_host(ip={h.name}, label={{{h.name}}})" for h in topology.hosts
    ]
    for target, ok_hosts in allowed.items():
        keep = set(ok_hosts) | {target}
        for h in topology.hosts:
            if h.name in keep:
                continue
            lines.append(f"if match(src_ip=={h.name} && dst_ip=={target}) then drop")
    lines.append("if match(dst_ip==any) then allow")
    return "\n".join(lines) + "\n"


def build_coverage_policy(topology: Topology, target: str) -> str:
    """One shared tag on every host plus a single drop rule in front of the
    target: any route's final hop carries the shared tag, so one ternary
    entry closes all of them."""
    tag = SHARED_COVERAGE_TAG
    lines = [
        f"label_host(ip={h.name}, label={{{h.name}, {tag}}})" for h in topology.hosts
    ]
    lines.append(
        f"if match(pkt_label contains {tag} && dst_ip=={target}) then drop"
    )
    lines.append("if match(dst_ip==any) then allow")
    return "\n".join(lines) + "\n"


# -- coverage -------------------------------------------------------------


def route_blocked(route: tuple[str, ...], target: str, topology: Topology, admit, label_of) -> bool:
    ip_of = topology.host_by_name
    bits = label_of(route[0])
    x = route[0]
    for y in route[1:] + (target,):
        ok, delivered = admit(ip_of[x].ip, ip_of[y].ip, bits)
        if not ok:
            return True
        bits = delivered | label_of(y)
        x = y
    return False


def blocked_routes(topology: Topology, target: str, k: int, admit, label_of) -> int:
    """How many of the routes of length k `admit` refuses somewhere, counted
    over merged prefix states rather than route by route. A hop refused
    from a prefix of j pivots blocks each of the perm(n - j - 1, k - j - 1)
    ways to finish the route at once; at length k the hop into the target
    decides."""
    if k < 1:
        raise ValueError(f"a route has at least one pivot, not {k}")
    names, ips, target_ip = _pivots(topology, target)
    labels = [label_of(name) for name in names]
    n = len(ips)
    if k > n:
        return 0
    layer = {(i, 1 << i, labels[i]): 1 for i in range(n)}
    blocked = 0
    for j in range(1, k):
        layer, refused = _advance(layer, ips, labels, admit)
        blocked += refused * math.perm(n - j - 1, k - j - 1)
    for (x, _, bits), count in layer.items():
        if not admit(ips[x], target_ip, bits)[0]:
            blocked += count
    return blocked


@dataclass
class CoverageRow:
    topology: str
    steps: int
    allowed: int
    routes: int
    evaluated: int
    sampled: bool
    firewall_coverage: float  # percent of routes blocked
    policy_coverage: float


def coverage_report(
    topology: Topology,
    target: str,
    rows: tuple[tuple[int, int], ...],
    *,
    sample_threshold: int = SAMPLE_THRESHOLD,
    sample_size: int = SAMPLE_SIZE,
    seed: int = 7,
) -> list[CoverageRow]:
    from .netcl import compile_program, parse

    compiled = compile_program(parse(build_coverage_policy(topology, target)), topology)
    policy_admit = make_policy_admit(compiled, topology)
    policy_label = {h.name: compiled.host_labels.get(h.ip, 0) for h in topology.hosts}
    candidates, _, _ = _pivots(topology, target)
    n = len(candidates)
    out = []
    for k, allowed in rows:
        total = route_count(n, k)
        models = (  # (admit, label_of): the packet filter, then the policy
            (make_firewall_admit(allowlist_firewall(topology, target, allowed)), lambda h: 0),
            (policy_admit, policy_label.__getitem__),
        )
        sampled = total > sample_threshold
        if sampled:
            rng = random.Random(seed)
            routes = [tuple(rng.sample(candidates, k)) for _ in range(sample_size)]
            evaluated = len(routes)
            blocked = [
                sum(route_blocked(route, target, topology, *model) for route in routes)
                for model in models
            ]
        else:
            evaluated = total
            blocked = [blocked_routes(topology, target, k, *model) for model in models]
        # where no route of length k exists (k > n), none is open
        fw, policy = (100.0 * b / evaluated if evaluated else 100.0 for b in blocked)
        out.append(
            CoverageRow(
                topology=topology.name,
                steps=k,
                allowed=allowed,
                routes=total,
                evaluated=evaluated,
                sampled=sampled,
                firewall_coverage=fw,
                policy_coverage=policy,
            )
        )
    return out
