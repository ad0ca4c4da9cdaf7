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
"""

from __future__ import annotations

import itertools
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


def iter_routes(candidates: list[str], k: int):
    return itertools.permutations(candidates, k)


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
    target_ip = topology.host_by_name[target].ip
    candidates = [h.ip for h in topology.hosts if h.name != target]
    return (
        FirewallRule("allow", frozenset(candidates[:allowed]), frozenset({target_ip})),
        FirewallRule("deny", None, frozenset({target_ip})),
    )


# -- reachability ---------------------------------------------------------


def chain_exists(
    topology: Topology,
    start: str,
    target: str,
    max_steps: int,
    admit,
    label_of,
) -> bool:
    names = [h.name for h in topology.hosts]
    ip_of = {h.name: h.ip for h in topology.hosts}
    stack: list[tuple[str, int, int, frozenset[str]]] = [
        (start, label_of(start), 0, frozenset({start}))
    ]
    while stack:
        x, bits, used, path = stack.pop()
        if used >= max_steps:
            continue
        for y in names:
            if y in path:
                continue
            ok, delivered = admit(ip_of[x], ip_of[y], bits)
            if not ok:
                continue
            if y == target:
                return True
            stack.append((y, delivered | label_of(y), used + 1, path | {y}))
    return False


def hosts_reaching(
    topology: Topology, target: str, max_steps: int, admit, label_of
) -> set[str]:
    return {
        h.name
        for h in topology.hosts
        if h.name != target
        and chain_exists(topology, h.name, target, max_steps, admit, label_of)
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
    policy_label = {
        h.name: compiled.label_of_ip(h.ip).bits for h in topology.hosts
    }
    candidates = [h.name for h in topology.hosts if h.name != target]
    n = len(candidates)
    out = []
    for k, allowed in rows:
        total = route_count(n, k)
        fw_admit = make_firewall_admit(allowlist_firewall(topology, target, allowed))
        if total == 0:
            # no routes of this length exist, so all of them are covered
            out.append(
                CoverageRow(
                    topology=topology.name, steps=k, allowed=allowed,
                    routes=0, evaluated=0, sampled=False,
                    firewall_coverage=100.0, policy_coverage=100.0,
                )
            )
            continue
        if total <= sample_threshold:
            routes = list(iter_routes(candidates, k))
            sampled = False
        else:
            rng = random.Random(seed)
            routes = [tuple(rng.sample(candidates, k)) for _ in range(sample_size)]
            sampled = True
        fw_blocked = 0
        pol_blocked = 0
        for route in routes:
            if route_blocked(route, target, topology, fw_admit, lambda h: 0):
                fw_blocked += 1
            if route_blocked(
                route, target, topology, policy_admit, policy_label.__getitem__
            ):
                pol_blocked += 1
        out.append(
            CoverageRow(
                topology=topology.name,
                steps=k,
                allowed=allowed,
                routes=total,
                evaluated=len(routes),
                sampled=sampled,
                firewall_coverage=100.0 * fw_blocked / len(routes),
                policy_coverage=100.0 * pol_blocked / len(routes),
            )
        )
    return out
