"""The route analysis and the simulator agree on every chain. A chain
h0 -> h1 -> ... -> target is open in the analysis when `route_blocked`
says so; in the simulator each hop is one TCP flow from the pid that
accepted the previous hop to a fresh pid on the next host, and the chain
is delivered when every hop is. Random small worlds (1-3 access switches,
3-4 hosts, some of them labelled, endorse, declassify, address and label
rules, the default allow on or off) must agree on every chain of up to
three hops, and so must the two cases pinned below, where an endorse on
traffic without a label header must reach the next hop."""

from __future__ import annotations

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from difcnet.netcl import compile_program, parse
from difcnet.routes import make_policy_admit, route_blocked
from difcnet.sim import Network
from difcnet.topology import load_topology, topology_from_dict
from tests.conftest import TOPOLOGY_DIR

TAGS = ["A", "B", "C"]
MAX_HOPS = 3
HOP_NS = 50_000_000  # well past one install round trip


def _world_topology(placement: list[int]):
    """A gateway S0 linked to one access switch per distinct entry of
    `placement`; host Hi hangs off access switch S(placement[i])."""
    switches = sorted(set(placement))
    return topology_from_dict(
        {
            "name": "chains",
            "switches": ["S0", *(f"S{s}" for s in switches)],
            "links": [["S0", f"S{s}"] for s in switches],
            "hosts": [
                {"name": f"H{i}", "ip": f"10.8.{s}.{i + 10}", "switch": f"S{s}"}
                for i, s in enumerate(placement)
            ],
            "external": {"name": "external", "ip": "203.0.113.10", "gateway": "S0"},
        }
    )


@st.composite
def worlds(draw):
    """(topology, policy text): label_host lines for some hosts, then
    privilege, address and label rules, then optionally allow-all. Each tag
    is either declassified or endorsed, never both."""
    n_switches = draw(st.integers(1, 3))
    placement = draw(st.lists(st.integers(1, n_switches), min_size=3, max_size=4))
    topo = _world_topology(placement)
    names = [h.name for h in topo.hosts]
    host = st.sampled_from(names)
    tags = st.lists(st.sampled_from(TAGS), min_size=1, max_size=2, unique=True)
    direction = {t: draw(st.sampled_from(["declassify", "endorse"])) for t in TAGS}

    lines = [
        f"label_host(ip={h}, label={{{', '.join(draw(tags))}}})"
        for h in names
        if draw(st.booleans())
    ]
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["privilege", "address", "label"]))
        dst = draw(host)
        if kind == "privilege":
            tag = draw(st.sampled_from(TAGS))
            lines.append(
                f"if match(src_ip=={draw(host)} && dst_ip=={dst}) "
                f"then {direction[tag]}({{{tag}}})"
            )
        elif kind == "address":
            verdict = draw(st.sampled_from(["allow", "drop"]))
            lines.append(f"if match(src_ip=={draw(host)} && dst_ip=={dst}) then {verdict}")
        else:
            verdict = draw(st.sampled_from(["allow", "drop"]))
            tag = draw(st.sampled_from(TAGS))
            lines.append(f"if match(pkt_label contains {tag} && dst_ip=={dst}) then {verdict}")
    if draw(st.booleans()):
        lines.append("if match(dst_ip==any) then allow")
    return topo, "\n".join(lines) + "\n"


def simulated_open_chains(topo, compiled) -> set[tuple[str, ...]]:
    """Every chain of 1 to MAX_HOPS hops, simulated as a prefix tree in one
    network: each tree edge is one flow from the pid that accepted its
    parent's flow (a fresh pid for a chain's first host) to a fresh pid.
    Flows of depth d start at d * HOP_NS. Returns the delivered chains."""
    net = Network(topo, compiled)
    names = [h.name for h in topo.hosts]
    pid_of: dict[tuple[str, ...], int] = {}
    records = {}

    def spawn(chain):
        pid = len(pid_of) + 1
        net.agents[chain[-1]].spawn(pid)
        pid_of[chain] = pid

    frontier = [(h,) for h in names]
    for chain in frontier:
        spawn(chain)
    for depth in range(MAX_HOPS):
        nxt = []
        for chain in frontier:
            for y in names:
                if y in chain:
                    continue
                child = chain + (y,)
                spawn(child)
                records[child] = net.send_flow(
                    flow_id=" ".join(child), src=chain[-1], dst=y,
                    at_ns=depth * HOP_NS, src_port=40000 + len(records),
                    pid=pid_of[chain], accept_pid=pid_of[child], packets=2,
                )
                nxt.append(child)
        frontier = nxt
    net.run()
    return {
        chain
        for chain in records
        if all(records[chain[:i]].verdict == "allow" for i in range(2, len(chain) + 1))
    }


def analysed_open_chains(topo, compiled) -> set[tuple[str, ...]]:
    admit = make_policy_admit(compiled, topo)
    label = {h.name: compiled.label_of_ip(h.ip).bits for h in topo.hosts}
    names = [h.name for h in topo.hosts]
    return {
        chain
        for k in range(2, MAX_HOPS + 2)
        for chain in itertools.permutations(names, k)
        if not route_blocked(chain[:-1], chain[-1], topo, admit, label.__getitem__)
    }


HOSPITAL_ENDORSE = (
    load_topology(TOPOLOGY_DIR / "hospital.yaml"),
    "if match(src_ip==Host1 && dst_ip==PACS) then endorse({B})\n"
    "if match(pkt_label contains B && dst_ip==Host2) then drop\n"
    "if match(dst_ip==any) then allow\n",
)
UNLABELLED_ENDORSE = (
    _world_topology([1, 1, 1]),
    "if match(src_ip==H0 && dst_ip==H2) then endorse({C})\n"
    "if match(pkt_label contains C && dst_ip==H1) then drop\n"
    "if match(dst_ip==any) then allow\n",
)


@settings(max_examples=400, deadline=None)
@given(worlds())
@example(HOSPITAL_ENDORSE)
@example(UNLABELLED_ENDORSE)
def test_chain_delivered_exactly_when_route_open(world):
    topo, text = world
    compiled = compile_program(parse(text), topo)
    assert simulated_open_chains(topo, compiled) == analysed_open_chains(topo, compiled)


def test_pinned_chains_are_blocked_at_the_pivot():
    """The endorsed label reaches the pivot, so the hop out of it drops."""
    for (topo, text), chain in (
        (HOSPITAL_ENDORSE, ("Host1", "PACS", "Host2")),
        (UNLABELLED_ENDORSE, ("H0", "H2", "H1")),
    ):
        delivered = simulated_open_chains(topo, compile_program(parse(text), topo))
        assert chain[:2] in delivered
        assert chain not in delivered
