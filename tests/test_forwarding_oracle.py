"""Topology's ports, forwarding tables and endpoint attachment against a
slow reference on random switch graphs: duplicate links, self-links,
cycles and equal-length alternative paths, hosts on any switch and any
gateway, including a switch named "" and the default gateway. Some drawn
hosts are named like a switch, which the topology refuses at load."""

from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from difcnet.errors import DifcnetError, UnknownHost
from difcnet.topology import Host, Topology

SWITCH_NAMES = ["", "S1", "S2", "S3", "core", "edge", "S7", "S8"]
HOST_NAMES = ["H0", "H1", "H2", "H3", "H4", "H5"]
EXTERNAL_NAME = "ext"
EXTERNAL_IP = "203.0.113.10"


def reference_tables(switches, hosts, links, gateway, external_name, external_ip):
    """(ports, forwarding) per switch: each switch's ports are its link
    neighbours in link order, then its hosts, then the external endpoint at
    the gateway; a destination's port is found with `list.index` on the
    next hop, got by walking back along BFS parents from the destination's
    switch. A disconnected switch graph raises DifcnetError."""
    neighbors = {s: [] for s in switches}
    for a, b, _lat in links:
        neighbors[a].append(b)
        neighbors[b].append(a)
    ports = {}
    for s in switches:
        endpoints = list(neighbors[s]) + [h.name for h in hosts if h.switch == s]
        if s == gateway:
            endpoints.append(external_name)
        ports[s] = endpoints
    next_hop = {}
    for src in switches:
        prev = {src: src}
        q = deque([src])
        while q:
            cur = q.popleft()
            for nb in neighbors[cur]:
                if nb not in prev:
                    prev[nb] = cur
                    q.append(nb)
        hops = {}
        for dst in switches:
            if dst == src or dst not in prev:
                continue
            node = dst
            while prev[node] != src:
                node = prev[node]
            hops[dst] = node
        next_hop[src] = hops
    if any(a != b and b not in next_hop[a] for a in switches for b in switches):
        raise DifcnetError("switch graph is not connected")
    forwarding = {}
    for s in switches:
        table = {}
        for h in hosts:
            table[h.ip] = ports[s].index(h.name if h.switch == s else next_hop[s][h.switch])
        if s == gateway:
            table[external_ip] = ports[s].index(external_name)
        else:
            table[external_ip] = ports[s].index(next_hop[s][gateway])
        forwarding[s] = table
    return ports, forwarding


def reference_attachment(switches, hosts, gateway, external_ip):
    """(addresses enforced per switch, switch per address): each host's
    address at its own switch, and the external address at the gateway."""
    enforced = {s: {h.ip for h in hosts if h.switch == s} for s in switches}
    enforced[gateway].add(external_ip)
    switch_of = {h.ip: h.switch for h in hosts}
    switch_of[external_ip] = gateway
    return enforced, switch_of


@st.composite
def switch_graphs(draw, connected=True):
    """(switches, links): 1-8 switches; a connected graph is a random
    spanning tree plus extra links, a disconnected one has links only
    inside each of two parts. Links come in random order and direction."""
    n = draw(st.integers(min_value=1 if connected else 2, max_value=8))
    switches = draw(st.permutations(SWITCH_NAMES))[:n]
    if connected:
        parts = [switches]
        pairs = [(switches[i], switches[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    else:
        cut = draw(st.integers(min_value=1, max_value=n - 1))
        parts = [switches[:cut], switches[cut:]]
        pairs = []
    pair = st.sampled_from(parts).flatmap(lambda p: st.tuples(st.sampled_from(p), st.sampled_from(p)))
    pairs = draw(st.permutations(pairs + draw(st.lists(pair, max_size=10))))
    links = [(b, a, 100_000) if draw(st.booleans()) else (a, b, 100_000) for a, b in pairs]
    return switches, links


@st.composite
def networks(draw, connected=True):
    switches, links = draw(switch_graphs(connected))
    names = draw(st.lists(st.sampled_from(HOST_NAMES), unique=True, max_size=6))
    if names and draw(st.integers(0, 3)) == 0:  # about one draw in four: refused at load
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(switches))
    hosts = [
        Host(name, f"10.0.0.{i + 1}", draw(st.sampled_from(switches)))
        for i, name in enumerate(names)
    ]
    gateway = draw(st.sampled_from(switches + [""]))  # "" picks the first switch
    return switches, hosts, links, gateway


def _build(switches, hosts, links, gateway):
    return Topology(
        "t", list(switches), hosts, links,
        external_name=EXTERNAL_NAME, external_ip=EXTERNAL_IP, gateway=gateway,
    )


def _refused_for_a_name(switches, hosts, links, gateway) -> bool:
    """Whether a host takes a switch's name; if so, checks that the
    topology refuses it at load, naming the first such host."""
    clash = next(((i, h.name) for i, h in enumerate(hosts) if h.name in switches), None)
    if clash is None:
        return False
    i, name = clash
    with pytest.raises(DifcnetError) as exc:
        _build(switches, hosts, links, gateway)
    assert str(exc.value) == (
        f"hosts[{i}]: name {name!r} is already used by switches[{switches.index(name)}]"
    )
    return True


@given(networks())
def test_ports_forwarding_and_next_hops_equal_the_reference(net):
    switches, hosts, links, gateway = net
    if _refused_for_a_name(*net):
        return
    topo = _build(*net)
    ports, forwarding = reference_tables(
        switches, hosts, links, gateway or switches[0], EXTERNAL_NAME, EXTERNAL_IP
    )
    for s in switches:
        assert topo.ports(s) == ports[s], s
        assert topo.forwarding(s) == forwarding[s], s
        assert topo.next_hops(s) == tuple(
            (t, topo.link_latency(s, t), t in switches) for t in ports[s]
        ), s


@given(networks())
def test_enforced_addresses_and_attachment_equal_the_reference(net):
    switches, hosts, links, gateway = net
    if _refused_for_a_name(*net):
        return
    topo = _build(*net)
    enforced, switch_of = reference_attachment(
        switches, hosts, gateway or switches[0], EXTERNAL_IP
    )
    for s in switches:
        assert topo.enforced_ips(s) == enforced[s], s
    for ip, s in switch_of.items():
        assert topo.switch_of_ip(ip) == s, ip
    with pytest.raises(UnknownHost):
        topo.switch_of_ip("192.0.2.1")
    for h in hosts:
        assert topo.resolve(h.name) == (h.ip,)
    assert topo.resolve(EXTERNAL_NAME) == topo.resolve("external_network") == (EXTERNAL_IP,)


@given(networks(connected=False))
def test_a_disconnected_switch_graph_is_refused(net):
    switches, hosts, links, gateway = net
    with pytest.raises(DifcnetError):
        reference_tables(switches, hosts, links, gateway or switches[0], EXTERNAL_NAME, EXTERNAL_IP)
    if _refused_for_a_name(*net):
        return
    with pytest.raises(DifcnetError, match="not connected"):
        _build(*net)
