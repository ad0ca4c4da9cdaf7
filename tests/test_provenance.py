"""Provenance slicing over agent event logs.

There are two references. The first is a versioned dependency graph: every
event that moves state appends a new version of its target whose parents
are the source's current version and (for weak updates) the target's
previous version. The ancestor set of an entity's latest version,
projected back onto entities, is what backward_slice must return. The
second is the earlier slice, which sorted by a (time_ns, seq) tuple and
regenerated each event's edges on every call; on any log, in any list
order, it must give the same answer as the slice over the edges that
events fix when they are made.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from difcnet.hostagent import AgentEvent, HostAgent, SeqSource
from difcnet.labels import Label, tag_bit
from difcnet.packets import PROTO_TCP, SimPacket, TcpFlags
from difcnet.provenance import (
    backward_slice,
    file_entity,
    flow_entity,
    host_entity,
    merged_events,
    pid_entity,
)


class VersionedGraph:
    """Reference model. Entities are whatever hashable ids the caller uses."""

    def __init__(self):
        self.version = {}
        self.parents = {}

    def _cur(self, e):
        v = self.version.get(e, 0)
        self.version.setdefault(e, 0)
        self.parents.setdefault((e, v), set())
        return (e, v)

    def _bump(self, e):
        v = self.version.get(e, 0) + 1
        self.version[e] = v
        node = (e, v)
        self.parents[node] = set()
        return node

    def weak(self, src, dst):
        s = self._cur(src)
        d_prev = self._cur(dst)
        d = self._bump(dst)
        self.parents[d] = {d_prev, s}

    def strong(self, src, dst):
        s = self._cur(src)
        d = self._bump(dst)
        self.parents[d] = {s}

    def ancestors(self, e):
        start = self._cur(e)
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for p in self.parents.get(node, ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return {ent for ent, _ in seen}


def _flow_edges(ev):
    """Yields (source, target, strong) influence edges for one event."""
    if ev.kind == "spawn":
        yield host_entity(ev.host), pid_entity(ev.host, ev.pid), True
    elif ev.kind == "read":
        yield file_entity(ev.host, ev.inode), pid_entity(ev.host, ev.pid), False
    elif ev.kind in ("write", "create"):
        yield pid_entity(ev.host, ev.pid), file_entity(ev.host, ev.inode), False
    elif ev.kind == "accept":
        yield flow_entity(ev.flow), pid_entity(ev.host, ev.pid), False
    elif ev.kind == "send":
        yield pid_entity(ev.host, ev.pid), flow_entity(ev.flow), False
    elif ev.kind == "label-file":
        yield host_entity(ev.host), file_entity(ev.host, ev.inode), False
    # label-init, deliver, label-ack, exit, restore, reboot and any other
    # kind: no cross-entity flow


def reference_slice(events, sink, *, until_seq=None):
    """The earlier backward_slice: a tuple-keyed sort and a fresh edge
    generator per event on every call."""
    active = {sink}
    result = {sink}
    ordered = sorted(events, key=lambda e: (e.time_ns, e.seq))
    for ev in reversed(ordered):
        if until_seq is not None and ev.seq > until_seq:
            continue
        for source, target, strong in _flow_edges(ev):
            if target not in active:
                continue
            active.add(source)
            result.add(source)
            if strong:
                active.discard(target)
    return result


# -- hand-built cases ------------------------------------------------------


def _two_hosts():
    seq = SeqSource()
    a = HostAgent("HA", "10.0.0.1", seq_source=seq)
    b = HostAgent("HB", "10.0.0.2", seq_source=seq)
    a.initialize(Label(tag_bit(0)), (("/a/secret", 1),))
    b.initialize(Label(tag_bit(1)))
    return a, b


def _transfer(a, b, pid_a, pid_b, sport, t):
    """One labeled packet from a to b, delivered and accepted."""
    pkt = SimPacket(
        src_ip=a.ip, dst_ip=b.ip, src_port=sport, dst_port=80,
        protocol=PROTO_TCP, tcp_flags=TcpFlags.SYN,
    )
    pkt = a.label_outgoing(pid_a, pkt, now_ns=t)
    b.deliver(pkt, now_ns=t + 1)
    b.accept(pid_b, pkt.flow_key, now_ns=t + 2)
    return pkt.flow_key


def test_cross_host_chain():
    a, b = _two_hosts()
    a.spawn(100, now_ns=10)
    a.read(100, a.inode_of("/a/secret"), now_ns=20)
    b.spawn(200, now_ns=30)
    key = _transfer(a, b, 100, 200, 41000, t=40)
    b.create(200, "/b/copy", now_ns=50)

    events = merged_events(a.events, b.events)
    result = backward_slice(events, file_entity("HB", b.inode_of("/b/copy")))
    assert result == {
        file_entity("HB", b.inode_of("/b/copy")),
        pid_entity("HB", 200),
        host_entity("HB"),
        flow_entity(str(key)),
        pid_entity("HA", 100),
        host_entity("HA"),
        file_entity("HA", a.inode_of("/a/secret")),
    }


def test_unrelated_activity_is_excluded():
    a, b = _two_hosts()
    a.spawn(100, now_ns=10)
    a.spawn(101, now_ns=11)
    a.create(101, "/a/noise", now_ns=12)  # different pid, no edge to sink
    a.create(100, "/a/out", now_ns=20)

    result = backward_slice(a.events, file_entity("HA", a.inode_of("/a/out")))
    assert pid_entity("HA", 101) not in result
    assert file_entity("HA", a.inode_of("/a/noise")) not in result


def test_respawned_pid_does_not_leak_old_incarnation():
    a, _ = _two_hosts()
    a.spawn(100, now_ns=10)
    a.read(100, a.inode_of("/a/secret"), now_ns=20)
    a.exit(100, now_ns=30)
    a.spawn(100, now_ns=40)  # same number, new incarnation
    a.create(100, "/a/clean", now_ns=50)

    result = backward_slice(a.events, file_entity("HA", a.inode_of("/a/clean")))
    # the secret was only touched by the first incarnation
    assert file_entity("HA", a.inode_of("/a/secret")) not in result
    # but the pid itself (current incarnation) is part of the answer
    assert pid_entity("HA", 100) in result
    assert result == {
        file_entity("HA", a.inode_of("/a/clean")),
        pid_entity("HA", 100),
        host_entity("HA"),
    }


def test_until_seq_cuts_late_edges():
    a, _ = _two_hosts()
    a.spawn(100, now_ns=10)
    a.create(100, "/a/out", now_ns=20)
    cut = a.events[-1].seq
    a.read(100, a.inode_of("/a/secret"), now_ns=30)
    a.write(100, a.inode_of("/a/out"), now_ns=40)

    sink = file_entity("HA", a.inode_of("/a/out"))
    early = backward_slice(a.events, sink, until_seq=cut)
    assert file_entity("HA", a.inode_of("/a/secret")) not in early
    late = backward_slice(a.events, sink)
    assert file_entity("HA", a.inode_of("/a/secret")) in late


def test_merged_events_total_order():
    a, b = _two_hosts()
    a.spawn(1, now_ns=100)
    b.spawn(1, now_ns=100)  # same time, seq breaks the tie
    ev = merged_events(a.events, b.events)
    assert [e.seq for e in ev] == sorted(e.seq for e in ev)


EDGE_KINDS = ("spawn", "read", "write", "create", "accept", "send", "label-file")
# the agent's kinds without an edge, and two kinds no agent emits, which
# must have none either
KINDS = EDGE_KINDS + (
    "label-init", "deliver", "label-ack", "declassify", "endorse", "exit",
    "restore", "reboot",
)


@given(
    st.sampled_from(KINDS),
    st.sampled_from(("HA", "HB")),
    st.integers(0, 3),
    st.integers(0, 3),
    st.sampled_from(("", "f0", "f1")),
)
def test_event_edge_is_the_generated_edge(kind, host, pid, inode, flow):
    ev = AgentEvent(1, 0, host, kind, pid=pid, inode=inode, flow=flow)
    edges = list(_flow_edges(ev))
    if not edges:
        assert ev.source is None and ev.target is None
    else:
        [(source, target, strong)] = edges
        assert (ev.source, ev.target) == (source, target)
        assert strong == (kind == "spawn")


@st.composite
def event_logs(draw):
    """(events in a shuffled list order, one or two hosts). seqs are
    distinct, as a shared SeqSource makes them, but time_ns is drawn from
    a few values independently of seq, so ties and times that run against
    seq are common. Small pid, inode and flow spaces make pid reuse
    (repeated spawns), reboots and restores land on live entities."""
    hosts = draw(st.sampled_from((("HA",), ("HA", "HB"))))
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(hosts),
                # edge kinds twice as often, so chains through entities form
                st.sampled_from(EDGE_KINDS + KINDS),
                st.integers(0, 4),
                st.integers(1, 2),
                st.integers(1, 2),
                st.sampled_from(("f0", "f1")),
            ),
            min_size=1,
            max_size=40,
        )
    )
    events = [
        AgentEvent(seq, time_ns, host, kind, pid=pid, inode=inode, flow=flow)
        for seq, (host, kind, time_ns, pid, inode, flow) in enumerate(rows, start=1)
    ]
    return draw(st.permutations(events)), hosts


@st.composite
def slice_queries(draw):
    """A log, a sink and a cut. Each event's target is three times as
    likely a sink as any other entity, so most slices reach past the sink
    itself."""
    events, hosts = draw(event_logs())
    targets = [ev.target for ev in events if ev.target is not None]
    entities = (
        [host_entity(h) for h in hosts]
        + [pid_entity(h, p) for h in hosts for p in (1, 2)]
        + [file_entity(h, i) for h in hosts for i in (1, 2)]
        + [flow_entity(f) for f in ("f0", "f1")]
    )
    sink = draw(st.sampled_from(targets * 3 + entities))
    until_seq = draw(st.one_of(st.none(), st.integers(0, len(events) + 1)))
    return events, sink, until_seq


@settings(max_examples=400, deadline=None)
@given(slice_queries())
def test_slice_equals_reference_on_random_logs(query):
    events, sink, until_seq = query
    assert backward_slice(events, sink, until_seq=until_seq) == reference_slice(
        events, sink, until_seq=until_seq
    )


@given(event_logs(), st.integers(1, 3))
def test_merged_events_sort_by_time_then_seq(log, parts):
    events, _ = log
    lists = [events[i::parts] for i in range(parts)]
    merged = merged_events(*lists)
    assert list(merged) == sorted(events, key=lambda e: (e.time_ns, e.seq))


@settings(max_examples=200, deadline=None)
@given(event_logs(), st.data())
def test_one_merged_log_sliced_many_times_equals_the_reference(log, data):
    """A merged log keeps its edges after the first slice. Every target
    entity, sliced twice at several cuts in a drawn order, must still get
    the reference answer over the shuffled list, and events appended to
    the source lists after the merge must not reach the log."""
    events, hosts = log
    per_host = {h: [ev for ev in events if ev.host == h] for h in hosts}
    merged = merged_events(*per_host.values())
    sinks = list(dict.fromkeys(ev.target for ev in events if ev.target is not None))
    cuts = [None, *data.draw(st.lists(st.integers(0, len(events) + 1), max_size=3))]
    queries = data.draw(st.permutations([(s, c) for s in sinks for c in cuts] * 2))
    want = {q: reference_slice(events, q[0], until_seq=q[1]) for q in queries}
    for sink, cut in queries:
        assert backward_slice(merged, sink, until_seq=cut) == want[sink, cut]

    # a read of a new file into every pid, newer than anything in the log
    seq = len(events) + 1
    late = max(ev.time_ns for ev in events) + 1
    for h in hosts:
        for pid in (1, 2):
            per_host[h].append(AgentEvent(seq, late, h, "read", pid=pid, inode=99))
            seq += 1
    remerged = merged_events(*per_host.values())
    assert file_entity(hosts[0], 99) in backward_slice(remerged, pid_entity(hosts[0], 1))
    for sink, cut in queries:
        assert backward_slice(merged, sink, until_seq=cut) == want[sink, cut]


# -- randomized comparison against the versioned graph ---------------------


def _random_trace(seed):
    """Drive two agents with random operations, mirroring each operation
    into the reference graph as it happens."""
    rng = random.Random(seed)
    seq = SeqSource()
    agents = {}
    graph = VersionedGraph()
    live = {}
    files = {}
    for name, ip, tag in (("HA", "10.0.0.1", 0), ("HB", "10.0.0.2", 1)):
        ag = HostAgent(name, ip, seq_source=seq)
        ag.initialize(Label(tag_bit(tag)), ((f"/{name}/seed", 0),))
        graph.weak(("host", name), ("file", name, ag.inode_of(f"/{name}/seed")))
        agents[name] = ag
        live[name] = []
        files[name] = [ag.inode_of(f"/{name}/seed")]
    next_pid = {"HA": 100, "HB": 500}
    dead = {"HA": [], "HB": []}
    next_port = 40000
    t = 0

    for _ in range(rng.randrange(20, 80)):
        t += 10
        host = rng.choice(("HA", "HB"))
        ag = agents[host]
        op = rng.choice(
            ("spawn", "read", "write", "create", "transfer", "exit", "spawn", "read")
        )
        if op == "spawn":
            if dead[host] and rng.random() < 0.5:
                pid = dead[host].pop()  # reuse a retired number
            else:
                pid = next_pid[host]
                next_pid[host] += 1
            ag.spawn(pid, now_ns=t)
            graph.strong(("host", host), ("pid", host, pid))
            live[host].append(pid)
        elif op == "exit" and live[host]:
            pid = rng.choice(live[host])
            ag.exit(pid, now_ns=t)
            live[host].remove(pid)
            dead[host].append(pid)
        elif op == "read" and live[host]:
            pid = rng.choice(live[host])
            inode = rng.choice(files[host])
            ag.read(pid, inode, now_ns=t)
            graph.weak(("file", host, inode), ("pid", host, pid))
        elif op == "write" and live[host]:
            pid = rng.choice(live[host])
            inode = rng.choice(files[host])
            ag.write(pid, inode, now_ns=t)
            graph.weak(("pid", host, pid), ("file", host, inode))
        elif op == "create" and live[host]:
            pid = rng.choice(live[host])
            inode = ag.create(pid, f"/{host}/f{t}", now_ns=t)
            graph.weak(("pid", host, pid), ("file", host, inode))
            files[host].append(inode)
        elif op == "transfer":
            other = "HB" if host == "HA" else "HA"
            if not live[host] or not live[other]:
                continue
            src_pid = rng.choice(live[host])
            dst_pid = rng.choice(live[other])
            next_port += 1
            key = _transfer(ag, agents[other], src_pid, dst_pid, next_port, t)
            graph.weak(("pid", host, src_pid), ("flow", str(key)))
            graph.weak(("flow", str(key)), ("pid", other, dst_pid))
    return agents, graph, live, files


def test_random_traces_match_versioned_graph():
    for seed in range(40):
        agents, graph, live, files = _random_trace(seed)
        events = merged_events(*(a.events for a in agents.values()))
        for host, ag in agents.items():
            for pid in live[host]:
                got = backward_slice(events, pid_entity(host, pid))
                assert got == graph.ancestors(("pid", host, pid)), (seed, host, pid)
            for inode in files[host]:
                got = backward_slice(events, file_entity(host, inode))
                assert got == graph.ancestors(("file", host, inode)), (seed, host, inode)
