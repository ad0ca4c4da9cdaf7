"""The three benchmark workloads.

Each workload draws all of its inputs (policy text, traffic schedule,
host-agent operations, slice sinks) from the seed in its constructor,
before anything is timed. rep() then runs one repetition on fresh difcnet
objects and returns its timings, its deterministic fingerprint and its
checked operations. The verdict oracle is computed once per workload,
through routes.make_policy_admit, from the policy in force when each flow
starts.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import math
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import difcnet.netcl as netcl
import difcnet.provenance as provenance
import difcnet.routes as routes
import difcnet.scenario as scenario
import difcnet.topology as topology
from difcnet.hostagent import HostAgent, SeqSource
from difcnet.labels import Label
from difcnet.packets import PROTO_TCP, SimPacket, TcpFlags
from difcnet.sim import Network, SimParams

MS = 1_000_000
S = 1_000_000_000

SENDER_PID = 1
RECEIVER_PID = 2

# coverage targets follow the acceptance suite's choice per campus topology
COVERAGE_TARGETS = {"enterprise": "Server1", "cisco": "host1", "stanford": "host1"}

# Per-source policy evaluations per rate window that the generator allows
# for benign hosts. Under half the limiter's 128, so even a window that
# receives late arrivals from the previous one stays below the limit.
BENIGN_EVALS_PER_WINDOW = 60
RATE_WINDOW_NS = S

GOLDEN_SCENARIOS = ("scenario1", "scenario2", "scenario3")

# Simulated time per timed chunk of a simulator run: a few milliseconds of
# wall time, short enough that some repetition runs each chunk
# undisturbed by other load on the machine.
RUN_SLICE_NS = 20 * MS

# Routes sampled per coverage_report call on a row too large to enumerate.
COVERAGE_CHUNK = 2_000


@dataclass
class Flow:
    flow_id: str
    src: str  # host name, or a raw address for the scanner
    dst: str
    at_ns: int
    protocol: str
    src_port: int
    dst_port: int
    packets: int
    pid: int | None = SENDER_PID
    scanner: bool = False
    version: int = 0  # index of the policy in force at at_ns
    expect_allow: bool = False


@dataclass
class Checks:
    """Checked operations: each is attempted once and may fail."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def add(self, other: Checks) -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


@dataclass
class Rep(Checks):
    """One repetition's timed chunks, fingerprint and checked operations.
    Each *_parts list holds one wall time per chunk of work, in the same
    order in every repetition (simulator chunks are timed by RunMeter)."""

    setup_parts: list[float] = field(default_factory=list)
    routes: int = 0  # routes evaluated by coverage_report
    route_parts: list[float] = field(default_factory=list)
    slice_parts: list[float] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)


@contextmanager
def _timed(parts: list[float]):
    t0 = time.perf_counter()
    yield
    parts.append(time.perf_counter() - t0)


def _place_in_time(rng, flows, span_ns, gaps, evals_of) -> None:
    """Assign start times uniformly over span_ns, moving a flow forward by
    whole rate windows until its source stays within
    BENIGN_EVALS_PER_WINDOW and it avoids every (start, end) quiet gap."""
    used: dict[tuple[str, int], int] = {}
    for f in flows:
        t = rng.randrange(span_ns)
        while True:
            for lo, hi in gaps:
                if lo <= t < hi:
                    t = hi
            key = (f.src, t // RATE_WINDOW_NS)
            if used.get(key, 0) + evals_of(f) <= BENIGN_EVALS_PER_WINDOW:
                break
            t += RATE_WINDOW_NS
        used[key] = used.get(key, 0) + evals_of(f)
        f.at_ns = t
    flows.sort(key=lambda f: (f.at_ns, f.flow_id))


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _slice_fingerprint(result: set) -> list:
    return [len(result), _digest(sorted(map(repr, result)))]


def _run_slices(rep: Rep, events, sinks) -> list:
    gc.collect()  # so no collection of earlier phases' garbage lands here
    results = []
    for sink in sinks:
        with _timed(rep.slice_parts):
            results.append(provenance.backward_slice(events, sink))
    for sink, result in zip(sinks, results):
        rep.check(sink in result, f"slice of {sink} lacks its sink")
    return [_slice_fingerprint(r) for r in results]


def _run_coverage(rep: Rep, topo, samples: int) -> list:
    """coverage_report on one topology with its default rows. A row too
    large to enumerate is sampled `samples` routes at a time in calls of
    COVERAGE_CHUNK routes with consecutive seeds, so each timed chunk stays
    short. Every row must count math.perm(n, k) routes and reach 100%
    policy coverage."""
    target = COVERAGE_TARGETS[topo.name]
    n = len(topo.hosts) - 1
    out = []
    gc.collect()
    for spec in routes.DEFAULT_COVERAGE_ROWS[topo.name]:
        sampled = math.perm(n, spec[0]) > routes.SAMPLE_THRESHOLD
        for i in range(samples // COVERAGE_CHUNK if sampled else 1):
            with _timed(rep.route_parts):
                (row,) = routes.coverage_report(
                    topo, target, (spec,), sample_size=COVERAGE_CHUNK, seed=7 + i
                )
            rep.routes += row.evaluated
            rep.check(
                row.routes == math.perm(n, row.steps) and row.policy_coverage == 100.0,
                f"coverage {topo.name} k={row.steps}: routes={row.routes} "
                f"policy={row.policy_coverage}",
            )
            out.append([row.steps, row.routes, row.evaluated, round(row.firewall_coverage, 6)])
    return out


# -- simulator workloads ----------------------------------------------------


class SimWorkload:
    """Shared shape of fastpath and churn: load, parse and compile every
    policy version, build the Network, schedule traffic and updates, run,
    then check each flow, run coverage_report on the same topology and
    slice the run's own agent logs."""

    topology_file: str
    params: SimParams
    slice_sinks = 16
    # routes sampled per large coverage row: one chunk
    coverage_sample = COVERAGE_CHUNK

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.rng = random.Random(seed)
        self.topology_path = root / "scenarios" / "topologies" / self.topology_file
        self.topo = topology.load_topology(self.topology_path)
        self.policies = self.make_policies()
        self.update_times = self.make_update_times()
        self.flows = self.make_flows()
        compiled = [netcl.compile_program(netcl.parse(t), self.topo) for t in self.policies]
        self._check_tag_layout(compiled)
        self._compute_oracle(compiled)
        # receiving and sending processes: enterprise has too few hosts
        # for enough receivers alone
        candidates = sorted(
            {provenance.pid_entity(f.dst, RECEIVER_PID) for f in self.flows if not f.scanner}
            | {provenance.pid_entity(f.src, SENDER_PID) for f in self.flows if not f.scanner}
        )
        self.sinks = self.rng.sample(candidates, min(self.slice_sinks, len(candidates)))

    # subclasses provide these
    def make_policies(self) -> list[str]:
        raise NotImplementedError

    def make_update_times(self) -> list[int]:
        return []

    def make_flows(self) -> list[Flow]:
        raise NotImplementedError

    def _check_tag_layout(self, compiled) -> None:
        # agents are labelled once from version 0; later versions must give
        # every host tag the same bit or the oracle would mislabel senders
        base = compiled[0].registry.name_to_id
        for c in compiled[1:]:
            moved = [t for t, i in base.items() if c.registry.name_to_id.get(t, i) != i]
            if moved:
                raise RuntimeError(f"policy versions disagree on tag bits: {moved[:5]}")

    def _compute_oracle(self, compiled) -> None:
        admits = [routes.make_policy_admit(c, self.topo) for c in compiled]
        labels = compiled[0]

        @functools.lru_cache(maxsize=None)
        def verdict(version: int, src_ip: str, dst_ip: str, bits: int) -> bool:
            return admits[version](src_ip, dst_ip, bits)[0]

        for f in self.flows:
            f.version = sum(1 for t in self.update_times if t <= f.at_ns)
            src_ip = self._ip(f.src)
            bits = 0 if f.scanner else labels.label_of_ip(src_ip).bits
            f.expect_allow = verdict(f.version, src_ip, self._ip(f.dst), bits)

    def _ip(self, name: str) -> str:
        host = self.topo.host_by_name.get(name)
        return host.ip if host is not None else name

    # -- one repetition ---------------------------------------------------

    def rep(self) -> Rep:
        rep = Rep()
        gc.collect()
        parts = rep.setup_parts
        with _timed(parts):
            topo = topology.load_topology(self.topology_path)
        compiled = []
        for text in self.policies:
            with _timed(parts):
                program = netcl.parse(text)
            with _timed(parts):
                compiled.append(netcl.compile_program(program, topo))
        with _timed(parts):
            net = Network(topo, compiled[0], self.params)
            for agent in net.agents.values():
                agent.spawn(SENDER_PID)
                agent.spawn(RECEIVER_PID)
        plans = []
        with _timed(parts):
            for at, new in zip(self.update_times, compiled[1:]):
                net.schedule_call(
                    at, "policy-update",
                    lambda new=new: plans.append(net.control.apply_update(net.switches, new)),
                )
            for f in self.flows:
                net.send_flow(
                    flow_id=f.flow_id, src=f.src, dst=f.dst, at_ns=f.at_ns,
                    protocol=f.protocol, src_port=f.src_port, dst_port=f.dst_port,
                    pid=f.pid, accept_pid=RECEIVER_PID, packets=f.packets,
                )

        # slices of simulated time, each one chunk for RunMeter; the last
        # call drains what is left
        gc.collect()
        for until in range(RUN_SLICE_NS, self.flows[-1].at_ns + RUN_SLICE_NS, RUN_SLICE_NS):
            net.run(until_ns=until)
        net.run()

        self._check_flows(rep, net, topo)
        events = provenance.merged_events(*(a.events for a in net.agents.values()))
        slices = _run_slices(rep, events, self.sinks)
        coverage = _run_coverage(rep, topo, self.coverage_sample)

        sent = delivered = dropped = 0
        for rec in net.flows.values():
            sent += rec.sent
            delivered += rec.delivered
            dropped += rec.dropped
        rep.fingerprint = {
            "sent": sent,
            "delivered": delivered,
            "dropped": dropped,
            "installs": sum(" install conn-dec switch=" in line for line in net.trace),
            "plan_entries": sum(sum(plan.counts()) for plan in plans),
            "trace_digest": _digest(net.trace),
            "agent_events": len(events),
            "slices": slices,
            "coverage": coverage,
        }
        return rep

    def _check_flows(self, rep: Rep, net: Network, topo) -> None:
        limit = self.params.rate_limit
        scanned: dict[tuple[str, int], list[bool]] = {}
        for f in self.flows:
            rec = net.flows[f.flow_id]
            allowed = rec.delivered == f.packets and rec.dropped == 0
            denied = rec.dropped == f.packets and rec.delivered == 0
            what = (
                f"flow {f.flow_id} {f.protocol} {f.src}->{f.dst} v{f.version}: "
                f"sent={rec.sent} delivered={rec.delivered} dropped={rec.dropped} "
                f"expected {'allow' if f.expect_allow else 'drop'}"
            )
            if not f.scanner:
                rep.check(rec.sent == f.packets and (allowed if f.expect_allow else denied), what)
                continue
            # scanner probes are single SYNs: rate-limited, or evaluated
            # by the policy like any other flow
            limited = denied and rec.outcomes[0][2].endswith(":rate")
            verdict_ok = allowed if f.expect_allow else denied
            rep.check(limited or verdict_ok, what)
            scanned.setdefault(self._arrival(topo, f), []).append(limited)
        for (sw, window), limited in sorted(scanned.items()):
            evaluated = limited.count(False)
            rep.check(
                evaluated == min(len(limited), limit),
                f"scanner at {sw} window {window}: {evaluated} of {len(limited)} "
                f"evaluated, limit {limit}",
            )

    def _arrival(self, topo, f: Flow) -> tuple[str, int]:
        """(enforcing switch, rate window) where a scanner probe is
        evaluated: it enters at the gateway and follows the forwarding
        tables to the destination's switch."""
        dst_ip = self._ip(f.dst)
        sw = topo.gateway
        t = f.at_ns + topology.DEFAULT_LINK_LATENCY_NS
        while dst_ip not in topo.enforced_ips(sw):
            nxt = topo.port_target(sw, topo.forwarding(sw)[dst_ip])
            t += topo.link_latency(sw, nxt)
            sw = nxt
        return sw, t // RATE_WINDOW_NS


class Fastpath(SimWorkload):
    """Long TCP flows on enterprise under listing2 plus a trailing allow:
    after the SYN, every packet is a conn_dec or buffer hit or a transit
    hop, so per-packet overhead dominates."""

    topology_file = "enterprise.yaml"
    params = SimParams(rtt_ns=1 * MS)
    flows_n = 100
    packets_range = (80, 120)
    span_ns = 2 * S

    def make_policies(self) -> list[str]:
        policy_dir = self.root / "scenarios" / "policies"
        parts = [(policy_dir / f).read_text() for f in ("listing2.ncl", "listing2_benign.ncl")]
        return ["\n".join(parts + ["if match(dst_ip==any) then allow\n"])]

    def make_flows(self) -> list[Flow]:
        rng = self.rng
        hosts = [h.name for h in self.topo.hosts]
        flows = []
        for i in range(self.flows_n):
            src, dst = rng.sample(hosts, 2)
            flows.append(Flow(
                flow_id=f"f{i}", src=src, dst=dst, at_ns=0, protocol="tcp",
                src_port=20_000 + i, dst_port=rng.choice((22, 80, 443, 445)),
                packets=rng.randint(*self.packets_range),
            ))
        _place_in_time(rng, flows, self.span_ns, [], lambda f: 1)
        return flows


class Churn(SimWorkload):
    """Short flows on stanford against a generated ~3k-rule policy that puts
    about 500 entries on each of six server switches, with a small decision
    buffer, a scanner over the rate limit and policy updates mid-run."""

    topology_file = "stanford.yaml"
    params = SimParams(rtt_ns=10 * MS, index_bits=6)
    rules_n = 3000
    servers_n = 6
    group_tags = 16
    flows_n = 750
    span_ns = 4 * S
    updates = 3
    update_edits = 15
    quiet_ns = 100 * MS  # longer than a flow, recirculation included
    scanner_ip = "10.250.0.9"
    scanner_bursts = 2
    scanner_probes = 250
    scanner_burst_ns = 500 * MS

    def make_policies(self) -> list[str]:
        rng = self.rng
        hosts = self.topo.hosts
        by_switch: dict[str, list[str]] = {}
        for h in hosts:
            by_switch.setdefault(h.switch, []).append(h.name)
        self.servers = [by_switch[s][0] for s in rng.sample(sorted(by_switch), self.servers_n)]
        groups = [f"G{i}" for i in range(self.group_tags)]
        head = []
        for i, h in enumerate(hosts):
            # round robin first, so every group tag is registered by the
            # label block and keeps its bit in every policy version
            tags = {groups[i % len(groups)], rng.choice(groups)}
            shown = ", ".join([f"T{i}"] + sorted(tags))
            head.append(f"label_host(ip={h.name}, label={{{shown}}})")
        scanned = self.servers[: self.scanner_bursts]
        head.append(f"if match(src_ip=={self.scanner_ip} && dst_ip=={scanned[-1]}) then drop")

        rules = [self._rule(rng, hosts, groups) for _ in range(self.rules_n)]
        tail = ["if match(dst_ip==any) then allow"]
        versions = ["\n".join(head + rules + tail) + "\n"]
        for _ in range(self.updates):
            rules = list(rules)
            for _ in range(self.update_edits):
                del rules[rng.randrange(len(rules))]
            for _ in range(self.update_edits):
                rules.insert(rng.randrange(len(rules) + 1), self._rule(rng, hosts, groups))
            versions.append("\n".join(head + rules + tail) + "\n")
        return versions

    def _rule(self, rng, hosts, groups) -> str:
        dst = rng.choice(self.servers)
        src = rng.choice(hosts)
        act = rng.choice(("allow", "drop"))
        r = rng.random()
        if r < 0.05:
            return f"if match(src_ip=={src.name} && dst_ip=={dst}) then endorse({{P}})"
        if r < 0.10:
            return f"if match(pkt_label contains {{P}} && dst_ip=={dst}) then {act}"
        if r < 0.45:
            tags = ", ".join(sorted(rng.sample(groups, rng.randint(1, 2))))
            return f"if match(pkt_label contains {{{tags}}} && dst_ip=={dst}) then {act}"
        if r < 0.75:
            return f"if match(src_ip=={src.name} && dst_ip=={dst}) then {act}"
        return f"if match(src_ip=={src.ip} && dst_ip=={dst}) then {act}"

    def make_update_times(self) -> list[int]:
        return [self.span_ns * (k + 1) // (self.updates + 1) for k in range(self.updates)]

    def make_flows(self) -> list[Flow]:
        rng = self.rng
        hosts = [h.name for h in self.topo.hosts]
        flows = []
        for i in range(self.flows_n):
            r = rng.random()
            protocol = "tcp" if r < 0.80 else ("udp" if r < 0.95 else "icmp")
            dst = rng.choice(self.servers) if rng.random() < 0.7 else rng.choice(hosts)
            src = rng.choice([h for h in hosts if h != dst])
            flows.append(Flow(
                flow_id=f"f{i}", src=src, dst=dst, at_ns=0, protocol=protocol,
                src_port=20_000 + i,
                dst_port={"tcp": rng.choice((22, 80, 443)), "udp": 53, "icmp": 0}[protocol],
                packets=3,
            ))
        # Policy evaluations per flow: a TCP SYN, every ICMP message and
        # every labelled UDP packet. UDP stays initial until the label ack
        # lands, which is after a 3-packet flow ends, and every stanford
        # host is labelled, so each UDP packet carries the header.
        gaps = [(t - self.quiet_ns, t) for t in self.update_times]
        _place_in_time(rng, flows, self.span_ns, gaps,
                       lambda f: 1 if f.protocol == "tcp" else f.packets)

        # each burst in its own rate window, clear of the update gaps
        for b, dst in enumerate(self.servers[: self.scanner_bursts]):
            start = b * RATE_WINDOW_NS + rng.randrange(50 * MS)
            step = self.scanner_burst_ns // self.scanner_probes
            for j in range(self.scanner_probes):
                flows.append(Flow(
                    flow_id=f"scan{b}.{j}", src=self.scanner_ip, dst=dst, at_ns=start + j * step,
                    protocol="tcp", src_port=40_000 + b * 1000 + j, dst_port=1 + j,
                    packets=1, pid=None, scanner=True,
                ))
        flows.sort(key=lambda f: (f.at_ns, f.flow_id))
        return flows


# -- analysis -------------------------------------------------------------


class Analysis:
    """The offline tools: coverage_report on the three campus topologies,
    a seeded host-agent operation stream replayed on eight agents and
    sliced from fixed sinks, and a replay of the golden scenarios."""

    topology_files = ("enterprise.yaml", "cisco.yaml", "stanford.yaml")
    agent_topology = "enterprise.yaml"
    ops_n = 6_000
    slice_files = 16
    slice_pids = 8
    golden_rounds = 3
    # routes sampled per large coverage row, where coverage_report's
    # default is 20,000
    coverage_sample = 10_000

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.rng = random.Random(seed)
        self.topology_paths = [root / "scenarios" / "topologies" / f for f in self.topology_files]
        hosts = topology.load_topology(root / "scenarios" / "topologies" / self.agent_topology).hosts
        self.hosts = [(h.name, h.ip) for h in hosts]
        self.ops, self.sinks = self._make_ops()
        self.scenarios = [
            scenario.load_scenario(root / "scenarios" / f"{name}.yaml")
            for name in GOLDEN_SCENARIOS
        ]

    def _make_ops(self):
        """Operations that never fail when replayed in order: the generator
        tracks live pids and existing files per host, and pairs every send
        with its delivery and acceptance."""
        rng = self.rng
        names = [n for n, _ in self.hosts]
        label_bits = {n: Label.of(i, 8 + rng.randrange(8)).bits for i, n in enumerate(names)}
        files = {n: [f"/data/{n}/seed"] for n in names}
        live = {n: [1] for n in names}
        next_pid = {n: 2 for n in names}
        ops = []
        port = 20_000
        kinds = ("spawn", "exit", "read", "write", "create", "message", "reboot")
        weights = (5, 3, 25, 20, 7, 35, 0.5)
        for _ in range(self.ops_n):
            kind = rng.choices(kinds, weights)[0]
            h = rng.choice(names)
            if kind == "spawn" or (kind == "exit" and len(live[h]) < 2):
                ops.append(("spawn", h, next_pid[h]))
                live[h].append(next_pid[h])
                next_pid[h] += 1
            elif kind == "exit":
                pid = live[h].pop(rng.randrange(len(live[h])))
                ops.append(("exit", h, pid))
            elif kind in ("read", "write"):
                ops.append((kind, h, rng.choice(live[h]), rng.choice(files[h])))
            elif kind == "create":
                path = f"/data/{h}/f{len(files[h])}"
                files[h].append(path)
                ops.append(("create", h, rng.choice(live[h]), path))
            elif kind == "message":
                dst = rng.choice([n for n in names if n != h])
                port += 1
                ops.append(("message", h, rng.choice(live[h]), dst, rng.choice(live[dst]), port))
            else:
                ops.append(("reboot", h, next_pid[h]))
                live[h] = [next_pid[h]]
                next_pid[h] += 1
        all_files = [(h, path) for h in names for path in files[h]]
        all_pids = [(h, pid) for h in names for pid in live[h]]
        sinks = [("file", h, path) for h, path in rng.sample(all_files, self.slice_files)]
        sinks += [("pid", h, pid) for h, pid in rng.sample(all_pids, self.slice_pids)]
        self.label_bits = label_bits
        return ops, sinks

    def _replay(self, agents: dict[str, HostAgent]) -> None:
        ip = dict(self.hosts)
        for t, op in enumerate(self.ops, start=1):
            kind, h = op[0], op[1]
            agent = agents[h]
            now = t * 1000
            if kind == "spawn":
                agent.spawn(op[2], now_ns=now)
            elif kind == "exit":
                agent.exit(op[2], now_ns=now)
            elif kind == "read":
                agent.read(op[2], agent.inode_of(op[3]), now_ns=now)
            elif kind == "write":
                agent.write(op[2], agent.inode_of(op[3]), now_ns=now)
            elif kind == "create":
                agent.create(op[2], op[3], now_ns=now)
            elif kind == "message":
                _, _, pid, dst, dst_pid, port = op
                pkt = SimPacket(
                    src_ip=ip[h], dst_ip=ip[dst], src_port=port, dst_port=80,
                    protocol=PROTO_TCP, tcp_flags=TcpFlags.SYN,
                )
                pkt = agent.label_outgoing(pid, pkt, now_ns=now)
                agents[dst].deliver(pkt, now_ns=now)
                agents[dst].accept(dst_pid, pkt.flow_key, now_ns=now)
            else:
                agent.reboot(now_ns=now)
                agent.spawn(op[2], now_ns=now)

    def rep(self) -> Rep:
        rep = Rep()
        gc.collect()
        topos = []
        for path in self.topology_paths:
            with _timed(rep.setup_parts):
                topos.append(topology.load_topology(path))
        with _timed(rep.setup_parts):
            seq = SeqSource()
            agents = {n: HostAgent(n, ip, seq_source=seq) for n, ip in self.hosts}
            for n, agent in agents.items():
                agent.initialize(Label(self.label_bits[n]), ((f"/data/{n}/seed", 0),))
                agent.spawn(1)

        self._replay(agents)
        events = provenance.merged_events(*(a.events for a in agents.values()))
        sinks = [
            provenance.file_entity(h, agents[h].inode_of(x)) if kind == "file"
            else provenance.pid_entity(h, x)
            for kind, h, x in self.sinks
        ]
        slices = _run_slices(rep, events, sinks)
        coverage = [_run_coverage(rep, topo, self.coverage_sample) for topo in topos]

        golden = []
        for _ in range(self.golden_rounds):
            results = [scenario.run_scenario(s) for s in self.scenarios]
            for res in results:
                rep.check(res.ok, f"golden replay {res.scenario.name} fails an expectation")
            golden = [_digest(res.network.trace) for res in results]

        rep.fingerprint = {
            "agent_events": len(events),
            "slices": slices,
            "coverage": coverage,
            "golden_traces": golden,
        }
        return rep


WORKLOADS = {"fastpath": Fastpath, "churn": Churn, "analysis": Analysis}
