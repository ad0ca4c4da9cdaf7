"""Acceptance suite. Each test is one numbered criterion and prints a
single PASS line with the measured figures; a failed assertion is the FAIL
line. Run with `pytest -v tests/test_acceptance.py` to see one verdict per
criterion."""

import itertools
import random
import time

from difcnet.controlplane import ControlPlane
from difcnet.dataplane import Decision, Switch, match_policies
from difcnet.header import DifcHeader, FlowKey, buffer_slot, decode_header, encode_header
from difcnet.hostagent import HostAgent, SeqSource
from difcnet.labels import LABEL_MASK, Label
from difcnet.netcl import compile_program, merge_to_single_switch, parse
from difcnet.netcl.ast import Drop
from difcnet.packets import PROTO_TCP, SimPacket, TcpFlags
from difcnet.provenance import (
    backward_slice,
    file_entity,
    merged_events,
    pid_entity,
)
from difcnet.routes import (
    DEFAULT_COVERAGE_ROWS,
    build_reachability_policy,
    coverage_report,
    make_firewall_admit,
    make_policy_admit,
    reachability_table,
    route_count,
)
from difcnet.scenario import load_scenario, run_scenario
from difcnet.sim import Network, SimParams
from difcnet.topology import load_topology

from tests.conftest import POLICY_DIR, SCENARIO_DIR, TOPOLOGY_DIR, make_lan

MS = 1_000_000


def _enterprise():
    return load_topology(TOPOLOGY_DIR / "enterprise.yaml")


# -- 1: reachable-host table ----------------------------------------------


def test_criterion_01_reachability_table():
    t0 = time.monotonic()
    topo = _enterprise()
    fw_admit = make_firewall_admit(topo.firewall)
    no_label = lambda h: 0
    fw = reachability_table(
        topo, ["Server1", "Server2"], [1, 2, 3], fw_admit, no_label
    )
    assert [c.count for c in fw] == [3, 7, 7, 1, 3, 7]

    allowed = {
        "Server1": ["Host2", "Host3", "Host4"],
        "Server2": ["Dev_Admin"],
    }
    compiled = compile_program(
        parse(build_reachability_policy(topo, allowed)), topo
    )
    admit = make_policy_admit(compiled, topo)
    label = {h.name: compiled.label_of_ip(h.ip).bits for h in topo.hosts}
    pc = reachability_table(
        topo, ["Server1", "Server2"], [1, 2, 3], admit, label.__getitem__
    )
    assert [c.count for c in pc] == [3, 3, 3, 1, 1, 1]
    assert pc[0].hosts == ("Host2", "Host3", "Host4")
    assert pc[3].hosts == ("Dev_Admin",)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(
        f"[PASS] criterion 1: firewall 3/7/7 and 1/3/7, labels 3/3/3 and 1/1/1 "
        f"({elapsed:.2f}s)"
    )


# -- 2: route counts vs brute force ---------------------------------------

ROUTE_TABLE = {
    # candidates n: {steps k: expected number of ordered routes}
    7: {6: 5_040, 5: 2_520, 4: 840, 3: 210, 2: 42},          # 8-host fabric
    13: {5: 154_440, 4: 17_160, 3: 1_716, 2: 156},           # 14-host campus
    55: {4: 8_185_320, 3: 157_410, 2: 2_970},                # 56-host campus
}


def test_criterion_02_route_counts():
    t0 = time.monotonic()
    sizes = {
        "enterprise": len(_enterprise().hosts) - 1,
        "cisco": len(load_topology(TOPOLOGY_DIR / "cisco.yaml").hosts) - 1,
        "stanford": len(load_topology(TOPOLOGY_DIR / "stanford.yaml").hosts) - 1,
    }
    assert sorted(sizes.values()) == sorted(ROUTE_TABLE)
    checked = 0
    for n, per_k in ROUTE_TABLE.items():
        for k, expected in per_k.items():
            assert route_count(n, k) == expected
            brute = sum(1 for _ in itertools.permutations(range(n), k))
            assert brute == expected
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"[PASS] criterion 2: {checked} route counts match brute-force "
        f"enumeration exactly ({elapsed:.2f}s)"
    )


# -- 3: attack-route coverage ---------------------------------------------

PUBLISHED_FIREWALL_COVERAGE = {
    "enterprise": (85.0, 70.0, 57.0, 42.0, 28.0),
    "cisco": (84.0, 67.0, 53.0, 38.0),
    "stanford": (81.0, 63.0, 45.0),
}
COVERAGE_TARGETS = {"enterprise": "Server1", "cisco": "host1", "stanford": "host1"}


def test_criterion_03_coverage():
    from difcnet.routes import build_coverage_policy

    details = []
    for name, published in PUBLISHED_FIREWALL_COVERAGE.items():
        topo = load_topology(TOPOLOGY_DIR / f"{name}.yaml")
        target = COVERAGE_TARGETS[name]
        program = parse(build_coverage_policy(topo, target))
        drops = [r for r in program.rules if isinstance(r.action, Drop)]
        assert len(drops) == 1  # one label rule closes every route
        rows = coverage_report(topo, target, DEFAULT_COVERAGE_ROWS[name])
        for row, target_pct in zip(rows, published):
            assert row.policy_coverage == 100.0, (name, row.steps)
            assert abs(row.firewall_coverage - target_pct) <= 10.0, (
                name, row.steps, row.firewall_coverage, target_pct,
            )
            details.append(f"{name}/k={row.steps}: fw {row.firewall_coverage:.1f}%")
    print(
        "[PASS] criterion 3: label coverage 100.0% on every row; firewall "
        "within 10 points of published (" + "; ".join(details) + ")"
    )


# -- 4: golden scenarios ---------------------------------------------------

LISTING_SHAPES = {
    "listing1.ncl": (3, 4),
    "listing2.ncl": (3, 3),
    "listing3.ncl": (4, 3),
}
SCENARIO_FILES = ("scenario1.yaml", "scenario2.yaml", "scenario3.yaml")


def test_criterion_04_golden_scenarios():
    for fname, (n_directives, n_rules) in LISTING_SHAPES.items():
        program = parse((POLICY_DIR / fname).read_text())
        assert len(program.labelings) == n_directives, fname
        assert len(program.rules) == n_rules, fname
    for fname in SCENARIO_FILES:
        scn = load_scenario(SCENARIO_DIR / fname)
        first = run_scenario(scn)
        failing = [(n, d) for n, ok, d in first.checks if not ok]
        assert first.ok, (fname, failing)
        second = run_scenario(load_scenario(SCENARIO_DIR / fname))
        assert first.trace == second.trace, fname
    print(
        "[PASS] criterion 4: all three policy listings parse and their "
        "scenarios meet every expectation with byte-identical traces"
    )


# -- 5: per-flow decision consistency -------------------------------------

CONSISTENCY_RUNS = 10_000
CONSISTENCY_INDEX_BITS = 8

OPEN_POLICY = """\
label_host(ip=A, label={TA})
label_host(ip=B, label={TB})
if match(dst_ip==any) then allow
"""
GUARD_POLICY = """\
label_host(ip=A, label={TA})
label_host(ip=B, label={TB})
if match(pkt_label contains TA && dst_ip==C) then allow
if match(src_ip==B && dst_ip==C) then drop
if match(dst_ip==A) then allow
if match(dst_ip==B) then allow
"""
TAINT_POLICY = """\
label_host(ip=A, label={TA})
label_host(ip=B, label={TB})
if match(pkt_label contains TA && dst_ip==C) then drop
if match(dst_ip==any) then allow
"""


def _colliding_port_pairs(topo, count=64):
    """Port pairs (pa, pb) such that A->C:pa and B->C:pb land in the same
    decision-buffer slot."""
    a = topo.host_by_name["A"].ip
    b = topo.host_by_name["B"].ip
    c = topo.host_by_name["C"].ip
    slot_of_a = {}
    for pa in range(20_000, 21_000):
        key = FlowKey(a, pa, c, 80, PROTO_TCP)
        slot_of_a.setdefault(buffer_slot(key, CONSISTENCY_INDEX_BITS), pa)
    pairs = []
    for pb in range(30_000, 40_000):
        key = FlowKey(b, pb, c, 80, PROTO_TCP)
        slot = buffer_slot(key, CONSISTENCY_INDEX_BITS)
        if slot in slot_of_a:
            pairs.append((slot_of_a[slot], pb))
            if len(pairs) >= count:
                break
    assert len(pairs) >= count
    return pairs


def test_criterion_05_decision_consistency():
    topo = make_lan()
    variants = [
        compile_program(parse(text), topo)
        for text in (OPEN_POLICY, GUARD_POLICY, TAINT_POLICY)
    ]
    admits = [make_policy_admit(c, topo) for c in variants]
    pairs = _colliding_port_pairs(topo)
    ip = {h.name: h.ip for h in topo.hosts}
    rng = random.Random(20_260_823)
    rtts = (1 * MS, 10 * MS, 100 * MS)
    violations = 0
    evictions = 0
    flows_checked = 0
    for run in range(CONSISTENCY_RUNS):
        rtt = rtts[run % 3]
        which = rng.randrange(len(variants))
        compiled, admit = variants[which], admits[which]
        params = SimParams(rtt_ns=rtt, index_bits=CONSISTENCY_INDEX_BITS)
        net = Network(topo, compiled, params)
        for agent in net.agents.values():
            agent.spawn(1)
        pa, pb = pairs[rng.randrange(len(pairs))]
        t1 = rng.randrange(0, 3 * MS)
        t2 = t1 + rng.randrange(0, 2 * MS)
        plan = [
            ("fa", "A", "C", pa, t1),
            ("fb", "B", "C", pb, t2),
        ]
        if rng.random() < 0.5:
            plan.append(
                ("fc", rng.choice(("B", "C")), "A", rng.randrange(50_000, 60_000),
                 rng.randrange(0, 5 * MS))
            )
        expect = {}
        for flow_id, src, dst, port, at in plan:
            net.send_flow(
                flow_id=flow_id, src=src, dst=dst, at_ns=at, src_port=port,
                pid=1, packets=rng.randrange(2, 5),
            )
            bits = compiled.label_of_ip(ip[src]).bits
            expect[flow_id] = admit(ip[src], ip[dst], bits)[0]
        net.run()
        evictions += sum(sw.buffer.evictions for sw in net.switches.values())
        for flow_id, _, _, _, _ in plan:
            rec = net.flows[flow_id]
            flows_checked += 1
            if expect[flow_id]:
                if rec.delivered != rec.sent or rec.dropped != 0:
                    violations += 1
            else:
                if rec.delivered != 0 or rec.dropped != rec.sent:
                    violations += 1
    assert evictions >= CONSISTENCY_RUNS // 2  # collisions actually occurred
    assert violations == 0
    print(
        f"[PASS] criterion 5: {CONSISTENCY_RUNS} randomized schedules, "
        f"{flows_checked} flows, {evictions} forced evictions, 0 verdict "
        f"violations across RTT 1/10/100 ms"
    )


# -- 6: distributed placement ---------------------------------------------


def _placement_policy(topo, n_rules=800):
    hosts = [h.name for h in topo.hosts]
    lines = []
    srcs = []
    for i in range(n_rules):
        src = f"10.200.{i // 200}.{i % 200 + 1}"
        srcs.append(src)
        action = "allow" if i % 2 == 0 else "drop"
        lines.append(
            f"if match(src_ip=={src} && dst_ip=={hosts[i % len(hosts)]}) then {action}"
        )
    return "\n".join(lines) + "\n", srcs


def test_criterion_06_distributed_placement():
    topo = _enterprise()
    text, srcs = _placement_policy(topo)
    compiled = compile_program(parse(text), topo)
    report = ControlPlane(topo, compiled, rtt_ns=0).placement_report()
    assert report.single_switch_total == 800
    assert report.per_switch == {"S1": 0, "S2": 200, "S3": 200, "S4": 400}
    reduction = report.average_reduction * 100.0
    assert abs(reduction - 66.0) <= 2.0, reduction

    merged = merge_to_single_switch(compiled, "all-in-one")
    host_ips = [h.ip for h in topo.hosts]
    rng = random.Random(99)
    for _ in range(1_000):
        src = srcs[rng.randrange(len(srcs))] if rng.random() < 0.7 else (
            f"10.201.{rng.randrange(256)}.{rng.randrange(1, 255)}"
        )
        dst = host_ips[rng.randrange(len(host_ips))]
        multi_cfg = compiled.configs[topo.switch_of_ip(dst)]
        multi = match_policies(multi_cfg, 0, 0, src, dst)
        single = match_policies(merged, 0, 0, src, dst)
        if multi is None or single is None:
            assert multi is None and single is None, (src, dst)
        else:
            assert type(multi.action) is type(single.action), (src, dst)
    print(
        f"[PASS] criterion 6: 800 rules place as 200/200/400, average "
        f"reduction {reduction:.1f}% (target 66 +/- 2); multi-switch and "
        f"single-switch verdicts agree on 1000 random flows"
    )


# -- 7: ternary table accounting ------------------------------------------


def test_criterion_07_ternary_accounting():
    topo = make_lan()
    hosts = [h.name for h in topo.hosts]
    lines = []
    for i in range(1_100):
        src = f"10.210.{i // 200}.{i % 200 + 1}"
        lines.append(
            f"if match(src_ip=={src} && dst_ip=={hosts[i % len(hosts)]}) then drop"
        )
    for i in range(100):
        lines.append(f"if match(pkt_label contains V{i} && dst_ip==C) then drop")
    compiled = compile_program(parse("\n".join(lines) + "\n"), topo)
    merged = merge_to_single_switch(compiled, "all-in-one")
    single_table = merged.entry_count()  # every rule would need a ternary slot
    multi_table = sum(e.match.table == "ternary" for e in merged.entries)
    assert single_table == 1_200
    assert multi_table == 100
    ratio = single_table / multi_table
    assert ratio == 12.0
    print(
        f"[PASS] criterion 7: 1200 rules need {single_table} ternary slots "
        f"in one table vs {multi_table} split across tables; ratio {ratio:.1f}"
    )


# -- 8: host-agent label soundness ----------------------------------------

TRACE_COUNT = 1_000
TRACE_HOSTS = (("HA", "10.0.0.1", "TA", 7), ("HB", "10.0.0.2", "TB", 0))


class _Mirror:
    """Independent label/tracker bookkeeping with plain dicts."""

    def __init__(self):
        self.pid_label = {}
        self.pid_tr = {}
        self.file_label = {}
        self.file_tr = {}
        self.host_label = {}

    def init_host(self, host, bits, seed_inode, tracker):
        self.host_label[host] = bits
        self.file_label[(host, seed_inode)] = bits
        self.file_tr[(host, seed_inode)] = tracker

    def spawn(self, host, pid):
        self.pid_label[(host, pid)] = self.host_label[host]
        self.pid_tr[(host, pid)] = 0

    def exit(self, host, pid):
        del self.pid_label[(host, pid)]
        del self.pid_tr[(host, pid)]

    def read(self, host, pid, inode):
        self.pid_label[(host, pid)] |= self.file_label[(host, inode)]
        if self.file_tr[(host, inode)]:
            self.pid_tr[(host, pid)] = self.file_tr[(host, inode)]

    def write(self, host, pid, inode):
        self.file_label.setdefault((host, inode), 0)
        self.file_tr.setdefault((host, inode), 0)
        self.file_label[(host, inode)] |= self.pid_label[(host, pid)]
        if self.pid_tr[(host, pid)]:
            self.file_tr[(host, inode)] = self.pid_tr[(host, pid)]

    def transfer(self, src_host, src_pid, dst_host, dst_pid):
        self.pid_label[(dst_host, dst_pid)] |= self.pid_label[(src_host, src_pid)]
        if self.pid_tr[(src_host, src_pid)]:
            self.pid_tr[(dst_host, dst_pid)] = self.pid_tr[(src_host, src_pid)]

    def reboot(self, host):
        for key in [k for k in self.pid_label if k[0] == host]:
            del self.pid_label[key]
            del self.pid_tr[key]


def _drive_trace(seed):
    rng = random.Random(seed)
    seq = SeqSource()
    agents = {}
    mirror = _Mirror()
    live = {}
    files = {}
    for name, ip_addr, tag, tracker in TRACE_HOSTS:
        ag = HostAgent(name, ip_addr, seq_source=seq)
        label = Label.of(0 if tag == "TA" else 1)
        ag.initialize(label, ((f"/{name}/seed", tracker),))
        agents[name] = ag
        mirror.init_host(name, label.bits, ag.inode_of(f"/{name}/seed"), tracker)
        live[name] = []
        files[name] = [ag.inode_of(f"/{name}/seed")]
    next_pid = {"HA": 100, "HB": 500}
    port = [40_000]
    t = [0]

    def one_op():
        t[0] += 10
        host = rng.choice(("HA", "HB"))
        ag = agents[host]
        op = rng.choice(
            ("spawn", "spawn", "read", "read", "write", "create",
             "transfer", "exit", "reboot")
        )
        if op == "reboot" and rng.random() < 0.25:  # keep reboots rare
            before = dict(ag.files)
            ag.reboot(now_ns=t[0])
            assert ag.files == before
            assert ag.pids == {}
            mirror.reboot(host)
            live[host] = []
            return
        if op == "spawn":
            pid = next_pid[host]
            next_pid[host] += 1
            ag.spawn(pid, now_ns=t[0])
            mirror.spawn(host, pid)
            live[host].append(pid)
        elif op == "exit" and live[host]:
            pid = rng.choice(live[host])
            ag.exit(pid, now_ns=t[0])
            mirror.exit(host, pid)
            live[host].remove(pid)
        elif op == "read" and live[host]:
            pid = rng.choice(live[host])
            inode = rng.choice(files[host])
            ag.read(pid, inode, now_ns=t[0])
            mirror.read(host, pid, inode)
        elif op == "write" and live[host]:
            pid = rng.choice(live[host])
            inode = rng.choice(files[host])
            ag.write(pid, inode, now_ns=t[0])
            mirror.write(host, pid, inode)
        elif op == "create" and live[host]:
            pid = rng.choice(live[host])
            inode = ag.create(pid, f"/{host}/f{t[0]}", now_ns=t[0])
            mirror.write(host, pid, inode)
            files[host].append(inode)
        elif op == "transfer":
            other = "HB" if host == "HA" else "HA"
            if not live[host] or not live[other]:
                return
            src_pid = rng.choice(live[host])
            dst_pid = rng.choice(live[other])
            port[0] += 1
            pkt = SimPacket(
                src_ip=ag.ip, dst_ip=agents[other].ip, src_port=port[0],
                dst_port=80, protocol=PROTO_TCP, tcp_flags=TcpFlags.SYN,
            )
            pkt = ag.label_outgoing(src_pid, pkt, now_ns=t[0])
            agents[other].deliver(pkt, now_ns=t[0] + 1)
            if pkt.flow_key in agents[other].in_labels:
                agents[other].accept(dst_pid, pkt.flow_key, now_ns=t[0] + 2)
                mirror.transfer(host, src_pid, other, dst_pid)

    for _ in range(rng.randrange(30, 200)):
        one_op()
    return agents, mirror, live, files


def test_criterion_08_host_agent_soundness():
    host_bits = {}
    mismatches = 0
    entities = 0
    for seed in range(TRACE_COUNT):
        agents, mirror, live, files = _drive_trace(seed)
        for name, _, tag, _ in TRACE_HOSTS:
            host_bits[name] = agents[name].host_label
        events = merged_events(*(a.events for a in agents.values()))

        def oracle_bits(entity):
            return_bits = 0
            for e in backward_slice(events, entity):
                if e[0] == "host":
                    return_bits |= host_bits[e[1]]
            return return_bits

        for host, ag in agents.items():
            for pid in live[host]:
                entities += 1
                expected = oracle_bits(pid_entity(host, pid))
                if ag.pids[pid] != (expected, mirror.pid_tr[(host, pid)]):
                    mismatches += 1
            for inode in files[host]:
                entities += 1
                expected = oracle_bits(file_entity(host, inode))
                if ag.files[inode] != (expected, mirror.file_tr[(host, inode)]):
                    mismatches += 1
    assert mismatches == 0
    print(
        f"[PASS] criterion 8: {TRACE_COUNT} random traces, {entities} final "
        f"pid/file states match the backward-reachability oracle and tracker "
        f"mirror; reboots preserved file labels and cleared process labels"
    )


# -- 9: rate-limit resilience ---------------------------------------------

ATTACK_ATTEMPTS = 1_000_000
RATE_LIMIT = 1_000
BENIGN_FLOWS = 1_000


def test_criterion_09_rate_limit_resilience():
    topo = make_lan()
    compiled = compile_program(
        parse("if match(dst_ip==C) then allow\n"), topo
    )
    sw = Switch(
        "S2", topo, compiled.configs["S2"],
        SimParams(rate_limit=RATE_LIMIT, rate_window_ns=1_000_000_000),
    )
    dst = topo.host_by_name["C"].ip
    attacker = "10.66.0.9"
    admitted_attack = 0
    step = 100_000  # 10 attempts per ms, ten times the allowed rate
    now = 0
    benign_every = ATTACK_ATTEMPTS // BENIGN_FLOWS
    benign_results = []
    for i in range(ATTACK_ATTEMPTS):
        now += step
        pkt = SimPacket(
            src_ip=attacker, dst_ip=dst, src_port=(i % 60_000) + 1_024,
            dst_port=(i // 60_000) + 80, protocol=PROTO_TCP,
            tcp_flags=TcpFlags.SYN,
        )
        res = sw.process_packet(pkt, now)
        if res.verdict == "forward":
            admitted_attack += 1
            for req in res.install_requests:
                sw.conn_dec.install(req.key, req.decision, now)
        if i % benign_every == 0:
            j = i // benign_every
            bpkt = SimPacket(
                src_ip=f"10.77.{j // 250}.{j % 250 + 1}", dst_ip=dst,
                src_port=42_000, dst_port=443, protocol=PROTO_TCP,
                tcp_flags=TcpFlags.SYN,
            )
            bres = sw.process_packet(bpkt, now)
            for req in bres.install_requests:
                sw.conn_dec.install(req.key, req.decision, now)
            benign_results.append(
                bres.verdict == "forward" and bpkt.flow_key in sw.conn_dec
            )
    assert len(benign_results) == BENIGN_FLOWS
    admitted_benign = sum(benign_results)
    assert admitted_benign == BENIGN_FLOWS  # 100%, every one admitted+installed
    # the limiter held the attacker to its budget per window
    windows = (now // 1_000_000_000) + 1
    assert admitted_attack <= RATE_LIMIT * windows
    assert admitted_attack < ATTACK_ATTEMPTS // 5
    print(
        f"[PASS] criterion 9: {ATTACK_ATTEMPTS} attack attempts held to "
        f"{admitted_attack} installs; {admitted_benign}/{BENIGN_FLOWS} benign "
        f"flows admitted and installed (100%)"
    )


# -- 10: header codec bijection -------------------------------------------


def test_criterion_10_codec_bijection():
    rng = random.Random(1701)
    cases = []
    for _ in range(100_000):
        bits = rng.getrandbits(256)
        tracker = rng.getrandbits(32) if rng.random() < 0.5 else 0
        cases.append(DifcHeader(bits, tracker))
    for bits in (0, LABEL_MASK):
        for tracker in (0, 1, 2**32 - 1):  # 0 means no tracker on the wire
            cases.append(DifcHeader(bits, tracker))
    mismatches = 0
    for hdr in cases:
        wire = encode_header(hdr)
        assert len(wire) == (37 if hdr.has_tracker else 33)
        back = decode_header(wire)
        if back != hdr:
            mismatches += 1
        if encode_header(back) != wire:
            mismatches += 1
    assert mismatches == 0
    print(
        f"[PASS] criterion 10: encode/decode bijection over {len(cases)} "
        f"headers (100000 random + boundary set), 0 mismatches"
    )
