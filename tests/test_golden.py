"""Golden traces: the four shipped scenarios and one seeded stress run on
enterprise, compared byte for byte with the files under tests/golden/.

The stress run exercises every place the switch pipeline copies a packet:
forwarding hops (TTL decrement), TTL expiry after `modify(ttl=1)`, reroute,
recirculation after decision-buffer evictions and a recirc-limit drop, a
privilege label rewrite, and UDP label acks.

A golden file changes only on purpose. To rewrite them after an intended
behaviour change (and explain the change in CHANGES.md):

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from difcnet.netcl import compile_program, parse
from difcnet.scenario import load_scenario, run_scenario
from difcnet.sim import Network, SimParams
from difcnet.topology import load_topology

from tests.conftest import POLICY_DIR, SCENARIO_DIR, TOPOLOGY_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("scenario1", "scenario2", "scenario3", "scenario4")
STRESS_SEED = 20240522

# listing2 plus rules that reach the pipeline's rarer actions. Host1 is
# unlabeled, so its rules match on the source address.
STRESS_EXTRA = """\
if match(src_ip==Host1 && dst_ip==Host4) then modify(ttl=1)
if match(src_ip==Host1 && dst_ip==Host3) then reroute(3)
if match(src_ip==Host1 && dst_ip==Alice) then alert
if match(src_ip==Host1 && dst_ip==Dev_Admin) then modify(ttl=9)
if match(dst_ip==any) then allow
"""


def scenario_trace(name: str) -> str:
    return run_scenario(load_scenario(SCENARIO_DIR / f"{name}.yaml")).trace


def stress_network() -> Network:
    topo = load_topology(TOPOLOGY_DIR / "enterprise.yaml")
    source = "\n".join(
        (POLICY_DIR / f).read_text() for f in ("listing2.ncl", "listing2_benign.ncl")
    )
    compiled = compile_program(parse(source + "\n" + STRESS_EXTRA), topo)
    # two index bits force buffer evictions; a short recirculation delay
    # against a long RTT lets evicted flows run out of recirculations
    params = SimParams(rtt_ns=6_000_000, recirc_delay_ns=2_000_000, recirc_limit=2, index_bits=2)
    net = Network(topo, compiled, params)
    hosts = [h.name for h in topo.hosts]
    for i, host in enumerate(hosts):
        pid = 100 + i
        net.schedule_call(
            0, f"event host={host} op=spawn", lambda a=net.agents[host], p=pid: a.spawn(p, now_ns=0)
        )

    def flow(fid, src, dst, at_ms, protocol="tcp", *, pid=True, port=41000, packets=4):
        net.send_flow(
            flow_id=fid, src=src, dst=dst, at_ns=at_ms * 1_000_000, protocol=protocol,
            src_port=port, dst_port=80, pid=100 + hosts.index(src) if pid else None,
            packets=packets,
        )

    flow("ttl_expired", "Host1", "Host4", 1)
    flow("rerouted", "Host1", "Host3", 2)
    flow("alerted", "Host1", "Alice", 3)
    flow("ttl_set", "Host1", "Dev_Admin", 4)
    flow("rewritten", "Dev_Admin", "Server2", 5)
    flow("label_ack", "Alice", "Host2", 6, "udp", packets=6)
    # bare UDP is never initial: it waits on the buffer, recirculates, and
    # drops at the recirculation limit
    flow("bare_udp", "Host1", "Server2", 7, "udp", pid=False, packets=2)
    flow("icmp", "Host2", "Alice", 8, "icmp", packets=2)
    flow("uplink", "Alice", "external", 9)

    rng = random.Random(STRESS_SEED)
    endpoints = hosts + ["external"]
    for i in range(40):
        src = rng.choice(hosts)
        dst = rng.choice([e for e in endpoints if e != src])
        proto = rng.choice(("tcp", "tcp", "tcp", "udp", "icmp"))
        flow(
            f"r{i}", src, dst, 10 + rng.randrange(60), proto,
            pid=rng.random() < 0.8, port=42000 + i, packets=rng.randint(2, 6),
        )
    net.run()
    return net


def stress_trace() -> str:
    return "\n".join(stress_network().trace) + "\n"


GOLDEN = {name: (lambda n=name: scenario_trace(n)) for name in SCENARIOS}
GOLDEN["stress"] = stress_trace


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_trace_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.trace").read_bytes()
    assert GOLDEN[name]().encode() == expected


@pytest.mark.parametrize(
    "marker",
    [
        "ttl-expired",
        "reroute port=3",
        "alert",
        "modify ttl=9",
        "recirculate",
        "recirc-limit",
        "rewrite-label",
        "label-ack",
        "buffer",
    ],
)
def test_stress_trace_covers_packet_copies(marker):
    assert marker in (GOLDEN_DIR / "stress.trace").read_text()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, render in sorted(GOLDEN.items()):
        (GOLDEN_DIR / f"{name}.trace").write_bytes(render().encode())
        print(f"wrote {GOLDEN_DIR / name}.trace")
