"""Scenario files: a topology, an ordered policy list, host events, and
traffic, plus the expected outcomes. Everything is YAML; paths inside a
scenario resolve relative to the scenario file."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ScenarioError
from .netcl import compile_program, parse_files
from .scenario_checks import evaluate_expectations
from .sim import FLOW_PROTOCOLS, Network, SimParams
from .topology import Topology, load_topology, read_yaml

MS = 1_000_000

# fields an event op reads, checked when the scenario loads
EVENT_FIELDS = {
    "spawn": ("pid",),
    "exit": ("pid",),
    "read": ("pid", "path"),
    "write": ("pid", "path"),
    "create": ("pid", "path"),
    "accept": ("pid", "flow"),
    "update": ("policies",),
}
# fields every flow entry needs, checked when the scenario loads
FLOW_FIELDS = ("id", "src", "dst")


@dataclass
class Scenario:
    name: str
    base_dir: Path
    topology_path: Path
    policy_paths: list[Path]
    params: dict
    events: list[dict]
    flows: list[dict]
    expect: dict


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    doc = read_yaml(path)
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    for key in ("topology", "policies"):
        if key not in doc:
            raise ScenarioError(f"{path}: missing {key!r}")
    for section in ("setup", "events"):
        for i, event in enumerate(doc.get(section, [])):
            if not isinstance(event, dict):
                raise ScenarioError(f"{path}: {section}[{i}]: an event must be a mapping")
            op = event.get("op")
            where = f"{path}: {section}[{i}] (op {op!r})"
            for name in EVENT_FIELDS.get(op, ()):
                if name not in event:
                    raise ScenarioError(f"{where}: missing field {name!r}")
            if "pid" in event:
                try:
                    int(event["pid"])
                except (TypeError, ValueError):
                    raise ScenarioError(
                        f"{where}: pid must be an integer, not {event['pid']!r}"
                    ) from None
    for i, flow in enumerate(doc.get("flows", [])):
        if not isinstance(flow, dict):
            raise ScenarioError(f"{path}: flows[{i}]: a flow must be a mapping")
        where = f"{path}: flows[{i}] (id {flow.get('id')!r})"
        for name in FLOW_FIELDS:
            if name not in flow:
                raise ScenarioError(f"{where}: missing field {name!r}")
        if flow.get("protocol", "tcp") not in FLOW_PROTOCOLS:
            raise ScenarioError(
                f"{where}: protocol must be one of {', '.join(FLOW_PROTOCOLS)}, "
                f"not {flow['protocol']!r}"
            )
    base = path.parent
    return Scenario(
        name=doc.get("name", path.stem),
        base_dir=base,
        topology_path=base / doc["topology"],
        policy_paths=[base / p for p in doc["policies"]],
        params=doc.get("params", {}),
        events=list(doc.get("setup", [])) + list(doc.get("events", [])),
        flows=list(doc.get("flows", [])),
        expect=doc.get("expect", {}),
    )


def build_params(raw: dict) -> SimParams:
    p = SimParams()
    if "rtt_ms" in raw:
        p.rtt_ns = int(raw["rtt_ms"] * MS)
    if "recirc_delay_ms" in raw:
        p.recirc_delay_ns = int(raw["recirc_delay_ms"] * MS)
    for name in (
        "recirc_limit",
        "index_bits",
        "conn_dec_capacity",
        "rate_limit",
        "udp_label_prefix",
    ):
        if name in raw:
            setattr(p, name, int(raw[name]))
    if "rate_window_ms" in raw:
        p.rate_window_ns = int(raw["rate_window_ms"] * MS)
    return p


@dataclass
class ScenarioResult:
    scenario: Scenario
    network: Network
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def trace(self) -> str:
        return "\n".join(self.network.trace) + "\n"


def run_scenario(scn: Scenario) -> ScenarioResult:
    topology = load_topology(scn.topology_path)
    program = parse_files([str(p) for p in scn.policy_paths])
    compiled = compile_program(program, topology)
    net = Network(topology, compiled, build_params(scn.params))
    _schedule_events(net, topology, compiled, scn)
    _schedule_flows(net, scn)
    net.run()
    checks = evaluate_expectations(net, compiled, topology, scn.expect)
    return ScenarioResult(scn, net, checks)


def _schedule_flows(net: Network, scn: Scenario) -> None:
    for raw in scn.flows:
        net.send_flow(
            flow_id=raw["id"],
            src=raw["src"],
            dst=raw["dst"],
            at_ns=int(raw.get("at_ms", 0) * MS),
            protocol=raw.get("protocol", "tcp"),
            src_port=int(raw.get("src_port", 41000)),
            dst_port=int(raw.get("dst_port", 80)),
            pid=raw.get("pid"),
            accept_pid=raw.get("accept_pid"),
            packets=int(raw.get("packets", 3)),
            payload_len=int(raw.get("payload_len", 512)),
        )


def _schedule_events(net: Network, topology: Topology, compiled, scn: Scenario) -> None:
    for raw in scn.events:
        op = raw.get("op")
        at = int(raw.get("at_ms", 0) * MS)
        host = raw.get("host")
        if op == "update":
            paths = [scn.base_dir / p for p in raw["policies"]]
            new_program = parse_files([str(p) for p in paths])
            new_compiled = compile_program(new_program, topology)
            net.schedule_call(
                at,
                "policy-update",
                lambda nc=new_compiled: net.control.apply_update(net.switches, nc),
            )
            continue
        if op == "gc":
            idle = int(raw.get("idle_ms", 60_000) * MS)
            net.schedule_call(at, "conn-dec-gc", lambda i=idle: net.gc_conn_dec(i))
            continue
        if host is None or host not in net.agents:
            raise ScenarioError(f"event {raw} needs a known host")
        agent = net.agents[host]
        fn = _agent_call(net, agent, op, raw)
        net.schedule_call(at, f"event host={host} op={op}", lambda f=fn, t=at: f(t))


def _agent_call(net: Network, agent, op: str, raw: dict):
    if op == "spawn":
        return lambda t: agent.spawn(int(raw["pid"]), now_ns=t)
    if op == "exit":
        return lambda t: agent.exit(int(raw["pid"]), now_ns=t)
    if op == "read":
        return lambda t: agent.read(
            int(raw["pid"]), agent.inode_of(raw["path"]), now_ns=t
        )
    if op == "write":
        return lambda t: agent.write(
            int(raw["pid"]), agent.inode_of(raw["path"]), now_ns=t
        )
    if op == "create":
        return lambda t: agent.create(int(raw["pid"]), raw["path"], now_ns=t)
    if op == "accept":
        def do_accept(t, flow_id=raw["flow"], pid=int(raw["pid"])):
            rec = net.flows.get(flow_id)
            if rec is None:
                raise ScenarioError(f"accept references unknown flow {flow_id}")
            agent.accept(pid, rec.key, now_ns=t)
        return do_accept
    if op == "reboot":
        return lambda t: agent.reboot(now_ns=t)
    raise ScenarioError(f"unknown event op {op!r}")
