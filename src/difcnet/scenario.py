"""Scenario files: a topology, an ordered policy list, host events, and
traffic, plus the expected outcomes. Everything is YAML; paths inside a
scenario resolve relative to the scenario file."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import DifcnetError, ScenarioError
from .netcl import compile_program, parse_files
from .scenario_checks import check_expectation_names, evaluate_expectations
from .sim import FLOW_PROTOCOLS, Network, SimParams
from .topology import Topology, load_topology, read_yaml

MS = 1_000_000

# every event op and the fields it reads, checked when the scenario loads
EVENT_FIELDS = {
    "spawn": ("pid",),
    "exit": ("pid",),
    "read": ("pid", "path"),
    "write": ("pid", "path"),
    "create": ("pid", "path"),
    "accept": ("pid", "flow"),
    "reboot": (),
    "gc": (),
    "update": ("policies",),
}
# fields every flow entry needs, checked when the scenario loads
FLOW_FIELDS = ("id", "src", "dst")
# what `expect` may hold, checked when the scenario loads: the container
# each part is, the counts, and per expected flow its fields
EXPECT_SHAPES = {"flows": dict, "pids": list, "files": list, "trace_contains": list}
EXPECT_KEYS = (*EXPECT_SHAPES, "external_delivered")
EXPECT_FLOW_NUMBERS = {"delivered": "count", "sent": "count", "dropped": "count"}
EXPECT_FLOW_KEYS = ("verdict", *EXPECT_FLOW_NUMBERS)
VERDICTS = ("allow", "drop")

# Numbers checked when the scenario loads, by kind: "ms" is a time or a
# duration in milliseconds, "count" a whole number, "port" a whole number
# that fits the 16-bit port field and "pid" a whole number or null (a flow
# with no pid). Strings and booleans are never numbers.
NUMBER_KINDS = {
    "ms": "a number >= 0",
    "count": "an integer >= 0",
    "port": "an integer from 0 to 65535",
    "pid": "an integer >= 0 or null",
}
FLOW_NUMBERS = {
    "at_ms": "ms",
    "packets": "count",
    "src_port": "port",
    "dst_port": "port",
    "payload_len": "count",
    "pid": "pid",
    "accept_pid": "pid",
}
EVENT_NUMBERS = {"at_ms": "ms", "idle_ms": "ms", "pid": "count"}
# scenario params -> (kind, SimParams field); a *_ms value is stored in ns
PARAMS = {
    "rtt_ms": ("ms", "rtt_ns"),
    "recirc_delay_ms": ("ms", "recirc_delay_ns"),
    "rate_window_ms": ("ms", "rate_window_ns"),
    "recirc_limit": ("count", "recirc_limit"),
    "index_bits": ("count", "index_bits"),
    "conn_dec_capacity": ("count", "conn_dec_capacity"),
    "rate_limit": ("count", "rate_limit"),
    "udp_label_prefix": ("count", "udp_label_prefix"),
}


def _number_problem(value, kind: str) -> str | None:
    """Why `value` is not a number of `kind`, or None when it is one."""
    if value is None and kind == "pid":
        good = True
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        good = False
    elif kind == "ms":
        good = math.isfinite(value) and value >= 0
    else:
        good = isinstance(value, int) and 0 <= value <= (65_535 if kind == "port" else math.inf)
    return None if good else f"must be {NUMBER_KINDS[kind]}, not {value!r}"


def _check_numbers(where: str, entry: dict, kinds: dict[str, str]) -> None:
    for name, kind in kinds.items():
        problem = _number_problem(entry[name], kind) if name in entry else None
        if problem:
            raise ScenarioError(f"{where}: {name} {problem}")


@dataclass
class Scenario:
    name: str
    base_dir: Path
    topology_path: Path
    policy_paths: list[Path]
    params: dict
    events: list[tuple[str, dict]]  # (where in the file, event), setup first
    flows: list[dict]
    expect: dict
    path: Path  # the scenario file, named by every error about its entries


def _check_keys(where: str, entry: dict, known: tuple[str, ...]) -> None:
    for key in entry:
        if key not in known:
            raise ScenarioError(f"{where}.{key}: unknown key, expected one of {', '.join(known)}")


def _flow_where(path: Path, i: int, flow: dict) -> str:
    return f"{path}: flows[{i}] (id {flow.get('id')!r})"


def _check_files(where: str, base: Path, names) -> None:
    """Checks that `names` lists files that exist, relative to `base`."""
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ScenarioError(f"{where} must be a list of file names, not {names!r}")
    for name in names:
        if not (base / name).is_file():
            raise ScenarioError(f"{where}: no file {base / name}")


def _typed(where: str, value, kind: type):
    """`value`, checked to be a list or a dict as `kind` says."""
    if not isinstance(value, kind):
        raise ScenarioError(f"{where} must be {'a list' if kind is list else 'a mapping'}")
    return value


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    doc = read_yaml(path)
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: scenario must be a mapping")
    for key in ("topology", "policies"):
        if key not in doc:
            raise ScenarioError(f"{path}: missing {key!r}")
    base = path.parent
    if not isinstance(doc["topology"], str):
        raise ScenarioError(f"{path}: topology must be a file name, not {doc['topology']!r}")
    _check_files(f"{path}: topology", base, [doc["topology"]])
    _check_files(f"{path}: policies", base, doc["policies"])
    flows = _typed(f"{path}: flows", doc.get("flows", []), list)
    flow_ids = [flow.get("id") for flow in flows if isinstance(flow, dict)]
    events = []
    for section in ("setup", "events"):
        for i, event in enumerate(_typed(f"{path}: {section}", doc.get(section, []), list)):
            if not isinstance(event, dict):
                raise ScenarioError(f"{path}: {section}[{i}]: an event must be a mapping")
            op = event.get("op")
            where = f"{path}: {section}[{i}] (op {op!r})"
            if op not in EVENT_FIELDS:
                raise ScenarioError(
                    f"{where}: unknown op, expected one of {', '.join(EVENT_FIELDS)}"
                )
            for name in EVENT_FIELDS[op]:
                if name not in event:
                    raise ScenarioError(f"{where}: missing field {name!r}")
            if op == "update":
                _check_files(f"{where}: policies", base, event["policies"])
            _check_numbers(where, event, EVENT_NUMBERS)
            if op == "accept" and event["flow"] not in flow_ids:
                raise ScenarioError(
                    f"{where}: flow {event['flow']!r} is not a flow id in this file"
                )
            events.append((where, event))
    for i, flow in enumerate(flows):
        if not isinstance(flow, dict):
            raise ScenarioError(f"{path}: flows[{i}]: a flow must be a mapping")
        where = _flow_where(path, i, flow)
        for name in FLOW_FIELDS:
            if name not in flow:
                raise ScenarioError(f"{where}: missing field {name!r}")
        for name in ("src", "dst"):
            if not isinstance(flow[name], str):
                raise ScenarioError(f"{where}: {name} must be a name, not {flow[name]!r}")
        if flow.get("protocol", "tcp") not in FLOW_PROTOCOLS:
            raise ScenarioError(
                f"{where}: protocol must be one of {', '.join(FLOW_PROTOCOLS)}, "
                f"not {flow['protocol']!r}"
            )
        _check_numbers(where, flow, FLOW_NUMBERS)
    params = _typed(f"{path}: params", doc.get("params", {}), dict)
    for name, value in params.items():
        if name not in PARAMS:
            raise ScenarioError(
                f"{path}: params.{name}: unknown parameter, expected one of "
                f"{', '.join(PARAMS)}"
            )
        problem = _number_problem(value, PARAMS[name][0])
        if problem:
            raise ScenarioError(f"{path}: params.{name} {problem}")
    expect = _typed(f"{path}: expect", doc.get("expect", {}), dict)
    _check_keys(f"{path}: expect", expect, EXPECT_KEYS)
    for key, kind in EXPECT_SHAPES.items():
        _typed(f"{path}: expect.{key}", expect.get(key, kind()), kind)
    _check_numbers(f"{path}: expect", expect, {"external_delivered": "count"})
    for flow_id, want in expect.get("flows", {}).items():
        where = f"{path}: expect.flows.{flow_id}"
        if flow_id not in flow_ids:
            raise ScenarioError(f"{where}: {flow_id!r} is not a flow id in this file")
        _check_keys(where, _typed(where, want, dict), EXPECT_FLOW_KEYS)
        _check_numbers(where, want, EXPECT_FLOW_NUMBERS)
        if want.get("verdict", "allow") not in VERDICTS:
            raise ScenarioError(
                f"{where}: verdict must be one of {', '.join(VERDICTS)}, not {want['verdict']!r}"
            )
    return Scenario(
        name=doc.get("name", path.stem),
        base_dir=base,
        topology_path=base / doc["topology"],
        policy_paths=[base / p for p in doc["policies"]],
        params=params,
        events=events,
        flows=flows,
        expect=expect,
        path=path,
    )


def build_params(raw: dict) -> SimParams:
    """SimParams from a scenario's params, checked by load_scenario."""
    p = SimParams()
    for name, value in raw.items():
        kind, attr = PARAMS[name]
        setattr(p, attr, int(value * MS) if kind == "ms" else value)
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
    # every name the scenario uses is checked before the first event
    check_expectation_names(str(scn.path), scn.expect, topology, compiled)
    net = Network(topology, compiled, build_params(scn.params))
    _schedule_events(net, topology, scn)
    _schedule_flows(net, scn)
    net.run()
    checks = evaluate_expectations(net, compiled, topology, scn.expect)
    return ScenarioResult(scn, net, checks)


def _schedule_flows(net: Network, scn: Scenario) -> None:
    for i, raw in enumerate(scn.flows):
        try:
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
        except DifcnetError as exc:
            raise ScenarioError(f"{_flow_where(scn.path, i, raw)}: {exc}") from None


def _schedule_events(net: Network, topology: Topology, scn: Scenario) -> None:
    for where, raw in scn.events:
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
        if not isinstance(host, str) or host not in net.agents:
            raise ScenarioError(f"{where}: needs a known host, not {host!r}")
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
        # load_scenario checked that the flow is in the file
        return lambda t: agent.accept(int(raw["pid"]), net.flows[raw["flow"]].key, now_ns=t)
    # reboot: load_scenario rejects every op not handled here or in _schedule_events
    return lambda t: agent.reboot(now_ns=t)
