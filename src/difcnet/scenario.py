"""Scenario files: a topology, an ordered policy list, host events, and
traffic, plus the expected outcomes. Everything is YAML; paths inside a
scenario resolve relative to the scenario file."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .errors import DifcnetError, ScenarioError
from .netcl import CompiledPolicy, compile_program, parse_files
from .scenario_checks import check_expectation_names, evaluate_expectations
from .sim import FLOW_PROTOCOLS, Network, SimParams
from .topology import LIST, MAPPING, PID, PORT, STRING, STRINGS, Kind, Topology, check_entry
from .topology import is_count, load_topology, one_of, read_yaml

MS = 1_000_000


# The numbers a scenario holds, by kind: a time or a duration in ms, a
# count, a port and a pid, which may be null (a flow with no pid), both
# `topology` kinds that send_flow checks too; and a tracker expectation, a
# <path>@<host> name or 0 or null (no tracker). Strings and booleans are
# never numbers.
MILLISECONDS = Kind(
    "a number >= 0",
    lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
    and math.isfinite(v) and v >= 0,
)
COUNT = Kind("an integer >= 0", is_count)
TRACKER = Kind(
    "a string, 0 or null", lambda v: v is None or isinstance(v, str) or (v == 0 and is_count(v))
)

# Each entry of a scenario file, checked when it loads: {key: kind}, and
# the keys it must have.
SCENARIO_FIELDS = {
    "name": STRING, "topology": STRING, "policies": STRINGS, "params": MAPPING,
    "setup": LIST, "events": LIST, "flows": LIST, "expect": MAPPING,
}
FLOW_FIELDS = {
    "id": STRING, "src": STRING, "dst": STRING, "at_ms": MILLISECONDS, "packets": COUNT,
    "src_port": PORT, "dst_port": PORT, "pid": PID, "accept_pid": PID,
    "protocol": one_of(*FLOW_PROTOCOLS),
}
FLOW_REQUIRED = ("id", "src", "dst")
# every event op and the fields it reads, besides those any event may have
EVENT_OPS = {
    "spawn": ("pid",), "exit": ("pid",), "read": ("pid", "path"), "write": ("pid", "path"),
    "create": ("pid", "path"), "accept": ("pid", "flow"), "reboot": (), "gc": (),
    "update": ("policies",),
}
EVENT_COMMON = ("op", "host", "at_ms", "idle_ms")
EVENT_FIELDS = {
    "op": one_of(*EVENT_OPS), "host": STRING, "at_ms": MILLISECONDS, "idle_ms": MILLISECONDS,
    "pid": COUNT, "path": STRING, "flow": STRING, "policies": STRINGS,
}
# per op, its fields and required keys; an event whose op is not an op is
# checked against every op's fields, so the error names its op
EVENT_ENTRIES = {
    op: ({k: EVENT_FIELDS[k] for k in (*EVENT_COMMON, *reads)}, ("op", *reads))
    for op, reads in EVENT_OPS.items()
}
ANY_EVENT = (EVENT_FIELDS, ("op",))
# a *_ms param is stored in ns, in the SimParams field *_ns
PARAMS = {
    "rtt_ms": MILLISECONDS, "recirc_delay_ms": MILLISECONDS, "rate_window_ms": MILLISECONDS,
    "recirc_limit": COUNT, "index_bits": COUNT, "conn_dec_capacity": COUNT,
    "rate_limit": COUNT, "udp_label_prefix": COUNT,
}
EXPECT_SECTIONS = {
    "flows": MAPPING, "pids": LIST, "files": LIST, "trace_contains": STRINGS,
    "external_delivered": COUNT,
}
EXPECT_FLOW_FIELDS = {
    "verdict": one_of("allow", "drop"), "delivered": COUNT, "sent": COUNT, "dropped": COUNT,
}
# per expect.pids or expect.files entry, its fields and required keys
_LABEL_CHECKS = {"includes": STRINGS, "excludes": STRINGS, "tracker": TRACKER}
EXPECT_ENTRIES = {
    "pids": ({"host": STRING, "pid": COUNT, **_LABEL_CHECKS}, ("host", "pid")),
    "files": ({"host": STRING, "path": STRING, **_LABEL_CHECKS}, ("host", "path")),
}


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


def _check_files(where: str, base: Path, names: list[str]) -> None:
    """Checks that each of `names` is a file, relative to `base`."""
    for name in names:
        if not (base / name).is_file():
            raise ScenarioError(f"{where}: no file {base / name}")


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    file = str(path)
    doc = check_entry(
        ScenarioError, file, "", read_yaml(path), SCENARIO_FIELDS, ("topology", "policies")
    )
    base = path.parent
    _check_files(f"{path}: topology", base, [doc["topology"]])
    _check_files(f"{path}: policies", base, doc["policies"])
    flows = doc.get("flows", [])
    flow_ids: dict[str, int] = {}  # flow id -> the index of its flow
    for i, flow in enumerate(flows):
        check_entry(ScenarioError, file, f"flows[{i}]", flow, FLOW_FIELDS, FLOW_REQUIRED)
        first = flow_ids.setdefault(flow["id"], i)
        if first != i:
            raise ScenarioError(
                f"{path}: flows[{i}].id: {flow['id']!r} is already used by flows[{first}]"
            )
    events = []
    for section in ("setup", "events"):
        for i, event in enumerate(doc.get(section, [])):
            op = event.get("op") if isinstance(event, dict) else None
            entry = EVENT_ENTRIES.get(op, ANY_EVENT) if isinstance(op, str) else ANY_EVENT
            check_entry(ScenarioError, file, f"{section}[{i}]", event, *entry)
            where = f"{path}: {section}[{i}] (op {op!r})"
            if op == "update":
                _check_files(f"{where}: policies", base, event["policies"])
            elif op == "accept" and event["flow"] not in flow_ids:
                raise ScenarioError(
                    f"{where}: flow {event['flow']!r} is not a flow id in this file"
                )
            events.append((where, event))
    params = check_entry(ScenarioError, file, "params", doc.get("params", {}), PARAMS)
    # the rate limiter divides the clock by the window
    if int(params.get("rate_window_ms", 1) * MS) == 0:
        raise ScenarioError(
            f"{path}: params.rate_window_ms: must be at least 1 ns (0.000001), "
            f"not {params['rate_window_ms']!r}"
        )
    expect = check_entry(ScenarioError, file, "expect", doc.get("expect", {}), EXPECT_SECTIONS)
    for flow_id, want in expect.get("flows", {}).items():
        field = f"expect.flows.{flow_id}"
        if flow_id not in flow_ids:
            raise ScenarioError(f"{path}: {field}: {flow_id!r} is not a flow id in this file")
        check_entry(ScenarioError, file, field, want, EXPECT_FLOW_FIELDS)
    for section, (fields, required) in EXPECT_ENTRIES.items():
        for i, spec in enumerate(expect.get(section, [])):
            check_entry(ScenarioError, file, f"expect.{section}[{i}]", spec, fields, required)
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
        if name.endswith("_ms"):
            setattr(p, f"{name[:-3]}_ns", int(value * MS))
        else:
            setattr(p, name, value)
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
    net = Network(topology, compile_program(program, topology), build_params(scn.params))
    # the last policy version numbers every tag and file of the earlier ones
    last = _schedule_events(net, topology, scn)
    # every name the scenario uses is checked before the first event
    check_expectation_names(str(scn.path), scn.expect, topology, last)
    _schedule_flows(net, scn)
    try:
        net.run()
    except ScenarioError:
        raise  # a setup or events entry, named where it was scheduled
    except DifcnetError as exc:
        raise ScenarioError(f"{scn.path}: at {net.now / MS:g} ms: {exc}") from None
    checks = evaluate_expectations(net, last, scn.expect)
    return ScenarioResult(scn, net, checks)


def _schedule_flows(net: Network, scn: Scenario) -> None:
    for i, raw in enumerate(scn.flows):
        try:
            # load_scenario allows only send_flow's keywords, so a key the
            # entry leaves out takes send_flow's default
            net.send_flow(
                flow_id=raw["id"],
                at_ns=int(raw.get("at_ms", 0) * MS),
                **{k: v for k, v in raw.items() if k not in ("id", "at_ms")},
            )
        except DifcnetError as exc:  # send_flow's error names the flow
            raise ScenarioError(f"{scn.path}: flows[{i}]: {exc}") from None


def _schedule_events(net: Network, topology: Topology, scn: Scenario) -> CompiledPolicy:
    """One scheduled call per setup or events entry. Each update's policy is
    compiled against the version before it, in file order; returns the last
    version."""
    compiled = net.control.compiled
    for where, raw in scn.events:
        op, host = raw["op"], raw.get("host")
        at = int(raw.get("at_ms", 0) * MS)
        if op == "update":
            program = parse_files([str(scn.base_dir / p) for p in raw["policies"]])
            compiled = compile_program(program, topology, compiled)
            net.schedule_call(at, "policy-update", partial(net.apply_update, compiled))
        elif op == "gc":
            idle = int(raw.get("idle_ms", 60_000) * MS)
            net.schedule_call(at, "", partial(net.gc_conn_dec, idle))  # it logs its count
        elif host in net.agents:
            call = partial(_agent_event, net, where, raw, at)
            net.schedule_call(at, f"event host={host} op={op}", call)
        else:
            raise ScenarioError(f"{where}: needs a known host, not {host!r}")
    return compiled


def _agent_event(net: Network, where: str, raw: dict, t: int) -> None:
    """Runs an agent's entry at time `t`, with an agent's error prefixed by
    `where`, the entry. load_scenario rejects every op not handled here or
    in _schedule_events, and checks the fields each op reads."""
    agent = net.agents[raw["host"]]
    op, pid = raw["op"], raw.get("pid")
    try:
        if op == "spawn":
            agent.spawn(pid, now_ns=t)
        elif op == "exit":
            agent.exit(pid, now_ns=t)
        elif op == "read":
            agent.read(pid, agent.inode_of(raw["path"]), now_ns=t)
        elif op == "write":
            agent.write(pid, agent.inode_of(raw["path"]), now_ns=t)
        elif op == "create":
            agent.create(pid, raw["path"], now_ns=t)
        elif op == "accept":
            agent.accept(pid, net.flows[raw["flow"]].key, now_ns=t)
        else:  # reboot
            agent.reboot(now_ns=t)
    except DifcnetError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
