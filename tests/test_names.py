"""Names: policies, firewall rules and flows map every name through
`Topology.resolve`, and a name or address that means nothing fails at load
or before the first event, naming the field."""

import copy

import pytest
import yaml
from click.testing import CliRunner

from difcnet.cli import main
from difcnet.errors import CompileError, DifcnetError, ScenarioError, UnknownName
from difcnet.netcl import compile_program, parse
from difcnet.scenario import load_scenario, run_scenario
from difcnet.sim import Network
from difcnet.topology import load_topology, read_yaml, topology_from_dict

from tests.conftest import POLICY_DIR, SCENARIO_DIR, TOPOLOGY_DIR

FOREIGN = "192.0.2.77"  # in no topology's inventory
SHIPPED = ["hospital", "enterprise", "cisco", "stanford"]

# a hand-built topology whose external endpoint is not called `external`
INTERNET = {
    "name": "net",
    "switches": ["S1", "S2"],
    "links": [["S1", "S2"]],
    "hosts": [
        {"name": "A", "ip": "10.9.0.1", "switch": "S2"},
        {"name": "B", "ip": "10.9.0.2", "switch": "S2"},
        {"name": "C", "ip": "10.9.0.3", "switch": "S1"},
    ],
    "external": {"name": "internet", "ip": "198.51.100.1", "gateway": "S1"},
    "groups": {"Clients": ["A", "B"], "Everyone": ["C", "B", "A"]},
}


def _doc(name):
    return copy.deepcopy(INTERNET) if name == "internet" else read_yaml(TOPOLOGY_DIR / f"{name}.yaml")


def _expected(doc):
    """What each name stands for, read off the document itself."""
    ip_of = {h["name"]: h["ip"] for h in doc["hosts"]}
    ext = doc.get("external", {})
    ext_ip = ext.get("ip", "203.0.113.10")
    want = {name: {ip} for name, ip in ip_of.items()}
    want.update({g: {ip_of[m] for m in members} for g, members in doc.get("groups", {}).items()})
    want["external_network"] = want[ext.get("name", "external")] = {ext_ip}
    want[FOREIGN] = {FOREIGN}
    return want


@pytest.mark.parametrize("name", SHIPPED + ["internet"])
def test_compiler_firewall_and_flows_agree_on_every_name(name):
    doc = _doc(name)
    want = _expected(doc)
    names = list(want)
    doc["firewall"] = [{"action": "deny", "src": n, "dst": [n]} for n in names]
    topo = topology_from_dict(doc)
    program = parse("".join(f"if match(src_ip=={n}) then drop\n" for n in names))
    compiled = compile_program(program, topo)
    # no destination: every rule lands on the gateway, among others
    src_values = {e.source_line: e.match.src.values for e in compiled.configs[topo.gateway].entries}
    net = Network(topo, compiled)
    several = 0
    for i, n in enumerate(names):
        assert set(topo.resolve(n)) == want[n], n
        assert src_values[i + 1] == want[n], n
        assert topo.firewall[i].src == topo.firewall[i].dst == want[n], n
        if len(want[n]) == 1:
            key = net.send_flow(flow_id=f"f{i}", src=n, dst=n, at_ns=0, packets=0).key
            assert {key.src_ip} == {key.dst_ip} == want[n], n
        else:
            several += 1
            with pytest.raises(DifcnetError, match=rf"^flow 'f{i}': src: '{n}' names \d+ addresses"):
                net.send_flow(flow_id=f"f{i}", src=n, dst=FOREIGN, at_ns=0, packets=0)
    assert several == len(doc.get("groups", {}))


def test_a_firewall_side_is_the_union_of_its_names():
    doc = _doc("internet")
    doc["firewall"] = [{"action": "deny", "src": ["Clients", "C", FOREIGN], "dst": "internet"}]
    rule = topology_from_dict(doc).firewall[0]
    assert rule.src == {"10.9.0.1", "10.9.0.2", "10.9.0.3", FOREIGN}
    assert rule.dst == {"198.51.100.1"}


def _net():
    topo = topology_from_dict(_doc("internet"))
    return Network(topo, compile_program(parse("if match(dst_ip==any) then allow\n"), topo))


def test_a_flow_from_external_network_enters_at_the_gateway():
    # once a bare ValueError from the CRC; the binding names one address
    net = _net()
    rec = net.send_flow(flow_id="in", src="external_network", dst="A", at_ns=0, packets=1)
    net.run()
    assert rec.key.src_ip == "198.51.100.1" and rec.src == "external_network"
    assert net.trace[0] == "t=0 send host=external_network 198.51.100.1:41000>10.9.0.1:80/6[tcp/syn#0]"
    assert rec.delivered == 1


def _hospital_flow(src):
    """A Host2 -> PACS TCP flow from pid 7 on hospital under listing1, its
    source named `src`: the run's flow record, trace and agent events."""
    doc = _doc("hospital") | {"groups": {"Imaging": ["Host2"]}}
    topo = topology_from_dict(doc)
    compiled = compile_program(parse((POLICY_DIR / "listing1.ncl").read_text()), topo)
    net = Network(topo, compiled)
    net.agents["Host2"].spawn(7)
    rec = net.send_flow(flow_id="f", src=src, dst="PACS", at_ns=1_000_000, pid=7)
    net.run()
    events = {name: [repr(e) for e in agent.events] for name, agent in net.agents.items()}
    return rec, net.trace, events


@pytest.mark.parametrize("src", ["10.1.2.12", "Imaging"], ids=["address", "one-member-group"])
def test_a_flow_from_a_hosts_address_is_labelled_by_its_agent_however_named(src):
    # named by the host's address or a group of that host alone, the flow
    # once entered at the gateway unlabelled and was dropped at S2:policy
    want, want_trace, want_events = _hospital_flow("Host2")
    assert (want.sent, want.delivered) == (3, 3)
    rec, trace, events = _hospital_flow(src)
    assert (rec.src, rec.key, rec.sent, rec.delivered) == (src, want.key, 3, 3)
    # the trace names the source as the caller wrote it
    assert trace == [line.replace(" send host=Host2 ", f" send host={src} ") for line in want_trace]
    assert f"t=1000000 send host={src} 10.1.2.12:41000>10.1.2.20:80/6[tcp/syn+labeled#0]" in trace
    assert events == want_events


# -- one case per disagreement the three resolvers had ----------------------


@pytest.mark.parametrize(
    "flow, problem",
    [
        ({"src": "Hots1", "dst": "A"}, "src: cannot resolve 'Hots1' in topology 'net'"),
        ({"src": "A", "dst": "Clients"}, "dst: 'Clients' names 2 addresses, a flow endpoint names one"),
        ({"src": "external", "dst": "A"}, "src: cannot resolve 'external' in topology 'net'"),
        ({"src": "A", "dst": "010.0.0.1"}, "dst: cannot resolve '010.0.0.1' in topology 'net'"),
    ],
    ids=["misspelled-src", "group", "literal-external", "leading-zero"],
)
def test_send_flow_rejects_a_bad_endpoint_before_touching_state(flow, problem):
    net = _net()
    with pytest.raises(DifcnetError) as exc:
        net.send_flow(flow_id="f", at_ns=0, **flow)
    assert str(exc.value) == f"flow 'f': {problem}"
    assert not net.flows and not net._heap and net._evseq == 0


def test_firewall_takes_the_external_name_not_the_literal_external(tmp_path):
    doc = _doc("internet")
    doc["firewall"] = [{"action": "deny", "src": "A", "dst": "internet"}]
    assert topology_from_dict(doc).firewall[0].dst == {"198.51.100.1"}
    doc["firewall"].append({"action": "deny", "src": ["A", "external"]})
    path = tmp_path / "topo.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(UnknownName) as exc:
        load_topology(str(path))
    assert str(exc.value) == f"{path}: firewall[1].src: cannot resolve 'external' in topology 'net'"


def _set(doc, dotted, value):
    *parents, last = dotted
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize(
    "where, value, problem",
    [
        (("groups", "A"), ["B", "C"], "groups.A: name 'A' is already used by hosts[0]"),
        (("external", "name"), "Clients", "external.name: name 'Clients' is already used by groups.Clients"),
        (("external", "name"), "external_network",
         "external.name: name 'external_network' is already used by the binding external_network"),
        (("groups", "external_network"), ["A"],
         "groups.external_network: name 'external_network' is already used by the binding external_network"),
        (("hosts", 1, "name"), "A", "hosts[1]: name 'A' is already used by hosts[0]"),
        (("hosts", 1, "name"), "internet", "external.name: name 'internet' is already used by hosts[1]"),
        (("hosts", 0, "ip"), "10.0.0.300", "hosts[0] (A): ip: not an IPv4 address: '10.0.0.300'"),
        (("hosts", 0, "ip"), "198.51.100.1", "hosts[0] (A): ip 198.51.100.1 is the external endpoint's address"),
        (("hosts", 2, "ip"), "10.9.0.1", "hosts[2] (C): ip 10.9.0.1 is already used by hosts[0] (A)"),
        (("external", "ip"), "198.51.100.01", "external.ip: not an IPv4 address: '198.51.100.01'"),
        (("firewall",), [{"action": "deny", "dst": {"host": "A"}}],
         "firewall[0].dst: must be a string or a list of strings, not a mapping"),
    ],
    ids=["group-is-host", "group-is-external", "binding-is-external", "group-is-binding",
         "duplicate-host", "host-is-external",
         "octet-300", "external-ip", "duplicate-ip", "external-leading-zero", "not-a-name"],
)
def test_topology_rejects_an_ambiguous_name_or_bad_address_at_load(tmp_path, where, value, problem):
    path = tmp_path / "topo.yaml"
    path.write_text(yaml.safe_dump(_set(_doc("internet"), where, value)))
    with pytest.raises(DifcnetError) as exc:
        load_topology(str(path))
    assert str(exc.value) == f"{path}: {problem}"


@pytest.mark.parametrize("address", ["010.0.0.1", "١.2.3.4", "10.0.0.256", "10.0.0"])
@pytest.mark.parametrize("field", ["src_ip", "dst_ip"])
def test_policy_address_that_is_not_a_canonical_dotted_quad_names_its_line(field, address):
    topo = topology_from_dict(_doc("internet"))
    program = parse(f"if match(dst_ip==A) then allow\nif match({field}=={address}) then drop\n")
    with pytest.raises(CompileError) as exc:
        compile_program(program, topo)
    assert str(exc.value) == f"line 2: cannot resolve {address!r} in topology 'net'"


# -- scenarios: names checked before the first event ------------------------


def _scenario(tmp_path, **extra):
    """scenario1's topology and policies around the given sections."""
    body = {
        "topology": str(TOPOLOGY_DIR / "hospital.yaml"),
        "policies": [str(SCENARIO_DIR / "policies" / "listing1.ncl")],
        **extra,
    }
    path = tmp_path / "scn.yaml"
    path.write_text(yaml.safe_dump(body))
    return path


@pytest.mark.parametrize(
    "sections, problem",
    [
        ({"setup": [{"host": "Hots1", "op": "spawn", "pid": 1}]},
         "setup[0] (op 'spawn'): needs a known host, not 'Hots1'"),
        ({"events": [{"host": ["PACS"], "op": "reboot"}]},
         "events[0].host: must be a string, not a list"),
        ({"flows": [{"id": "ok", "src": "Host1", "dst": "PACS"},
                    {"id": "typo", "src": "PACS", "dst": "Hots1"}]},
         "flows[1]: flow 'typo': dst: cannot resolve 'Hots1' in topology 'hospital'"),
        ({"flows": [{"id": "f", "src": "Host1", "dst": "PACS"},
                    {"id": "f", "src": "Host1", "dst": "Host2"}]},
         "flows[1].id: 'f' is already used by flows[0]"),
        ({"expect": {"pids": [{"host": "PACX", "pid": 1}]}},
         "expect.pids[0]: host 'PACX' is not a host in topology 'hospital'"),
        ({"expect": {"files": [{"host": "PACX", "path": "/x"}]}},
         "expect.files[0]: host 'PACX' is not a host in topology 'hospital'"),
        ({"expect": {"files": [{"host": "PACS"}]}}, "expect.files[0]: missing field 'path'"),
        ({"expect": {"pids": [{"host": "PACS", "pid": 1, "tracker": "/server1/sensitive_file"}]}},
         "expect.pids[0]: tracker '/server1/sensitive_file': tracker value must be <path>@<host>"),
        ({"expect": {"files": [{"host": "PACS", "path": "/x", "tracker": "/nothing@PACS"}]}},
         "expect.files[0]: tracker '/nothing@PACS': no tracker assigned for /nothing@PACS"),
    ],
    ids=["setup-host", "event-host-list", "flow-endpoint", "flow-id-reused", "pid-host",
         "file-host", "file-path", "tracker-without-at", "untracked-file"],
)
def test_scenario_names_fail_before_the_first_event(tmp_path, monkeypatch, sections, problem):
    """Each fails when the scenario loads (a host that is not a string, a
    missing field, a reused flow id) or once the policies compile (a name that does not
    resolve), never in the run."""
    path = _scenario(tmp_path, **sections)
    ran = []
    monkeypatch.setattr(Network, "run", lambda self, until_ns=None: ran.append(until_ns))
    with pytest.raises(ScenarioError) as exc:
        run_scenario(load_scenario(path))
    assert str(exc.value) == f"{path}: {problem}"
    assert not ran


def test_scenario_endpoint_that_is_not_a_string_fails_at_load(tmp_path):
    path = _scenario(tmp_path, flows=[{"id": "f", "src": "Host1", "dst": ["PACS"]}])
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert str(exc.value) == f"{path}: flows[0].dst: must be a string, not a list"


def test_scenario3_tracker_without_a_host_is_named(tmp_path):
    text = (SCENARIO_DIR / "scenario3.yaml").read_text()
    assert text.count("tracker: /server1/sensitive_file@Server1}") == 2
    text = (
        text.replace("tracker: /server1/sensitive_file@Server1}", "tracker: /server1/sensitive_file}", 1)
        .replace("topology: topologies/", f"topology: {SCENARIO_DIR}/topologies/")
        .replace("  - policies/", f"  - {SCENARIO_DIR}/policies/")
    )
    path = tmp_path / "scn.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioError) as exc:
        run_scenario(load_scenario(path))
    assert str(exc.value) == (
        f"{path}: expect.pids[0]: tracker '/server1/sensitive_file': "
        "tracker value must be <path>@<host>"
    )


def test_run_rejects_a_misspelled_flow_destination_without_traceback(tmp_path):
    # once dropped as no-route, so `expect: {verdict: drop}` passed
    text = (SCENARIO_DIR / "scenario1.yaml").read_text()
    text = (
        text.replace(
            "  - {id: entry,",
            "  - {id: typo, at_ms: 1, src: PACS, dst: Hots1, packets: 1}\n  - {id: entry,",
        )
        .replace("  flows:\n", "  flows:\n    typo: {verdict: drop}\n")
        .replace("topology: topologies/", f"topology: {SCENARIO_DIR}/topologies/")
        .replace("  - policies/", f"  - {SCENARIO_DIR}/policies/")
    )
    path = tmp_path / "scn.yaml"
    path.write_text(text)
    res = CliRunner().invoke(main, ["run", str(path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == (
        f"Error: {path}: flows[0]: flow 'typo': dst: "
        "cannot resolve 'Hots1' in topology 'hospital'\n"
    )
    assert "Traceback" not in res.output and "[PASS]" not in res.output
