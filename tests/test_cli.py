"""Command line entry points, driven through click's test runner."""

import pytest
from click.testing import CliRunner

from difcnet.cli import main
from difcnet.errors import ScenarioError
from difcnet.scenario import load_scenario

from tests.conftest import POLICY_DIR, REPO_ROOT, SCENARIO_DIR, TOPOLOGY_DIR

HOSPITAL = str(TOPOLOGY_DIR / "hospital.yaml")
LISTING1 = str(POLICY_DIR / "listing1.ncl")
LISTING1_BENIGN = str(POLICY_DIR / "listing1_benign.ncl")


@pytest.fixture
def runner():
    return CliRunner()


def test_run_scenario_passes(runner):
    res = runner.invoke(main, ["run", str(SCENARIO_DIR / "scenario1.yaml")])
    assert res.exit_code == 0, res.output
    assert "[PASS]" in res.output
    assert "[FAIL]" not in res.output


def test_run_quiet_hides_passes(runner):
    res = runner.invoke(
        main, ["run", "--quiet", str(SCENARIO_DIR / "scenario1.yaml")]
    )
    assert res.exit_code == 0, res.output
    assert "[PASS]" not in res.output


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3", "scenario4"])
def test_run_writes_trace(runner, tmp_path, name):
    out = tmp_path / "trace.txt"
    res = runner.invoke(
        main,
        ["run", str(SCENARIO_DIR / f"{name}.yaml"), "--trace", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == (REPO_ROOT / "tests" / "golden" / f"{name}.trace").read_bytes()


def test_run_missing_file(runner):
    res = runner.invoke(main, ["run", "no-such.yaml"])
    assert res.exit_code != 0


def test_run_failing_expectation_exits_nonzero(runner, tmp_path):
    scn = tmp_path / "scn.yaml"
    scn.write_text(
        f"""\
topology: {HOSPITAL}
policies: [{LISTING1}, {LISTING1_BENIGN}]
setup:
  - {{host: Host1, op: spawn, pid: 1}}
flows:
  - {{id: f, src: Host1, dst: PACS, pid: 1, packets: 1, dst_port: 104}}
expect:
  flows:
    f: {{verdict: drop}}
"""
    )
    res = runner.invoke(main, ["run", str(scn)])
    assert res.exit_code == 1
    assert "[FAIL]" in res.output


def test_check_reports_tables(runner):
    res = runner.invoke(
        main, ["check", LISTING1, LISTING1_BENIGN, "--topology", HOSPITAL]
    )
    assert res.exit_code == 0, res.output
    assert "rules" in res.output
    assert "ternary=" in res.output


# `difcnet check` on each scenario's policy list and topology, recorded
# from the three-table compiler; the per-table counts are storage
# accounting and must not move when the tables' internal layout does.
PINNED_CHECK = {
    "scenario1": """\
6 rules, 3 labeled hosts, 0 tracked files, 4 tags
  S1: ternary=2 exact=0 tracker=0 privilege=0
  S2: ternary=3 exact=1 tracker=0 privilege=0
""",
    "scenario2": """\
5 rules, 5 labeled hosts, 0 tracked files, 4 tags
  S2: ternary=2 exact=0 tracker=0 privilege=1
  S3: ternary=2 exact=0 tracker=0 privilege=0
  S4: ternary=2 exact=0 tracker=0 privilege=1
""",
    "scenario3": """\
6 rules, 3 labeled hosts, 1 tracked files, 5 tags
  S1: ternary=2 exact=0 tracker=1 privilege=0
  S2: ternary=1 exact=0 tracker=0 privilege=0
  S3: ternary=1 exact=2 tracker=0 privilege=1
  S4: ternary=1 exact=0 tracker=0 privilege=0
""",
}


@pytest.mark.parametrize("name", sorted(PINNED_CHECK))
def test_check_output_pinned(runner, name):
    scn = load_scenario(SCENARIO_DIR / f"{name}.yaml")
    args = ["check", *map(str, scn.policy_paths), "--topology", str(scn.topology_path)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.output == PINNED_CHECK[name]


MALFORMED_POLICY_DIR = REPO_ROOT / "tests" / "data" / "malformed_policy"
# each fixture, checked against hospital, once ended in a ValueError
# traceback or compiled to a rule that matched what it should not
MALFORMED_POLICY = {
    "unknown_action": "line 1, col 0: unknown action 'explode'",
    "reroute_superscript_port": "line 2, col 0: reroute takes an egress port number",
    "ttl_arabic_indic": "line 2: ttl must be an integer from 0 to 255, not '٣'",
    "src_not_any": "line 2: != is not supported on 'any'",
    "dst_not_any": "line 2: != is not supported on 'any'",
}


@pytest.mark.parametrize("name", MALFORMED_POLICY)
def test_check_rejects_bad_policy(runner, name):
    assert sorted(MALFORMED_POLICY) == sorted(p.stem for p in MALFORMED_POLICY_DIR.glob("*.ncl"))
    path = MALFORMED_POLICY_DIR / f"{name}.ncl"
    res = runner.invoke(main, ["check", str(path), "--topology", HOSPITAL])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == f"Error: {MALFORMED_POLICY[name]}\n"


def test_report_shows_placement(runner):
    res = runner.invoke(
        main, ["report", LISTING1, LISTING1_BENIGN, "--topology", HOSPITAL]
    )
    assert res.exit_code == 0, res.output
    assert "single switch deployment" in res.output
    assert "average reduction" in res.output


def test_routes_with_explicit_rows(runner):
    res = runner.invoke(
        main,
        ["routes", HOSPITAL, "--target", "PACS", "--row", "2:2", "--row", "3:1"],
    )
    assert res.exit_code == 0, res.output
    assert "topology=hospital" in res.output
    assert "exhaustive" in res.output
    lines = [l for l in res.output.splitlines() if l.lstrip().startswith(("2 ", "3 "))]
    assert len(lines) == 2


# `difcnet routes` with the default rows, as printed before exhaustive rows
# were counted over merged prefix states; the sampled row walks its routes
ROUTES_TABLES = {
    ("enterprise", "Server1"): (
        "topology=enterprise hosts=8 target=Server1 candidates=7\n"
        "steps allowed       routes  filter%  labels%  basis\n"
        "    6       1         5040     85.7    100.0  exhaustive\n"
        "    5       2         2520     71.4    100.0  exhaustive\n"
        "    4       3          840     57.1    100.0  exhaustive\n"
        "    3       4          210     42.9    100.0  exhaustive\n"
        "    2       5           42     28.6    100.0  exhaustive\n"
    ),
    ("cisco", "host1"): (
        "topology=cisco hosts=14 target=host1 candidates=13\n"
        "steps allowed       routes  filter%  labels%  basis\n"
        "    5       2       154440     84.8    100.0  sampled 20000\n"
        "    4       4        17160     69.2    100.0  exhaustive\n"
        "    3       6         1716     53.8    100.0  exhaustive\n"
        "    2       8          156     38.5    100.0  exhaustive\n"
    ),
}


@pytest.mark.parametrize("topology, target", ROUTES_TABLES)
def test_routes_default_table_is_pinned(runner, topology, target):
    res = runner.invoke(
        main, ["routes", str(TOPOLOGY_DIR / f"{topology}.yaml"), "--target", target]
    )
    assert res.exit_code == 0, res.output
    assert res.output == ROUTES_TABLES[topology, target]


def test_routes_needs_rows_for_unknown_topology(runner):
    res = runner.invoke(main, ["routes", HOSPITAL])
    assert res.exit_code != 0
    assert "--row" in res.output


def test_apply_plans_diff(runner, tmp_path):
    old = tmp_path / "old.ncl"
    new = tmp_path / "new.ncl"
    old.write_text("if match(dst_ip==PACS) then allow\n")
    new.write_text(
        "if match(dst_ip==PACS) then allow\nif match(dst_ip==Host1) then drop\n"
    )
    res = runner.invoke(
        main,
        ["apply", "--topology", HOSPITAL, "--old", str(old), "--new", str(new)],
    )
    assert res.exit_code == 0, res.output
    assert "plan: +" in res.output
    assert "+ [exact]" in res.output


def test_apply_no_change(runner, tmp_path):
    pol = tmp_path / "p.ncl"
    pol.write_text("if match(dst_ip==PACS) then allow\n")
    res = runner.invoke(
        main,
        ["apply", "--topology", HOSPITAL, "--old", str(pol), "--new", str(pol)],
    )
    assert res.exit_code == 0, res.output
    assert "plan: +0 entries, -0 entries" in res.output


@pytest.fixture
def broken_topology(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("name: t\nswitches: [S1]\nhosts:\n  - {name: A, switch: S1}\n")
    return str(path)


@pytest.mark.parametrize(
    "args",
    [
        ["check", LISTING1, "--topology", "{topo}"],
        ["report", LISTING1, "--topology", "{topo}"],
        ["apply", "--topology", "{topo}", "--old", LISTING1, "--new", LISTING1],
        ["routes", "{topo}", "--row", "2:1"],
    ],
    ids=lambda args: args[0],
)
def test_bad_topology_is_a_click_error(runner, broken_topology, args):
    res = runner.invoke(main, [a.format(topo=broken_topology) for a in args])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"Error: {broken_topology}: hosts[0]: missing field 'ip'" in res.output


@pytest.mark.parametrize(
    "text, message",
    [
        ("name: t\nswitches: [S1, S2\nhosts: []\n", "{path}:3: invalid YAML: "),
        ("name: t\nswitches: [S1]\nlinks: [[S1]]\n",
         "{path}: links[0]: must be [switch, switch] or [switch, switch, latency_ns], not ['S1']\n"),
    ],
    ids=["yaml-syntax", "short-link"],
)
def test_check_reports_a_malformed_topology_without_traceback(runner, tmp_path, text, message):
    path = tmp_path / "topo.yaml"
    path.write_text(text)
    res = runner.invoke(main, ["check", LISTING1, "--topology", str(path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith("Error: " + message.format(path=path))


def test_run_reports_a_malformed_scenario_without_traceback(runner, tmp_path):
    path = tmp_path / "scn.yaml"
    path.write_text("topology: t.yaml\npolicies: [p.ncl\n")
    res = runner.invoke(main, ["run", str(path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output.startswith(f"Error: {path}:3: invalid YAML: ")


MALFORMED_DIR = REPO_ROOT / "tests" / "data" / "malformed"
OPS = "spawn, exit, read, write, create, accept, reboot, gc, update"
# each fixture once loaded and checked nothing, ended in a traceback, or in an
# error naming no file or entry
MALFORMED = {
    "missing_topology": "topology: no file {dir}/../../../scenarios/topologies/nowhere.yaml",
    "missing_policy": "policies: no file {dir}/nowhere.ncl",
    "missing_update_policy": "events[0] (op 'update'): policies: no file {dir}/nowhere.ncl",
    "unknown_op": f"events[0].op: must be one of {OPS}, not 'frobnicate'",
    "unknown_op_without_host": f"setup[0].op: must be one of {OPS}, not 'frobnicate'",
    "setup_not_a_list": "setup: must be a list, not 5",
    "expect_flows_list": "expect.flows: must be a mapping, not a list",
    "update_policies_string": "events[0].policies: must be a list of strings, "
    "not '../../../scenarios/policies/listing1.ncl'",
    "expect_unknown_key": "expect.flow: unknown key, expected one of flows, pids, files, "
    "trace_contains, external_delivered",
    "expect_flow_unknown_key": "expect.flows.entry.verdcit: unknown key, expected one of "
    "verdict, delivered, sent, dropped",
    "expect_delivered_not_a_count": "expect.flows.entry.delivered: must be an integer >= 0, "
    "not 'lots'",
    "expect_external_delivered_negative": "expect.external_delivered: must be an integer >= 0, "
    "not -1",
    "expect_verdict_misspelt": "expect.flows.entry.verdict: must be one of allow, drop, "
    "not 'alow'",
    "expect_flow_unknown_id": "expect.flows.entyr: 'entyr' is not a flow id in this file",
    "flow_unknown_key": "flows[1].acept_pid: unknown key, expected one of id, src, dst, at_ms, "
    "packets, src_port, dst_port, pid, accept_pid, protocol",
    "event_unknown_key": "setup[0].at: unknown key, expected one of op, host, at_ms, idle_ms, "
    "pid",
    "expect_pids_unknown_key": "expect.pids[0].include: unknown key, expected one of host, pid, "
    "includes, excludes, tracker",
    "rate_window_zero": "params.rate_window_ms: must be at least 1 ns (0.000001), not 0",
    "event_op_list": f"setup[0].op: must be one of {OPS}, not a list",
    "event_host_list": "setup[0].host: must be a string, not a list",
    "event_path_number": "events[0].path: must be a string, not 5",
    "flow_id_list": "flows[0].id: must be a string, not a list",
    "trace_contains_number": "expect.trace_contains[1]: must be a string, not 5",
    "expect_pid_text": "expect.pids[0].pid: must be an integer >= 0, not 'abc'",
    "expect_file_path_number": "expect.files[0].path: must be a string, not 5",
    "expect_includes_string": "expect.pids[0].includes: must be a list of strings, not 'Host1'",
    "expect_tracker_list": "expect.pids[0].tracker: must be a string, 0 or null, not a list",
    "scenario_unknown_key": "expcet: unknown key, expected one of name, topology, policies, "
    "params, setup, events, flows, expect",
}


@pytest.mark.parametrize("name", MALFORMED)
def test_run_rejects_a_malformed_scenario_fixture_at_load(runner, name):
    assert sorted(MALFORMED) == sorted(p.stem for p in MALFORMED_DIR.glob("*.yaml"))
    path = MALFORMED_DIR / f"{name}.yaml"
    want = f"{path}: " + MALFORMED[name].format(dir=MALFORMED_DIR)
    with pytest.raises(ScenarioError) as exc:
        load_scenario(path)
    assert str(exc.value) == want
    res = runner.invoke(main, ["run", str(path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == f"Error: {want}\n"


MALFORMED_TOPOLOGY_DIR = REPO_ROOT / "tests" / "data" / "malformed_topology"
# each fixture once loaded (time ran backwards, a string was read as its
# characters, a misspelt key was ignored or a name was not a string), ended
# in a KeyError, AttributeError or TypeError traceback or named no field
MALFORMED_TOPOLOGY = {
    "negative_latency": "links[1]: latency must be a number of ns, not -1000000000 "
    "(an integer >= 0)",
    "unknown_gateway": "external.gateway: 'S9' is not a switch",
    "host_entry_string": "hosts[1]: must be a mapping, not 'Host1'",
    "hosts_mapping": "hosts: must be a list, not a mapping",
    "external_string": "external: must be a mapping, not 'external'",
    "groups_list": "groups: must be a mapping, not a list",
    "group_string": "groups.Servers_Floor: must be a list of strings, not 'Server1'",
    "switches_string": "switches: must be a list of strings, not 'S1'",
    "firewall_entry_string": "firewall[1]: must be a mapping, not 'deny'",
    "external_name_list": "external.name: must be a string, not a list",
    "host_name_int": "hosts[1].name: must be a string, not 5",
    "group_member_list": "groups.Servers_Floor[1]: must be a string, not a list",
    "external_key_misspelt": "external.nmae: unknown key, expected one of name, ip, gateway",
    "firewall_misspelt": "firewal: unknown key, expected one of name, switches, links, hosts, "
    "external, groups, firewall",
    "link_unknown_switch": "links[3][1]: 'S9' is not a switch",
    "host_unknown_switch": "hosts[1].switch: 'S9' is not a switch",
    "group_unknown_member": "groups.Servers_Floor[1]: 'Ghost' is not a host",
    "switch_name_reused": "switches[4]: name 'S3' is already used by switches[2]",
    "host_named_like_switch": "hosts[1]: name 'S3' is already used by switches[2]",
    "external_named_like_switch": "external.name: name 'S2' is already used by switches[1]",
}


@pytest.mark.parametrize("name", MALFORMED_TOPOLOGY)
def test_check_rejects_a_malformed_topology_fixture_at_load(runner, name):
    assert sorted(MALFORMED_TOPOLOGY) == sorted(
        p.stem for p in MALFORMED_TOPOLOGY_DIR.glob("*.yaml")
    )
    path = MALFORMED_TOPOLOGY_DIR / f"{name}.yaml"
    res = runner.invoke(main, ["check", str(POLICY_DIR / "listing2.ncl"), "--topology", str(path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == f"Error: {path}: {MALFORMED_TOPOLOGY[name]}\n"


@pytest.mark.parametrize(
    "args",
    [["check", "{dir}", "--topology", HOSPITAL], ["check", LISTING1, "--topology", "{dir}"],
     ["routes", "{dir}"]],
    ids=["policy", "topology", "routes"],
)
def test_a_directory_given_as_a_file_is_named_without_traceback(runner, tmp_path, args):
    res = runner.invoke(main, [a.format(dir=tmp_path) for a in args])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == f"Error: {tmp_path}: cannot read: Is a directory\n"


def test_check_names_a_policy_that_is_not_utf8_without_traceback(runner, tmp_path):
    path = tmp_path / "bad.ncl"
    path.write_bytes(b"\xff\xfe\x00")
    res = runner.invoke(main, ["check", str(path), "--topology", HOSPITAL])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == f"Error: {path}: cannot read: not UTF-8 text (invalid start byte)\n"


def _edited_scenario(tmp_path, name: str, old: str, new: str):
    """A copy of a shipped scenario under tmp_path with `old`, which occurs
    once, replaced by `new`, and its topology and policies named in place."""
    text = (SCENARIO_DIR / f"{name}.yaml").read_text()
    assert text.count(old) == 1
    text = (
        text.replace(old, new)
        .replace("topology: topologies/", f"topology: {SCENARIO_DIR}/topologies/")
        .replace("  - policies/", f"  - {SCENARIO_DIR}/policies/")
    )
    path = tmp_path / "scn.yaml"
    path.write_text(text)
    return path


def test_run_reports_an_unknown_flow_protocol_at_load(runner, tmp_path):
    path = _edited_scenario(tmp_path, "scenario1", "protocol: udp", "protocol: sctp")
    res = runner.invoke(main, ["run", str(path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == (
        f"Error: {path}: flows[5].protocol: must be one of tcp, udp, icmp, not 'sctp'\n"
    )


@pytest.mark.parametrize(
    "name, old, new, error",
    [
        ("scenario1", "includes: [PACS]", "includes: [Nope]",
         "expect.pids[1]: includes: unknown tag 'Nope'"),
        ("scenario3", "excludes: [Top_Secret], tracker: /", "excludes: [Nope], tracker: /",
         "expect.files[0]: excludes: unknown tag 'Nope'"),
        ("scenario1", "includes: [PACS]", "includes: PACS",
         "expect.pids[1].includes: must be a list of strings, not 'PACS'"),
        ("scenario1", "pid: 503, includes", "pid: abc, includes",
         "expect.pids[1].pid: must be an integer >= 0, not 'abc'"),
        ("scenario1", "pid: 503, includes", "pid: -3, includes",
         "expect.pids[1].pid: must be an integer >= 0, not -3"),
        ("scenario3", "path: /shared/declassified, includes", "path: 5, includes",
         "expect.files[0].path: must be a string, not 5"),
    ],
    ids=["pid-includes", "file-excludes", "not-a-list", "pid-not-a-count", "pid-negative",
         "path-not-a-string"],
)
def test_run_reports_an_undeclared_expected_tag_before_the_run(
    runner, tmp_path, name, old, new, error
):
    path = _edited_scenario(tmp_path, name, old, new)
    res = runner.invoke(main, ["run", str(path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == f"Error: {path}: {error}\n"


SETUP_EXIT = ("{host: PACS, op: spawn, pid: 503}",
              "{host: PACS, op: spawn, pid: 503}\n  - {host: PACS, op: exit, pid: 999}")


@pytest.mark.parametrize(
    "name, old, new, error",
    [
        ("scenario1", *SETUP_EXIT, "setup[5] (op 'exit'): PACS: pid 999 is not live"),
        ("scenario3", "op: read, pid: 802, path: /shared/declassified",
         "op: read, pid: 802, path: /nope",
         "events[1] (op 'read'): Dev_Admin: no file at /nope"),
        ("scenario1", "pid: 101, accept_pid: 501", "pid: 999, accept_pid: 501",
         "at 50 ms: Host1: pid 999 is not live"),
        ("scenario1", "pid: 101, accept_pid: 501", "pid: 101, accept_pid: 999",
         "at 50.2 ms: PACS: pid 999 is not live"),
    ],
    ids=["setup-exit", "events-read", "flow-pid", "flow-accept-pid"],
)
def test_run_names_where_an_agent_error_arises_mid_run(runner, tmp_path, name, old, new, error):
    """An agent error from a setup or events entry names the entry; one
    raised while flows run names the simulated time."""
    path = _edited_scenario(tmp_path, name, old, new)
    res = runner.invoke(main, ["run", str(path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.output == f"Error: {path}: {error}\n"


def test_routes_unknown_target_is_a_click_error(runner):
    res = runner.invoke(main, ["routes", HOSPITAL, "--target", "Nobody", "--row", "2:2"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Invalid value for '--target': no host 'Nobody'" in res.output


@pytest.mark.parametrize("row", ["4", "a:b", "0:2", "2:1:3"])
def test_routes_malformed_row_is_a_click_error(runner, row):
    res = runner.invoke(main, ["routes", HOSPITAL, "--target", "PACS", "--row", row])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert f"Invalid value for '--row': {row!r} is not steps:allowed" in res.output


def test_apply_lists_a_switch_in_priority_order(runner, tmp_path):
    old = tmp_path / "old.ncl"
    new = tmp_path / "new.ncl"
    old.write_text("label_host(ip=Host1, label={X})\nif match(dst_ip==PACS) then allow\n")
    new.write_text(
        "label_host(ip=Host1, label={X})\n"
        "if match(src_ip==Host2 && dst_ip==PACS) then drop\n"
        "if match(pkt_label contains X && dst_ip==PACS) then drop\n"
        "if match(dst_ip==PACS) then allow\n"
    )
    res = runner.invoke(
        main, ["apply", "--topology", HOSPITAL, "--old", str(old), "--new", str(new)]
    )
    assert res.exit_code == 0, res.output
    tags = [line.split("]")[0].strip() for line in res.output.splitlines() if "[" in line]
    assert tags == ["+ [exact", "+ [ternary", "+ [exact", "- [exact"]


def test_apply_prints_one_short_line_per_plan_entry(runner, tmp_path):
    old = tmp_path / "old.ncl"
    new = tmp_path / "new.ncl"
    old.write_text(
        "label_host(ip=Host1, label={Host1})\n"
        "label_host(ip=Host2, label={Host2, Top_Secret})\n"
        "if match(pkt_label contains Top_Secret && dst_ip==external_network) then drop\n"
        "if match(src_ip==Host1 && dst_ip==PACS) then allow\n"
    )
    new.write_text(
        "label_host(ip=Host1, label={Host1})\n"
        "label_host(ip=Host2, label={Host2, Top_Secret})\n"
        "label_host(ip=PACS, label={PACS})\n"
        "label_file(ip=PACS, file=/scans/a.dcm)\n"
        "if match(pkt_label contains {Top_Secret, Host2} && dst_ip==external_network) then drop\n"
        "if match(src_ip==PACS && dst_ip!=Host1) then declassify({PACS})\n"
        "if match(tracker_id==/scans/a.dcm@PACS && dst_ip==Host2) then alert\n"
        "if match(src_ip==Host1 && dst_ip==PACS) then allow\n"
        "if match(src_ip==10.1.2.99 && dst_ip==any) then modify(ttl=9)\n"
    )
    res = runner.invoke(
        main, ["apply", "--topology", HOSPITAL, "--old", str(old), "--new", str(new)]
    )
    assert res.exit_code == 0, res.output
    assert res.output == (
        "plan: +8 entries, -2 entries\n"
        "  S1: +3 -1\n"
        "    + [ternary] priority 0 line 5: drop if label has {Host2, Top_Secret} and dst 203.0.113.10\n"
        "    + [exact] priority 4 line 9: modify(ttl=9) if src 10.1.2.99\n"
        "    + [privilege] priority 1 line 6: declassify({PACS}) if label has {PACS} and dst not 10.1.2.11\n"
        "    - [ternary] priority 0 line 3: drop if label has {Top_Secret} and dst 203.0.113.10\n"
        "  S2: +5 -1\n"
        "    + [tracker] priority 2 line 7: alert if tracker 1 and dst 10.1.2.12\n"
        "    + [ternary] priority 3 line 8: allow if label has {Host1} and dst 10.1.2.20\n"
        "    + [exact] priority 4 line 9: modify(ttl=9) if src 10.1.2.99\n"
        "    + [privilege] priority 1 line 6: declassify({PACS}) if label has {PACS} and dst not 10.1.2.11\n"
        "    + [init] 10.1.2.20 label {PACS}\n"
        "    - [ternary] priority 1 line 4: allow if label has {Host1} and dst 10.1.2.20\n"
    )


def test_apply_compiles_the_new_policy_against_the_old(runner):
    """listing1_update names Audit ahead of Host1's other tags. Compiled on
    its own it would move every tag, and the plan would also replace the
    Top_Secret drop rule and the init packets of Host2 and PACS; compiled
    against the old policy, as a run compiles an update, those stay."""
    new = str(POLICY_DIR / "listing1_update.ncl")
    res = runner.invoke(main, [
        "apply", "--topology", HOSPITAL, "--old", LISTING1, "--old", LISTING1_BENIGN,
        "--new", new, "--new", LISTING1_BENIGN,
    ])
    assert res.exit_code == 0, res.output
    assert res.output == (
        "plan: +7 entries, -6 entries\n"
        "  S1: +1 -1\n"
        "    + [ternary] priority 6 line 21: allow if label has {PACS} and dst 203.0.113.10\n"
        "    - [ternary] priority 5 line 20: allow if label has {PACS} and dst 203.0.113.10\n"
        "  S2: +6 -5\n"
        "    + [exact] priority 1 line 11: drop if src 203.0.113.10 and dst 10.1.2.11\n"
        "    + [ternary] priority 2 line 14: allow if label has {Audit, Host1} and dst 10.1.2.20\n"
        "    + [ternary] priority 3 line 15: allow if label has {PACS} and dst 10.1.2.12\n"
        "    + [ternary] priority 4 line 16: allow if label has {Host2, Top_Secret} and dst 10.1.2.20\n"
        "    + [exact] priority 5 line 20: allow if src 203.0.113.10 and dst 10.1.2.11\n"
        "    + [init] 10.1.2.11 label {Audit, Host1}\n"
        "    - [ternary] priority 1 line 10: allow if label has {Host1} and dst 10.1.2.20\n"
        "    - [ternary] priority 2 line 11: allow if label has {PACS} and dst 10.1.2.12\n"
        "    - [ternary] priority 3 line 12: allow if label has {Host2, Top_Secret} and dst 10.1.2.20\n"
        "    - [exact] priority 4 line 19: allow if src 203.0.113.10 and dst 10.1.2.11\n"
        "    - [init] 10.1.2.11 label {Host1}\n"
    )


def test_apply_lists_addresses_sorted(runner, tmp_path):
    topo = tmp_path / "topo.yaml"
    topo.write_text(
        "name: t\nswitches: [S1]\n"
        "hosts:\n"
        "  - {name: B, ip: 10.0.0.7, switch: S1}\n"
        "  - {name: A, ip: 10.0.0.5, switch: S1}\n"
        "groups:\n  G: [B, A]\n"
    )
    old = tmp_path / "old.ncl"
    new = tmp_path / "new.ncl"
    old.write_text("")
    new.write_text("if match(src_ip==G && dst_ip!=G) then drop\n")
    res = runner.invoke(
        main, ["apply", "--topology", str(topo), "--old", str(old), "--new", str(new)]
    )
    assert res.exit_code == 0, res.output
    assert res.output.splitlines()[2] == (
        "    + [exact] priority 0 line 1: drop if src 10.0.0.5,10.0.0.7"
        " and dst not 10.0.0.5,10.0.0.7"
    )
