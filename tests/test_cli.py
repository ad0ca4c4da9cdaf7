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


def test_run_writes_trace(runner, tmp_path):
    out = tmp_path / "trace.txt"
    res = runner.invoke(
        main,
        ["run", str(SCENARIO_DIR / "scenario1.yaml"), "--trace", str(out)],
    )
    assert res.exit_code == 0, res.output
    text = out.read_text()
    assert "label-init" in text
    assert text.endswith("\n")


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


def test_check_rejects_bad_policy(runner, tmp_path):
    bad = tmp_path / "bad.ncl"
    bad.write_text("if match(dst_ip==any) then explode\n")
    res = runner.invoke(main, ["check", str(bad), "--topology", HOSPITAL])
    assert res.exit_code != 0
    assert "Error" in res.output


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
    assert f"Error: {broken_topology}: hosts[0] (A): missing field 'ip'" in res.output


@pytest.mark.parametrize(
    "text, message",
    [
        ("name: t\nswitches: [S1, S2\nhosts: []\n", "{path}:3: invalid YAML: "),
        ("name: t\nswitches: [S1]\nlinks: [[S1]]\n", "{path}: links[0]: a link is "),
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
UNKNOWN_OP = "unknown op, expected one of spawn, exit, read, write, create, accept, reboot, gc, update"
# each fixture once ended in a traceback, or in an error naming no file or entry
MALFORMED = {
    "missing_topology": "topology: no file {dir}/../../../scenarios/topologies/nowhere.yaml",
    "missing_policy": "policies: no file {dir}/nowhere.ncl",
    "missing_update_policy": "events[0] (op 'update'): policies: no file {dir}/nowhere.ncl",
    "unknown_op": "events[0] (op 'frobnicate'): " + UNKNOWN_OP,
    "unknown_op_without_host": "setup[0] (op 'frobnicate'): " + UNKNOWN_OP,
    "setup_not_a_list": "setup must be a list",
    "expect_flows_list": "expect.flows must be a mapping",
    "update_policies_string": "events[0] (op 'update'): policies must be a list of file "
    "names, not '../../../scenarios/policies/listing1.ncl'",
    "expect_unknown_key": "expect.flow: unknown key, expected one of flows, pids, files, "
    "trace_contains, external_delivered",
    "expect_flow_unknown_key": "expect.flows.entry.verdcit: unknown key, expected one of "
    "verdict, delivered, sent, dropped",
    "expect_delivered_not_a_count": "expect.flows.entry: delivered must be an integer >= 0, "
    "not 'lots'",
    "expect_external_delivered_negative": "expect: external_delivered must be an integer >= 0, "
    "not -1",
    "expect_verdict_misspelt": "expect.flows.entry: verdict must be one of allow, drop, "
    "not 'alow'",
    "expect_flow_unknown_id": "expect.flows.entyr: 'entyr' is not a flow id in this file",
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
        f"Error: {path}: flows[5] (id 'benign_out'): "
        "protocol must be one of tcp, udp, icmp, not 'sctp'\n"
    )


@pytest.mark.parametrize(
    "name, old, new, error",
    [
        ("scenario1", "includes: [PACS]", "includes: [Nope]",
         "expect.pids[1]: includes: unknown tag 'Nope'"),
        ("scenario3", "excludes: [Top_Secret], tracker: /", "excludes: [Nope], tracker: /",
         "expect.files[0]: excludes: unknown tag 'Nope'"),
        ("scenario1", "includes: [PACS]", "includes: PACS",
         "expect.pids[1]: includes must be a list of tag names, not 'PACS'"),
    ],
    ids=["pid-includes", "file-excludes", "not-a-list"],
)
def test_run_reports_an_undeclared_expected_tag_before_the_run(
    runner, tmp_path, name, old, new, error
):
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
