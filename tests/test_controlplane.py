"""Install fan-out, config rollout, and placement accounting."""

import pytest

from difcnet.controlplane import ControlPlane
from difcnet.dataplane import Decision, InstallRequest, SimParams, Switch
from difcnet.header import FlowKey
from difcnet.netcl import compile_program, parse
from difcnet.topology import load_topology
from tests.conftest import LAN_POLICY, TOPOLOGY_DIR, make_lan, make_split
from tests.test_dataplane import A, C, _data, _syn

RTT = 10_000_000


def _env(topo_factory=make_split, policy=None):
    topo = topo_factory()
    text = policy or (
        "label_host(ip=A, label={TA})\n"
        "if match(pkt_label contains TA && dst_ip==C) then allow\n"
    )
    compiled = compile_program(parse(text), topo)
    switches = {s: Switch(s, topo, compiled.configs[s]) for s in topo.switches}
    return topo, compiled, switches, ControlPlane(topo, compiled, RTT)


def test_allow_install_fans_out_forward_and_reverse():
    topo, _, _, cp = _env()
    key = FlowKey("10.6.2.11", 41000, "10.6.3.20", 80, 6)  # A -> C
    req = InstallRequest("S3", key, Decision.ALLOW, at_ns=500)
    pending = cp.serve_conndec(req)
    assert len(pending) == 2
    fwd, rev = pending
    assert (fwd.switch_id, fwd.key) == ("S3", key)
    assert (rev.switch_id, rev.key) == ("S2", key.reversed())  # next to the source
    assert {p.at_ns for p in pending} == {500 + RTT}


def test_drop_install_stays_at_deciding_switch():
    _, _, _, cp = _env()
    key = FlowKey("10.6.2.11", 41000, "10.6.3.20", 80, 6)
    pending = cp.serve_conndec(InstallRequest("S3", key, Decision.DROP, 0))
    assert len(pending) == 1


def test_external_source_reverse_lands_at_gateway():
    topo, _, _, cp = _env()
    key = FlowKey(topo.external_ip, 9999, "10.6.3.20", 80, 6)
    pending = cp.serve_conndec(InstallRequest("S3", key, Decision.ALLOW, 0))
    assert pending[1].switch_id == "S1"


def test_unknown_source_gets_no_reverse_install():
    _, _, _, cp = _env()
    key = FlowKey("192.0.2.99", 9999, "10.6.3.20", 80, 6)  # spoofed, no switch
    pending = cp.serve_conndec(InstallRequest("S3", key, Decision.ALLOW, 0))
    assert len(pending) == 1


def test_out_of_inventory_source_gets_only_the_forward_install():
    _, _, _, cp = _env()
    key = FlowKey("198.51.100.7", 9999, "10.6.3.20", 80, 6)
    pending = cp.serve_conndec(InstallRequest("S3", key, Decision.ALLOW, 100))
    assert pending == [InstallRequest("S3", key, Decision.ALLOW, 100 + RTT)]


def test_source_lookup_errors_other_than_unknown_host_propagate(monkeypatch):
    topo, _, _, cp = _env()

    def broken(ip):
        raise RuntimeError("topology bug")

    monkeypatch.setattr(topo, "switch_of_ip", broken)
    key = FlowKey("10.6.2.11", 41000, "10.6.3.20", 80, 6)
    with pytest.raises(RuntimeError, match="topology bug"):
        cp.serve_conndec(InstallRequest("S3", key, Decision.ALLOW, 0))


def test_perform_install_and_capacity_failure():
    topo, compiled, switches, cp = _env()
    switches["S3"] = Switch("S3", topo, compiled.configs["S3"], SimParams(conn_dec_capacity=1))
    k1 = FlowKey("10.6.2.11", 1, "10.6.3.20", 80, 6)
    k2 = FlowKey("10.6.2.11", 2, "10.6.3.20", 80, 6)
    assert cp.perform_install(switches, InstallRequest("S3", k1, Decision.ALLOW, 10))
    assert not cp.perform_install(switches, InstallRequest("S3", k2, Decision.ALLOW, 10))
    assert cp.install_failures == 1
    assert cp.perform_install(switches, InstallRequest("S3", k1, Decision.ALLOW, 10))
    assert cp.install_failures == 1  # a refreshed entry needs no room
    assert switches["S3"].conn_dec.lookup(k1, 20) is Decision.ALLOW


def assert_swapped(switches, plan, new_compiled):
    """Each switch the plan changes runs the new compile's config object."""
    changed = [sid for sid, update in plan.per_switch.items() if not update.empty]
    assert changed
    for sid in changed:
        assert switches[sid].config is new_compiled.configs[sid]


def test_apply_update_converges_to_new_policy():
    topo, compiled, switches, cp = _env(make_lan, LAN_POLICY)
    new_text = LAN_POLICY + "if match(dst_ip==C) then alert\n"
    new_compiled = compile_program(parse(new_text), topo)
    plan = cp.apply_update(switches, new_compiled)
    adds, removes = plan.counts()
    assert (adds, removes) == (1, 0)
    assert_swapped(switches, plan, new_compiled)
    assert cp.compiled is new_compiled
    # rolling the same policy again is a no-op
    again = compile_program(parse(new_text), topo)
    assert cp.apply_update(switches, again).empty


def test_apply_update_removal():
    topo, compiled, switches, cp = _env(make_lan, LAN_POLICY)
    trimmed = "label_host(ip=A, label={TA})\nlabel_host(ip=B, label={TB})\n"
    trimmed += "if match(pkt_label contains TA && dst_ip==C) then allow\n"
    new_compiled = compile_program(parse(trimmed), topo)
    plan = cp.apply_update(switches, new_compiled)
    _, removes = plan.counts()
    assert removes == 3  # B drop rule plus the two dst allows
    assert_swapped(switches, plan, new_compiled)


def test_an_untouched_switch_keeps_its_config_and_classify_cache():
    text = (
        "if match(dst_ip==A) then allow\n"
        "if match(dst_ip==C) then allow\n"
    )
    topo, _, switches, cp = _env(make_split, text)
    a, c = topo.resolve("A")[0], topo.resolve("C")[0]
    for _ in range(2):
        switches["S2"].classify(0, 0, c, a)
        switches["S3"].classify(0, 0, a, c)
    kept = switches["S2"].config
    plan = cp.apply_update(
        switches, compile_program(parse(text + "if match(dst_ip==C) then drop\n"), topo)
    )
    assert plan.per_switch["S2"].empty and not plan.per_switch["S3"].empty
    switches["S2"].classify(0, 0, c, a)
    switches["S3"].classify(0, 0, a, c)
    assert switches["S2"].config is kept
    assert (switches["S2"].classify_hits, switches["S2"].classify_misses) == (2, 1)
    # the changed switch starts its cache afresh
    assert (switches["S3"].classify_hits, switches["S3"].classify_misses) == (1, 2)


def test_a_connection_admitted_before_a_drop_rule_keeps_flowing():
    """An update empties no conn_dec or decision-buffer entry, so a
    connection admitted under the old policy keeps flowing; a new SYN is
    classified under the new policy."""
    allow = "if match(src_ip==A && dst_ip==C) then allow\n"
    topo, _, switches, cp = _env(make_lan, allow)
    sw = switches["S2"]
    installed = sw.process_packet(_syn(A, C, sport=41000), 0)
    for pending in cp.serve_conndec(installed.install_requests[0]):
        assert cp.perform_install(switches, pending)
    buffered = sw.process_packet(_syn(A, C, sport=41001), 0)  # install still in flight
    assert (installed.verdict, buffered.verdict) == ("forward", "forward")

    drop = "if match(src_ip==A && dst_ip==C) then drop\n"
    cp.apply_update(switches, compile_program(parse(drop + allow), topo))
    later = [sw.process_packet(_data(A, C, sport=port), RTT) for port in (41000, 41001)]
    assert [(r.verdict, r.decision_source) for r in later] == [
        ("forward", "conn_dec"), ("forward", "buffer"),
    ]
    syn = _syn(A, C, sport=41002)
    fresh = sw.process_packet(syn, RTT)
    assert (fresh.verdict, fresh.decision_source) == ("drop", "policy")
    assert fresh.log == [f"S2 drop {syn.flow_key} rule@0"]


def test_a_changed_switch_reports_the_new_source_lines():
    """Entries the plan keeps come from the new compile too, so each reports
    its line in the policy now in force."""
    topo = load_topology(TOPOLOGY_DIR / "hospital.yaml")
    body = "if match(dst_ip==Host1) then allow\nif match(dst_ip==PACS) then allow\n"
    old = compile_program(parse(body), topo)
    switches = {s: Switch(s, topo, old.configs[s]) for s in topo.switches}
    new_text = "# one\n# two\n" + body + "if match(dst_ip==Host2) then drop\n"
    new = compile_program(parse(new_text), topo)
    plan = ControlPlane(topo, old, RTT).apply_update(switches, new)
    assert plan.counts() == (1, 0)
    assert [e.source_line for e in old.configs["S2"].entries] == [1, 2]
    assert [e.source_line for e in switches["S2"].config.entries] == [3, 4, 5]


def test_placement_report_math():
    topo = make_split()
    text = (
        "if match(src_ip==192.0.2.1 && dst_ip==A) then drop\n"
        "if match(src_ip==192.0.2.2 && dst_ip==A) then drop\n"
        "if match(src_ip==192.0.2.3 && dst_ip==C) then drop\n"
    )
    compiled = compile_program(parse(text), topo)
    cp = ControlPlane(topo, compiled, RTT)
    report = cp.placement_report()
    assert report.single_switch_total == 3
    assert report.per_switch["S2"] == 2
    assert report.per_switch["S3"] == 1
    assert report.per_switch["S1"] == 0
    assert report.reductions["S2"] == pytest.approx(1 / 3)
    assert report.reductions["S3"] == pytest.approx(2 / 3)
    assert "S1" not in report.reductions  # empty switches are not averaged
    assert report.average_reduction == pytest.approx(0.5)
    text_out = report.format()
    assert "single switch deployment: 3 entries" in text_out
    assert "average reduction" in text_out
