"""End-to-end runs of the shipped scenario files."""

import pytest

from difcnet.errors import ScenarioError
from difcnet.scenario import load_scenario, run_scenario

from tests.conftest import SCENARIO_DIR, TOPOLOGY_DIR

SCENARIOS = ["scenario1.yaml", "scenario2.yaml", "scenario3.yaml"]


@pytest.mark.parametrize("fname", SCENARIOS)
def test_scenario_all_checks_pass(fname):
    result = run_scenario(load_scenario(SCENARIO_DIR / fname))
    failing = [(n, d) for n, ok, d in result.checks if not ok]
    assert result.ok, f"{fname}: {failing}"
    assert len(result.checks) > 0


@pytest.mark.parametrize("fname", SCENARIOS)
def test_scenario_trace_is_reproducible(fname):
    scn = load_scenario(SCENARIO_DIR / fname)
    first = run_scenario(scn).trace
    second = run_scenario(load_scenario(SCENARIO_DIR / fname)).trace
    assert first == second
    assert first.encode() == second.encode()


def test_scenario_names():
    names = [load_scenario(SCENARIO_DIR / f).name for f in SCENARIOS]
    assert names == [
        "exfiltration-hospital",
        "unauthorized-access-enterprise",
        "tracked-declassification-enterprise",
    ]


# -- loader errors ---------------------------------------------------------


def test_load_rejects_non_mapping(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("- just\n- a\n- list\n")
    with pytest.raises(ScenarioError, match="mapping"):
        load_scenario(p)


@pytest.mark.parametrize("missing", ["topology", "policies"])
def test_load_requires_keys(tmp_path, missing):
    doc = {"topology": "t.yaml", "policies": ["p.ncl"]}
    del doc[missing]
    p = tmp_path / "bad.yaml"
    import yaml

    p.write_text(yaml.safe_dump(doc))
    with pytest.raises(ScenarioError, match=missing):
        load_scenario(p)


def _minimal_scenario(tmp_path, extra):
    """Scenario shell around the shipped hospital topology."""
    policy = tmp_path / "p.ncl"
    policy.write_text("if match(dst_ip==any) then allow\n")
    body = {
        "topology": str(TOPOLOGY_DIR / "hospital.yaml"),
        "policies": [str(policy)],
        **extra,
    }
    import yaml

    p = tmp_path / "scn.yaml"
    p.write_text(yaml.safe_dump(body))
    return load_scenario(p)


def test_unknown_event_op(tmp_path):
    scn = _minimal_scenario(
        tmp_path, {"events": [{"host": "Host1", "op": "frobnicate"}]}
    )
    with pytest.raises(ScenarioError, match="frobnicate"):
        run_scenario(scn)


def test_event_requires_known_host(tmp_path):
    scn = _minimal_scenario(tmp_path, {"events": [{"op": "spawn", "pid": 1}]})
    with pytest.raises(ScenarioError, match="known host"):
        run_scenario(scn)


def test_flow_entry_missing_field(tmp_path):
    # caught when the scenario loads, not when the flow is scheduled
    with pytest.raises(ScenarioError, match="missing") as exc:
        _minimal_scenario(tmp_path, {"flows": [{"id": "f", "src": "Host1"}]})  # no dst
    assert str(exc.value) == f"{tmp_path / 'scn.yaml'}: flows[0] (id 'f'): missing field 'dst'"


@pytest.mark.parametrize(
    "flow, problem",
    [
        ({"src": "Host1", "dst": "Host2"}, "missing field 'id'"),
        ({"id": "f", "dst": "Host2"}, "missing field 'src'"),
        ({"id": "f", "src": "Host1", "dst": "Host2", "protocol": "sctp"},
         "protocol must be one of tcp, udp, icmp, not 'sctp'"),
        ({"id": "f", "src": "Host1", "dst": "Host2", "protocol": ["tcp"]},
         "protocol must be one of tcp, udp, icmp, not ['tcp']"),
    ],
    ids=["id", "src", "sctp", "list"],
)
def test_flow_entry_fails_at_load_naming_file_index_and_field(tmp_path, flow, problem):
    ok = {"id": "g", "src": "Host1", "dst": "Host2", "protocol": "udp"}
    with pytest.raises(ScenarioError) as exc:
        _minimal_scenario(tmp_path, {"flows": [ok, flow]})
    assert str(exc.value) == f"{tmp_path / 'scn.yaml'}: flows[1] (id {flow.get('id')!r}): {problem}"


def test_flow_entry_that_is_not_a_mapping_fails_at_load(tmp_path):
    with pytest.raises(ScenarioError, match=r"flows\[0\]: a flow must be a mapping"):
        _minimal_scenario(tmp_path, {"flows": ["f1"]})


def test_accept_of_unknown_flow(tmp_path):
    scn = _minimal_scenario(
        tmp_path,
        {
            "setup": [{"host": "Host1", "op": "spawn", "pid": 7}],
            "events": [{"host": "Host1", "op": "accept", "pid": 7, "flow": "ghost", "at_ms": 1}],
        },
    )
    with pytest.raises(ScenarioError, match="ghost"):
        run_scenario(scn)


@pytest.mark.parametrize(
    "event, missing",
    [
        ({"op": "spawn"}, "pid"),
        ({"op": "exit"}, "pid"),
        ({"op": "read", "pid": 1}, "path"),
        ({"op": "read", "path": "/f"}, "pid"),
        ({"op": "write", "pid": 1}, "path"),
        ({"op": "write", "path": "/f"}, "pid"),
        ({"op": "create", "pid": 1}, "path"),
        ({"op": "create", "path": "/f"}, "pid"),
        ({"op": "accept", "pid": 1}, "flow"),
        ({"op": "accept", "flow": "f1"}, "pid"),
        ({"op": "update"}, "policies"),
    ],
    ids=lambda v: v if isinstance(v, str) else v["op"],
)
def test_event_missing_field_fails_at_load(tmp_path, event, missing):
    events = [{"host": "Host1", "op": "spawn", "pid": 1}, {"host": "Host1", **event}]
    with pytest.raises(ScenarioError) as exc:
        _minimal_scenario(tmp_path, {"events": events})
    assert str(exc.value) == (
        f"{tmp_path / 'scn.yaml'}: events[1] (op {event['op']!r}): missing field {missing!r}"
    )


def test_setup_event_missing_field_names_the_setup_list(tmp_path):
    with pytest.raises(ScenarioError, match=r"setup\[0\] \(op 'spawn'\): missing field 'pid'"):
        _minimal_scenario(tmp_path, {"setup": [{"host": "Host1", "op": "spawn"}]})
    with pytest.raises(ScenarioError, match=r"setup\[0\]: an event must be a mapping"):
        _minimal_scenario(tmp_path, {"setup": ["spawn"]})


def test_event_pid_that_is_not_an_integer_fails_at_load(tmp_path):
    events = [{"host": "Host1", "op": "spawn", "pid": "seven"}]
    with pytest.raises(ScenarioError, match=r"events\[0\] \(op 'spawn'\): pid must be an integer"):
        _minimal_scenario(tmp_path, {"events": events})
