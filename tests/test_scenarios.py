"""End-to-end runs of the shipped scenario files."""

import pytest

from difcnet.errors import ScenarioError
from difcnet.scenario import build_params, load_scenario, run_scenario
from difcnet.sim import SimParams

from tests.conftest import SCENARIO_DIR, TOPOLOGY_DIR

SCENARIOS = ["scenario1.yaml", "scenario2.yaml", "scenario3.yaml", "scenario4.yaml"]


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
        "update-hospital",
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
    # caught when the scenario loads, not when the event is scheduled
    with pytest.raises(ScenarioError) as exc:
        _minimal_scenario(tmp_path, {"events": [{"host": "Host1", "op": "frobnicate"}]})
    assert str(exc.value) == (
        f"{tmp_path / 'scn.yaml'}: events[0].op: must be one of spawn, exit, read, write, "
        "create, accept, reboot, gc, update, not 'frobnicate'"
    )


def test_event_requires_known_host(tmp_path):
    scn = _minimal_scenario(tmp_path, {"events": [{"op": "spawn", "pid": 1}]})
    with pytest.raises(ScenarioError, match="known host") as exc:
        run_scenario(scn)
    assert str(exc.value) == (
        f"{tmp_path / 'scn.yaml'}: events[0] (op 'spawn'): needs a known host, not None"
    )


@pytest.mark.parametrize(
    "event, error",
    [
        ({"op": "spawn", "pid": 7}, "Host1: pid 7 is already live"),
        ({"op": "exit", "pid": 9}, "Host1: pid 9 is not live"),
        ({"op": "read", "pid": 7, "path": "/nope"}, "Host1: no file at /nope"),
        ({"op": "write", "pid": 7, "path": "/nope"}, "Host1: no file at /nope"),
        ({"op": "create", "pid": 9, "path": "/new"}, "Host1: pid 9 is not live"),
        ({"op": "accept", "pid": 7, "flow": "f"},
         "Host1: nothing pending on 10.1.2.12:40000>10.1.2.11:80/6"),
    ],
    ids=lambda v: v["op"] if isinstance(v, dict) else "",
)
def test_an_agent_error_mid_run_names_its_entry(tmp_path, event, error):
    """The scenario loads; the agent's error is raised when the entry runs,
    prefixed by the file, the entry and its op, as `difcnet run` prints it."""
    scn = _minimal_scenario(
        tmp_path,
        {
            "setup": [{"host": "Host1", "op": "spawn", "pid": 7}],
            "events": [{"host": "Host1", "at_ms": 1, **event}],
            "flows": [{"id": "f", "src": "Host2", "dst": "Host1", "at_ms": 5,
                       "src_port": 40000, "dst_port": 80}],
        },
    )
    with pytest.raises(ScenarioError) as exc:
        run_scenario(scn)
    assert str(exc.value) == f"{tmp_path / 'scn.yaml'}: events[0] (op {event['op']!r}): {error}"


def test_flow_entry_missing_field(tmp_path):
    # caught when the scenario loads, not when the flow is scheduled
    with pytest.raises(ScenarioError, match="missing") as exc:
        _minimal_scenario(tmp_path, {"flows": [{"id": "f", "src": "Host1"}]})  # no dst
    assert str(exc.value) == f"{tmp_path / 'scn.yaml'}: flows[0]: missing field 'dst'"


@pytest.mark.parametrize(
    "flow, problem",
    [
        ({"src": "Host1", "dst": "Host2"}, "flows[1]: missing field 'id'"),
        ({"id": "f", "dst": "Host2"}, "flows[1]: missing field 'src'"),
        ({"id": "f", "src": "Host1", "dst": "Host2", "protocol": "sctp"},
         "flows[1].protocol: must be one of tcp, udp, icmp, not 'sctp'"),
        ({"id": "f", "src": "Host1", "dst": "Host2", "protocol": ["tcp"]},
         "flows[1].protocol: must be one of tcp, udp, icmp, not a list"),
    ],
    ids=["id", "src", "sctp", "list"],
)
def test_flow_entry_fails_at_load_naming_file_index_and_field(tmp_path, flow, problem):
    ok = {"id": "g", "src": "Host1", "dst": "Host2", "protocol": "udp"}
    with pytest.raises(ScenarioError) as exc:
        _minimal_scenario(tmp_path, {"flows": [ok, flow]})
    assert str(exc.value) == f"{tmp_path / 'scn.yaml'}: {problem}"


def test_flow_entry_that_is_not_a_mapping_fails_at_load(tmp_path):
    with pytest.raises(ScenarioError, match=r"flows\[0\]: must be a mapping, not 'f1'$"):
        _minimal_scenario(tmp_path, {"flows": ["f1"]})


def test_accept_of_unknown_flow(tmp_path):
    # caught when the scenario loads, not when the accept event runs
    with pytest.raises(ScenarioError, match="ghost") as exc:
        _minimal_scenario(
            tmp_path,
            {
                "setup": [{"host": "Host1", "op": "spawn", "pid": 7}],
                "events": [
                    {"host": "Host1", "op": "accept", "pid": 7, "flow": "ghost", "at_ms": 1}
                ],
            },
        )
    assert str(exc.value) == (
        f"{tmp_path / 'scn.yaml'}: events[0] (op 'accept'): "
        "flow 'ghost' is not a flow id in this file"
    )


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
        f"{tmp_path / 'scn.yaml'}: events[1]: missing field {missing!r}"
    )


def test_setup_event_missing_field_names_the_setup_list(tmp_path):
    with pytest.raises(ScenarioError, match=r"setup\[0\]: missing field 'pid'$"):
        _minimal_scenario(tmp_path, {"setup": [{"host": "Host1", "op": "spawn"}]})
    with pytest.raises(ScenarioError, match=r"setup\[0\]: must be a mapping, not 'spawn'$"):
        _minimal_scenario(tmp_path, {"setup": ["spawn"]})


@pytest.mark.parametrize(
    "extra, problem",
    [
        ({"flows": [{"id": "f", "src": "Host1", "dst": "Host2", "acept_pid": 1}]},
         "flows[0].acept_pid: unknown key, expected one of id, src, dst, at_ms, packets, "
         "src_port, dst_port, pid, accept_pid, protocol"),
        ({"setup": [{"host": "Host1", "op": "spawn", "pid": 1, "at": 5}]},
         "setup[0].at: unknown key, expected one of op, host, at_ms, idle_ms, pid"),
        # a field of another op is not a field of this one
        ({"events": [{"host": "Host1", "op": "spawn", "pid": 1, "path": "/f"}]},
         "events[0].path: unknown key, expected one of op, host, at_ms, idle_ms, pid"),
        ({"events": [{"op": "gc", "idle": 5}]},
         "events[0].idle: unknown key, expected one of op, host, at_ms, idle_ms"),
        ({"expect": {"pids": [{"host": "Host1", "pid": 1, "include": ["A"]}]}},
         "expect.pids[0].include: unknown key, expected one of host, pid, includes, "
         "excludes, tracker"),
        ({"expect": {"files": [{"host": "Host1", "path": "/f", "trackr": "/f@Host1"}]}},
         "expect.files[0].trackr: unknown key, expected one of host, path, includes, "
         "excludes, tracker"),
        ({"expect": {"files": ["/f"]}}, "expect.files[0]: must be a mapping, not '/f'"),
    ],
    ids=["flow", "setup", "other-op", "gc", "pids", "files", "files-entry"],
)
def test_unknown_entry_key_fails_at_load(tmp_path, extra, problem):
    with pytest.raises(ScenarioError) as exc:
        _minimal_scenario(tmp_path, extra)
    assert str(exc.value) == f"{tmp_path / 'scn.yaml'}: {problem}"


def test_event_pid_that_is_not_an_integer_fails_at_load(tmp_path):
    events = [{"host": "Host1", "op": "spawn", "pid": "seven"}]
    with pytest.raises(ScenarioError, match=r"events\[0\]\.pid: must be an integer >= 0, not 'seven'$"):
        _minimal_scenario(tmp_path, {"events": events})


# -- numbers are checked at load -------------------------------------------


@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("at_ms", "5", "at_ms must be a number >= 0, not '5'"),
        ("at_ms", -1, "at_ms must be a number >= 0, not -1"),
        ("at_ms", float("inf"), "at_ms must be a number >= 0, not inf"),
        ("packets", "many", "packets must be an integer >= 0, not 'many'"),
        ("packets", 2.5, "packets must be an integer >= 0, not 2.5"),
        ("packets", True, "packets must be an integer >= 0, not True"),
        ("src_port", 70000, "src_port must be an integer from 0 to 65535, not 70000"),
        ("dst_port", -80, "dst_port must be an integer from 0 to 65535, not -80"),
        ("pid", "101", "pid must be an integer >= 0 or null, not '101'"),
        ("accept_pid", -2, "accept_pid must be an integer >= 0 or null, not -2"),
    ],
    ids=lambda v: v if isinstance(v, str) and " " not in v else None,
)
def test_flow_number_fails_at_load_naming_file_index_and_field(tmp_path, field, value, problem):
    """`problem` reads `<field> must be ...`; the error names the entry's
    field path in front of `must be ...`."""
    flows = [
        {"id": "g", "src": "Host1", "dst": "Host2", "at_ms": 1.5, "pid": None},
        {"id": "f", "src": "Host1", "dst": "Host2", field: value},
    ]
    with pytest.raises(ScenarioError) as exc:
        _minimal_scenario(tmp_path, {"flows": flows})
    assert str(exc.value) == f"{tmp_path / 'scn.yaml'}: flows[1].{problem.replace(' ', ': ', 1)}"


@pytest.mark.parametrize(
    "section, event, problem",
    [
        ("events", {"op": "gc", "at_ms": "later"}, "at_ms: must be a number >= 0, not 'later'"),
        ("events", {"op": "gc", "idle_ms": False}, "idle_ms: must be a number >= 0, not False"),
        ("setup", {"host": "Host1", "op": "spawn", "pid": 1, "at_ms": -3},
         "at_ms: must be a number >= 0, not -3"),
        ("events", {"host": "Host1", "op": "spawn", "pid": None},
         "pid: must be an integer >= 0, not None"),
        ("events", {"host": "Host1", "op": "exit", "pid": "101"},
         "pid: must be an integer >= 0, not '101'"),
    ],
    ids=["at_ms", "idle_ms", "setup", "null-pid", "text-pid"],
)
def test_event_number_fails_at_load(tmp_path, section, event, problem):
    with pytest.raises(ScenarioError) as exc:
        _minimal_scenario(tmp_path, {section: [{"op": "gc", "at_ms": 2}, event]})
    assert str(exc.value) == f"{tmp_path / 'scn.yaml'}: {section}[1].{problem}"


@pytest.mark.parametrize(
    "params, problem",
    [
        ({"rtt_ms": "ten"}, "params.rtt_ms: must be a number >= 0, not 'ten'"),
        ({"rtt_ms": 5, "recirc_limit": 2.5},
         "params.recirc_limit: must be an integer >= 0, not 2.5"),
        ({"rate_window_ms": True}, "params.rate_window_ms: must be a number >= 0, not True"),
        ({"rtt_msec": 10}, "params.rtt_msec: unknown key, expected one of rtt_ms, "
         "recirc_delay_ms, rate_window_ms, recirc_limit, index_bits, conn_dec_capacity, "
         "rate_limit, udp_label_prefix"),
        (["rtt_ms"], "params: must be a mapping, not a list"),
        # a window of 0 ns once ended in a ZeroDivisionError on the first
        # initial packet
        ({"rate_window_ms": 0}, "params.rate_window_ms: must be at least 1 ns (0.000001), not 0"),
        ({"rate_window_ms": 0.0000001},
         "params.rate_window_ms: must be at least 1 ns (0.000001), not 1e-07"),
    ],
    ids=["text", "fraction", "bool", "unknown", "list", "zero-window", "sub-ns-window"],
)
def test_params_fail_at_load(tmp_path, params, problem):
    with pytest.raises(ScenarioError) as exc:
        _minimal_scenario(tmp_path, {"params": params})
    assert str(exc.value) == f"{tmp_path / 'scn.yaml'}: {problem}"


def test_checked_params_reach_the_simulator(tmp_path):
    scn = _minimal_scenario(tmp_path, {"params": {
        "rtt_ms": 2.5, "recirc_delay_ms": 4, "rate_window_ms": 500, "recirc_limit": 5,
        "index_bits": 8, "conn_dec_capacity": 1000, "rate_limit": 7, "udp_label_prefix": 1,
    }})
    p = build_params(scn.params)
    assert (p.rtt_ns, p.recirc_delay_ns, p.rate_window_ns) == (2_500_000, 4_000_000, 500_000_000)
    assert (p.recirc_limit, p.index_bits, p.conn_dec_capacity, p.rate_limit,
            p.udp_label_prefix) == (5, 8, 1000, 7, 1)
    assert build_params({}) == SimParams()
