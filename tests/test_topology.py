"""Topology loading, name resolution, forwarding, and the packet filter."""

import pytest
import yaml

from difcnet import topology
from difcnet.errors import DifcnetError, UnknownHost, UnknownName
from difcnet.scenario import load_scenario
from difcnet.topology import (
    DEFAULT_LINK_LATENCY_NS,
    FirewallRule,
    firewall_admits,
    load_topology,
    read_yaml,
    topology_from_dict,
)
from tests.conftest import SCENARIO_DIR, TOPOLOGY_DIR, make_lan, make_split

# read_yaml uses libyaml when pyyaml was built with it, else the pure-Python
# loader; errors must name the same file and line under either
YAML_LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


def test_resolve_host_group_external_raw(lan):
    assert lan.resolve("A") == ("10.5.2.11",)
    assert set(lan.resolve("Clients")) == {"10.5.2.11", "10.5.2.12"}
    assert lan.resolve("external_network") == ("203.0.113.10",)
    assert lan.resolve("external") == ("203.0.113.10",)
    assert lan.resolve("192.0.2.1") == ("192.0.2.1",)
    with pytest.raises(UnknownName):
        lan.resolve("Nobody")


def test_switch_of_ip(lan):
    assert lan.switch_of_ip("10.5.2.11") == "S2"
    assert lan.switch_of_ip("203.0.113.10") == "S1"  # gateway owns external
    with pytest.raises(UnknownHost):
        lan.switch_of_ip("192.0.2.1")


def test_enforced_ips(lan):
    assert lan.enforced_ips("S2") == {"10.5.2.11", "10.5.2.12", "10.5.2.20"}
    assert lan.enforced_ips("S1") == {"203.0.113.10"}


def test_host_switches_in_topology_order(split):
    assert split.host_switches() == ["S2", "S3"]


def test_ports_and_port_target(split):
    # neighbors first, then local hosts, then the external port at the gateway
    assert split.ports("S1") == ["S2", "S3", "external"]
    assert split.ports("S2") == ["S1", "A"]
    assert split.port_target("S2", 1) == "A"


def test_forwarding_tables(split):
    a, b = "10.6.2.11", "10.6.3.11"
    # local host goes out its own port
    assert split.port_target("S2", split.forwarding("S2")[a]) == "A"
    # remote host goes toward the core
    assert split.port_target("S2", split.forwarding("S2")[b]) == "S1"
    assert split.port_target("S1", split.forwarding("S1")[b]) == "S3"
    # external from an access switch routes toward the gateway
    ext = split.forwarding("S2")["203.0.113.10"]
    assert split.port_target("S2", ext) == "S1"
    assert split.port_target("S1", split.forwarding("S1")["203.0.113.10"]) == "external"


def test_link_latency_lookup():
    topo = topology_from_dict(
        {
            "name": "t",
            "switches": ["S1", "S2"],
            "links": [["S1", "S2", 250_000]],
            "hosts": [{"name": "A", "ip": "10.0.0.1", "switch": "S2"}],
            "external": {"gateway": "S1"},
        }
    )
    assert topo.link_latency("S1", "S2") == 250_000
    assert topo.link_latency("S2", "S1") == 250_000
    assert topo.link_latency("S2", "A") == DEFAULT_LINK_LATENCY_NS


def _next_hops_reference(topo, switch):
    """The three lookups the per-switch table replaces, one port at a time."""
    out = []
    for port in range(len(topo.ports(switch))):
        target = topo.port_target(switch, port)
        out.append((target, topo.link_latency(switch, target), target in topo.switches))
    return tuple(out)


@pytest.mark.parametrize("fname", ["cisco.yaml", "enterprise.yaml", "hospital.yaml", "stanford.yaml"])
def test_next_hops_equal_port_target_latency_and_kind(fname):
    topo = load_topology(TOPOLOGY_DIR / fname)
    for s in topo.switches:
        assert topo.next_hops(s) == _next_hops_reference(topo, s), s


def test_next_hops_keep_the_first_link_latency():
    topo = topology_from_dict(
        {
            "name": "t",
            "switches": ["S1", "S2"],
            "links": [["S1", "S2", 250_000], ["S2", "S1", 900_000]],
            "hosts": [{"name": "A", "ip": "10.0.0.1", "switch": "S2"}],
            "external": {"gateway": "S1"},
        }
    )
    assert topo.next_hops("S1") == (
        ("S2", 250_000, True), ("S2", 250_000, True), ("external", DEFAULT_LINK_LATENCY_NS, False),
    )
    assert topo.next_hops("S2") == (
        ("S1", 250_000, True), ("S1", 250_000, True), ("A", DEFAULT_LINK_LATENCY_NS, False),
    )
    for s in topo.switches:
        assert topo.next_hops(s) == _next_hops_reference(topo, s)


def test_default_gateway_is_first_switch():
    topo = topology_from_dict(
        {
            "name": "t",
            "switches": ["SA", "SB"],
            "links": [["SA", "SB"]],
            "hosts": [{"name": "A", "ip": "10.0.0.1", "switch": "SB"}],
        }
    )
    assert topo.gateway == "SA"


def test_validation_errors():
    base = {
        "name": "t",
        "switches": ["S1"],
        "links": [],
        "hosts": [
            {"name": "A", "ip": "10.0.0.1", "switch": "S1"},
            {"name": "A", "ip": "10.0.0.2", "switch": "S1"},
        ],
    }
    with pytest.raises(DifcnetError):
        topology_from_dict(base)  # duplicate name
    base["hosts"][1] = {"name": "B", "ip": "10.0.0.1", "switch": "S1"}
    with pytest.raises(DifcnetError):
        topology_from_dict(base)  # duplicate ip
    base["hosts"][1] = {"name": "B", "ip": "10.0.0.2", "switch": "S9"}
    with pytest.raises(DifcnetError, match=r"^hosts\[1\]\.switch: 'S9' is not a switch$"):
        topology_from_dict(base)


def _small_doc():
    return {
        "name": "t",
        "switches": ["S1", "S2"],
        "links": [["S1", "S2"]],
        "hosts": [{"name": "A", "ip": "10.0.0.1", "switch": "S2"}],
    }


def _broken(tmp_path, doc) -> str:
    path = tmp_path / "topo.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(DifcnetError) as info:
        load_topology(str(path))
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    return message


def test_link_to_unknown_switch_is_named(tmp_path):
    doc = _small_doc()
    doc["links"].append(["S2", "S9"])
    assert _broken(tmp_path, doc).endswith(": links[1][1]: 'S9' is not a switch")


@pytest.mark.parametrize(
    "link, problem",
    [
        (["S1"], "must be [switch, switch] or [switch, switch, latency_ns], not ['S1']"),
        (["S1", "S2", 5, 6], "must be [switch, switch] or [switch, switch, latency_ns], "
         "not ['S1', 'S2', 5, 6]"),
        ("S1", "must be [switch, switch] or [switch, switch, latency_ns], not 'S1'"),
        (["S1", "S2", "slow"], "latency must be a number of ns, not 'slow'"),
        ({"a": "S1"}, "must be [switch, switch] or [switch, switch, latency_ns], not a mapping"),
    ],
)
def test_malformed_link_is_named(tmp_path, link, problem):
    doc = _small_doc()
    doc["links"].insert(0, link)
    assert f"links[0]: {problem}" in _broken(tmp_path, doc)


@pytest.mark.parametrize(
    "latency",
    # a negative latency delivered a packet before it was sent; int() read
    # 1.5 as 1 and "100" as 100
    [-1_000_000_000, -1, 1.5, 100.0, "100", True, None, [100]],
    ids=["negative", "minus-one", "fraction", "float", "text", "bool", "null", "list"],
)
def test_link_latency_that_is_not_an_integer_at_least_zero_is_named(tmp_path, latency):
    doc = _small_doc()
    doc["links"].append(["S2", "S1", latency])
    message = _broken(tmp_path, doc)
    assert message.endswith(
        f"links[1]: latency must be a number of ns, not {latency!r} (an integer >= 0)"
    )


def test_link_latency_zero_is_accepted():
    doc = _small_doc()
    doc["links"][0].append(0)
    assert topology_from_dict(doc).link_latency("S2", "S1") == 0


def test_gateway_that_is_not_a_switch_is_named(tmp_path):
    doc = _small_doc()
    doc["external"] = {"gateway": "S9"}
    assert _broken(tmp_path, doc).endswith("external.gateway: 'S9' is not a switch")


def test_yaml_syntax_error_names_file_and_line(tmp_path):
    path = tmp_path / "topo.yaml"
    path.write_text("name: t\nswitches: [S1, S2\nhosts: []\n")
    with pytest.raises(DifcnetError) as info:
        load_topology(str(path))
    assert str(info.value).startswith(f"{path}:3: invalid YAML: ")


def test_host_without_ip_is_named(tmp_path):
    doc = _small_doc()
    del doc["hosts"][0]["ip"]
    assert _broken(tmp_path, doc).endswith(": hosts[0]: missing field 'ip'")


def test_missing_switches_is_named(tmp_path):
    doc = _small_doc()
    del doc["switches"]
    assert "missing field 'switches'" in _broken(tmp_path, doc)


def test_empty_switches_is_named(tmp_path):
    doc = {"name": "t", "switches": []}
    assert "'switches' must list at least one switch" in _broken(tmp_path, doc)


def test_unknown_firewall_action_is_named(tmp_path):
    doc = _small_doc()
    doc["firewall"] = [{"action": "permit", "dst": "A"}]
    message = _broken(tmp_path, doc)
    assert message.endswith(": firewall[0].action: must be one of allow, deny, not 'permit'")


def test_disconnected_switch_graph_rejected():
    with pytest.raises(DifcnetError, match="not connected"):
        topology_from_dict(
            {
                "name": "t",
                "switches": ["S1", "S2"],
                "links": [],
                "hosts": [{"name": "A", "ip": "10.0.0.1", "switch": "S2"}],
            }
        )


def test_unknown_group_member_rejected():
    with pytest.raises(DifcnetError, match=r"^groups\.G\[0\]: 'Ghost' is not a host$"):
        topology_from_dict(
            {
                "name": "t",
                "switches": ["S1"],
                "links": [],
                "hosts": [{"name": "A", "ip": "10.0.0.1", "switch": "S1"}],
                "groups": {"G": ["Ghost"]},
            }
        )


# -- packet filter ---------------------------------------------------------


def test_firewall_first_match_wins():
    rules = [
        FirewallRule("allow", frozenset({"10.0.0.1"}), frozenset({"10.0.0.9"})),
        FirewallRule("deny", None, frozenset({"10.0.0.9"})),
    ]
    assert firewall_admits(rules, "10.0.0.1", "10.0.0.9")
    assert not firewall_admits(rules, "10.0.0.2", "10.0.0.9")
    # unrelated destination: no rule matches, default allow
    assert firewall_admits(rules, "10.0.0.2", "10.0.0.3")


def test_firewall_none_is_wildcard():
    rules = [FirewallRule("deny", None, None)]
    assert not firewall_admits(rules, "1.1.1.1", "2.2.2.2")
    assert firewall_admits([], "1.1.1.1", "2.2.2.2")


def test_firewall_yaml_resolution(tmp_path):
    doc = {
        "name": "t",
        "switches": ["S1"],
        "links": [],
        "hosts": [
            {"name": "A", "ip": "10.0.0.1", "switch": "S1"},
            {"name": "B", "ip": "10.0.0.2", "switch": "S1"},
        ],
        "groups": {"Pair": ["A", "B"]},
        "firewall": [
            {"action": "deny", "src": "Pair", "dst": "external"},
            {"action": "deny", "src": ["192.0.2.7"], "dst": "A"},
        ],
    }
    path = tmp_path / "topo.yaml"
    path.write_text(yaml.safe_dump(doc))
    topo = load_topology(str(path))
    assert topo.firewall[0].src == frozenset({"10.0.0.1", "10.0.0.2"})
    assert topo.firewall[0].dst == frozenset({topo.external_ip})
    assert topo.firewall[1].src == frozenset({"192.0.2.7"})
    with pytest.raises(UnknownName):
        doc["firewall"].append({"action": "deny", "src": "Ghost"})
        path.write_text(yaml.safe_dump(doc))
        load_topology(str(path))


def test_shipped_topologies_load():
    for name in ("hospital", "enterprise", "cisco", "stanford"):
        topo = load_topology(str(TOPOLOGY_DIR / f"{name}.yaml"))
        assert topo.hosts
        assert topo.gateway in topo.switches


def test_enterprise_shape():
    topo = load_topology(str(TOPOLOGY_DIR / "enterprise.yaml"))
    assert len(topo.hosts) == 8
    assert topo.host_switches() == ["S2", "S3", "S4"]
    assert topo.gateway == "S1"
    assert len(topo.firewall) == 6


@pytest.mark.parametrize(
    "path", sorted(SCENARIO_DIR.rglob("*.yaml")), ids=lambda p: p.relative_to(SCENARIO_DIR).as_posix()
)
def test_read_yaml_equals_the_pure_python_loader(path):
    with open(path, encoding="utf-8") as fh:
        want = yaml.load(fh, Loader=yaml.SafeLoader)
    assert read_yaml(path) == want


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
@pytest.mark.parametrize(
    "text, line",
    [
        ("name: t\nswitches: [S1, S2\nhosts: []\n", 3),  # unclosed [
        ("a: {b: c\n", 2),  # unclosed {
        ("name: t\n  bad: indent\n", 2),
        ("a: b\n\tc: d\n", 2),  # tab indentation
        ("- x\ny: z\n", 2),
        ("a: *nope\n", 1),  # undefined alias
        ("a: !!python/object:os.system x\n", 1),  # no unsafe tags
    ],
)
def test_yaml_errors_name_the_file_and_line(tmp_path, monkeypatch, loader, text, line):
    monkeypatch.setattr(topology, "YAML_LOADER", loader)
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    for load in (read_yaml, load_topology, load_scenario):
        with pytest.raises(DifcnetError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}:{line}: invalid YAML: "), load


def test_a_missing_file_is_named(tmp_path):
    path = tmp_path / "nowhere.yaml"
    for load in (read_yaml, load_topology, load_scenario):
        with pytest.raises(DifcnetError) as info:
            load(path)
        assert str(info.value) == f"{path}: cannot read: No such file or directory", load


@pytest.mark.parametrize("loader", YAML_LOADERS, ids=lambda loader: loader.__name__)
def test_a_file_that_is_not_utf8_is_named(tmp_path, monkeypatch, loader):
    monkeypatch.setattr(topology, "YAML_LOADER", loader)
    path = tmp_path / "doc.yaml"
    path.write_bytes(b"\xff\xfe\x00")
    for load in (read_yaml, load_topology, load_scenario):
        with pytest.raises(DifcnetError) as info:
            load(path)
        assert str(info.value) == f"{path}: cannot read: not UTF-8 text (invalid start byte)", load
