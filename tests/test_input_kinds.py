"""Every field of a scenario or topology document is checked for its kind
when the document loads: replacing any leaf or container of a shipped
document with a value of the wrong kind fails at load, as a DifcnetError
that names the file and the replaced field."""

import json

import pytest

from difcnet.errors import DifcnetError
from difcnet.scenario import load_scenario
from difcnet.topology import load_topology, read_yaml

from tests.conftest import SCENARIO_DIR, TOPOLOGY_DIR

# a list where a string, a number or a mapping belongs, and a mapping with a
# key no entry has where anything else belongs
WRONG_KINDS = ([[]], {"x": 1})


def _paths(node, path=()):
    """The path of `node` and of every container and leaf inside it."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _field(path) -> str:
    """`path` as an error names it: `expect.pids[1].includes[0]`."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _write_replaced(file, doc, path, value) -> None:
    """Writes `doc` to `file` with the node at `path` replaced by `value`;
    `doc` is left as it was. JSON is YAML, and dumps far faster."""
    if not path:
        file.write_text(json.dumps(value))
        return
    node = doc
    for key in path[:-1]:
        node = node[key]
    old, node[path[-1]] = node[path[-1]], value
    try:
        file.write_text(json.dumps(doc))
    finally:
        node[path[-1]] = old


def _problems(doc, load, file) -> list[str]:
    """Each mutant of `doc` that `load` does not reject as it should."""
    problems = []
    for path in list(_paths(doc)):
        for value in WRONG_KINDS:
            _write_replaced(file, doc, path, value)
            where = f"{_field(path)} = {value!r}"
            try:
                load(file)
            except DifcnetError as exc:
                if not str(exc).startswith(f"{file}: {_field(path)}"):
                    problems.append(f"{where}: error names another field: {exc}")
            except Exception as exc:  # noqa: BLE001 - any other exception is the failure
                problems.append(f"{where}: {type(exc).__name__}: {exc}")
            else:
                problems.append(f"{where}: loads")
    return problems


@pytest.mark.parametrize("name", ["scenario1", "scenario2", "scenario3", "scenario4"])
def test_every_scenario_field_of_the_wrong_kind_fails_at_load(tmp_path, name):
    doc = read_yaml(SCENARIO_DIR / f"{name}.yaml")
    # the mutant lives elsewhere, so it names its files by absolute path
    doc["topology"] = str(SCENARIO_DIR / doc["topology"])
    for entry in (doc, *(e for e in doc.get("events", []) if e["op"] == "update")):
        entry["policies"] = [str(SCENARIO_DIR / p) for p in entry["policies"]]
    assert _problems(doc, load_scenario, tmp_path / "scn.yaml") == []


def test_every_topology_field_of_the_wrong_kind_fails_at_load(tmp_path):
    # enterprise is the shipped topology with every section
    doc = read_yaml(TOPOLOGY_DIR / "enterprise.yaml")
    assert set(doc) == {"name", "switches", "links", "hosts", "external", "groups", "firewall"}
    assert _problems(doc, load_topology, tmp_path / "topo.yaml") == []


@pytest.mark.parametrize(
    "where, value, problem",
    [
        ((), {"firewal": []}, "firewal: unknown key, expected one of name, switches, links, "
         "hosts, external, groups, firewall"),
        (("hosts", 0), {"name": "A", "ip": "10.0.0.1", "switch": "S1", "mac": "x"},
         "hosts[0].mac: unknown key, expected one of name, ip, switch"),
        (("external",), {"nmae": "out"}, "external.nmae: unknown key, expected one of name, "
         "ip, gateway"),
        (("firewall",), [{"action": "deny", "dts": "A"}],
         "firewall[0].dts: unknown key, expected one of action, src, dst"),
    ],
    ids=["root", "host", "external", "firewall"],
)
def test_an_unknown_topology_key_fails_at_load(tmp_path, where, value, problem):
    host = {"name": "A", "ip": "10.0.0.1", "switch": "S1"}
    doc = {"name": "t", "switches": ["S1"], "hosts": [host]}
    if where:
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
    else:
        doc.update(value)
    path = tmp_path / "topo.yaml"
    path.write_text(json.dumps(doc))
    with pytest.raises(DifcnetError) as exc:
        load_topology(str(path))
    assert str(exc.value) == f"{path}: {problem}"


@pytest.mark.parametrize(
    "scenario_field, topology_field",
    [(("flows", 0, "src"), ("hosts", 0, "name")), (("policies",), ("switches",))],
    ids=["string", "list-of-strings"],
)
def test_both_loaders_word_one_mistake_alike(tmp_path, scenario_field, topology_field):
    """A list where a string belongs, or a string where a list of strings
    belongs, reads the same whichever loader finds it."""
    scn = read_yaml(SCENARIO_DIR / "scenario1.yaml")
    scn["topology"] = str(SCENARIO_DIR / scn["topology"])
    scn["policies"] = [str(SCENARIO_DIR / p) for p in scn["policies"]]
    topo = read_yaml(TOPOLOGY_DIR / "enterprise.yaml")
    value = ["A"] if scenario_field[-1] == "src" else "A"
    messages = []
    for doc, path, load, file in [
        (scn, scenario_field, load_scenario, tmp_path / "scn.yaml"),
        (topo, topology_field, load_topology, tmp_path / "topo.yaml"),
    ]:
        _write_replaced(file, doc, path, value)
        with pytest.raises(DifcnetError) as exc:
            load(file)
        prefix = f"{file}: {_field(path)}: "
        assert str(exc.value).startswith(prefix)
        messages.append(str(exc.value)[len(prefix):])
    assert messages[0] == messages[1]
