"""Attack-route counting, admission models, and coverage accounting. The
merged-state count is checked against enumerating every route."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difcnet.netcl import compile_program, parse
from difcnet.routes import (
    DEFAULT_COVERAGE_ROWS,
    allowlist_firewall,
    blocked_routes,
    build_coverage_policy,
    build_reachability_policy,
    chain_exists,
    coverage_report,
    hosts_reaching,
    make_firewall_admit,
    make_policy_admit,
    reachability_table,
    route_blocked,
    route_count,
)
from difcnet.topology import FirewallRule, topology_from_dict


def make_flat(n_hosts=5, target="T", placement=None):
    """n pivot hosts plus one target, all on a single access switch unless
    `placement` puts host Hi on access switch S(placement[i - 1] + 1)."""
    switch = (lambda i: "S2") if placement is None else (lambda i: f"S{placement[i - 1] + 2}")
    hosts = [
        {"name": f"H{i}", "ip": f"10.9.0.{10 + i}", "switch": switch(i)}
        for i in range(1, n_hosts + 1)
    ]
    hosts.append({"name": target, "ip": "10.9.0.200", "switch": "S2"})
    access = sorted({h["switch"] for h in hosts})
    return topology_from_dict(
        {
            "name": "flat",
            "switches": ["S1", *access],
            "links": [["S1", s] for s in access],
            "hosts": hosts,
        }
    )


def iter_routes(candidates: list[str], k: int):
    """Every route of length k, one by one: the oracle for the merged count."""
    return itertools.permutations(candidates, k)


def enumerated_blocked(topo, target, k, admit, label_of) -> int:
    candidates = [h.name for h in topo.hosts if h.name != target]
    return sum(
        route_blocked(route, target, topo, admit, label_of)
        for route in iter_routes(candidates, k)
    )


# -- counting --------------------------------------------------------------


@pytest.mark.parametrize("n", range(0, 7))
@pytest.mark.parametrize("k", range(0, 7))
def test_route_count_matches_enumeration(n, k):
    brute = sum(1 for _ in itertools.permutations(range(n), k))
    assert route_count(n, k) == brute


def test_iter_routes_is_ordered_and_distinct():
    routes = list(iter_routes(["a", "b", "c"], 2))
    assert len(routes) == 6
    assert ("a", "b") in routes and ("b", "a") in routes
    assert all(len(set(r)) == 2 for r in routes)


# -- admission functions ---------------------------------------------------


def test_allowlist_firewall_shape():
    topo = make_flat()
    rules = allowlist_firewall(topo, "T", 2)
    assert rules[0].action == "allow"
    assert rules[0].src == frozenset({"10.9.0.11", "10.9.0.12"})
    assert rules[0].dst == frozenset({"10.9.0.200"})
    assert rules[1].action == "deny"
    assert rules[1].src is None
    assert rules[1].dst == frozenset({"10.9.0.200"})


def test_firewall_admit_guards_only_target():
    topo = make_flat()
    admit = make_firewall_admit(allowlist_firewall(topo, "T", 1))
    ok, bits = admit("10.9.0.11", "10.9.0.200", 0)
    assert ok
    ok, _ = admit("10.9.0.12", "10.9.0.200", 0)
    assert not ok
    # traffic between pivots is out of the filter's scope
    ok, _ = admit("10.9.0.12", "10.9.0.13", 0)
    assert ok
    # label passes through untouched
    _, bits = admit("10.9.0.11", "10.9.0.200", 0b1011)
    assert bits == 0b1011


# -- chain search ----------------------------------------------------------


def _pair_admit(blocked_pairs):
    def admit(src_ip, dst_ip, bits):
        return (src_ip, dst_ip) not in blocked_pairs, bits
    return admit


def test_chain_direct_and_pivot():
    topo = make_flat(3)
    ip = {h.name: h.ip for h in topo.hosts}
    # H1 cannot hit T directly but H2 can
    admit = _pair_admit({(ip["H1"], ip["T"])})
    label = lambda h: 0
    assert chain_exists(topo, "H2", "T", 1, admit, label)
    assert not chain_exists(topo, "H1", "T", 1, admit, label)
    # one pivot is enough once two steps are allowed
    assert chain_exists(topo, "H1", "T", 2, admit, label)


def test_chain_respects_step_budget():
    topo = make_flat(3)
    ip = {h.name: h.ip for h in topo.hosts}
    # only the corridor H1 -> H2 -> H3 -> T is open
    open_pairs = {
        (ip["H1"], ip["H2"]),
        (ip["H2"], ip["H3"]),
        (ip["H3"], ip["T"]),
    }

    def admit(src_ip, dst_ip, bits):
        return (src_ip, dst_ip) in open_pairs, bits

    label = lambda h: 0
    assert not chain_exists(topo, "H1", "T", 2, admit, label)
    assert chain_exists(topo, "H1", "T", 3, admit, label)


def test_chain_hosts_are_distinct():
    topo = make_flat(2)
    ip = {h.name: h.ip for h in topo.hosts}
    # H1 <-> H2 ping-pong is open, T is only reachable from H3 (absent)
    open_pairs = {(ip["H1"], ip["H2"]), (ip["H2"], ip["H1"])}

    def admit(src_ip, dst_ip, bits):
        return (src_ip, dst_ip) in open_pairs, bits

    assert not chain_exists(topo, "H1", "T", 50, admit, lambda h: 0)


def test_label_accumulation_blocks_relay():
    """The filter stops the direct route only; the label policy survives a
    pivot because the origin's tag rides along."""
    topo = make_flat(3)
    compiled = compile_program(
        parse(build_reachability_policy(topo, {"T": ["H2"]})), topo
    )
    policy_admit = make_policy_admit(compiled, topo)
    label = {h.name: compiled.label_of_ip(h.ip).bits for h in topo.hosts}

    fw = make_firewall_admit(
        (
            FirewallRule("allow", frozenset({"10.9.0.12"}), frozenset({"10.9.0.200"})),
            FirewallRule("deny", None, frozenset({"10.9.0.200"})),
        )
    )
    assert hosts_reaching(topo, "T", 1, fw, lambda h: 0) == {"H2"}
    # two steps let everyone pivot through H2 past the filter
    assert hosts_reaching(topo, "T", 3, fw, lambda h: 0) == {"H1", "H2", "H3"}
    # the label policy pins the sender set no matter how many steps
    for steps in (1, 2, 3):
        assert hosts_reaching(
            topo, "T", steps, policy_admit, label.__getitem__
        ) == {"H2"}


def test_reachability_table_rows():
    topo = make_flat(3)
    ip = {h.name: h.ip for h in topo.hosts}
    admit = _pair_admit({(ip["H1"], ip["T"])})
    cells = reachability_table(topo, ["T"], [1, 2], admit, lambda h: 0)
    assert [(c.target, c.steps, c.count) for c in cells] == [
        ("T", 1, 2),
        ("T", 2, 3),
    ]
    assert cells[0].hosts == ("H2", "H3")
    assert cells[1].hosts == ("H1", "H2", "H3")


# -- generated policies ----------------------------------------------------


def test_coverage_policy_closes_every_route():
    topo = make_flat(4)
    compiled = compile_program(parse(build_coverage_policy(topo, "T")), topo)
    admit = make_policy_admit(compiled, topo)
    label = {h.name: compiled.label_of_ip(h.ip).bits for h in topo.hosts}
    candidates = [h.name for h in topo.hosts if h.name != "T"]
    for k in (1, 2, 3):
        for route in iter_routes(candidates, k):
            assert route_blocked(route, "T", topo, admit, label.__getitem__), route
    # and it only guards the target: pivot hops still work
    ok, _ = admit("10.9.0.11", "10.9.0.12", label["H1"])
    assert ok


def test_route_blocked_midway():
    topo = make_flat(3)
    ip = {h.name: h.ip for h in topo.hosts}
    admit = _pair_admit({(ip["H1"], ip["H2"])})
    assert route_blocked(("H1", "H2"), "T", topo, admit, lambda h: 0)
    assert not route_blocked(("H2", "H1"), "T", topo, admit, lambda h: 0)


def test_route_blocked_accumulates_labels():
    topo = make_flat(2)
    # block any packet whose label has bit 0 set, regardless of endpoints
    def admit(src_ip, dst_ip, bits):
        return not (bits & 1), bits

    labels = {"H1": 1, "H2": 0, "T": 0}
    # H2 alone is clean, but picking up H1's taint en route is fatal
    assert not route_blocked(("H2",), "T", topo, admit, labels.__getitem__)
    assert route_blocked(("H2", "H1"), "T", topo, admit, labels.__getitem__)
    assert route_blocked(("H1", "H2"), "T", topo, admit, labels.__getitem__)


# -- coverage report -------------------------------------------------------


def test_coverage_report_exact():
    topo = make_flat(5)
    rows = coverage_report(topo, "T", ((2, 3), (3, 2)))
    assert [r.steps for r in rows] == [2, 3]
    assert [r.routes for r in rows] == [20, 60]
    assert all(not r.sampled and r.evaluated == r.routes for r in rows)
    # the filter admits `allowed` of the 5 candidates, so a route dies
    # exactly when its last pivot is outside that set
    assert rows[0].allowed == 3 and rows[0].firewall_coverage == pytest.approx(40.0)
    assert rows[1].allowed == 2 and rows[1].firewall_coverage == pytest.approx(60.0)
    assert all(r.policy_coverage == 100.0 for r in rows)
    assert rows[0].topology == "flat"


def test_coverage_report_sampling_path():
    topo = make_flat(5)
    kwargs = dict(sample_threshold=10, sample_size=400, seed=3)
    rows = coverage_report(topo, "T", ((2, 3),), **kwargs)
    (row,) = rows
    assert row.sampled
    assert row.routes == 20  # the true total is still reported
    assert row.evaluated == 400
    assert row.policy_coverage == 100.0
    assert abs(row.firewall_coverage - 40.0) < 10.0
    again = coverage_report(topo, "T", ((2, 3),), **kwargs)
    assert again == rows  # same seed, same estimate


def test_coverage_report_vacuous_row():
    topo = make_flat(2)  # 2 candidates, so no routes of length 3 exist
    (row,) = coverage_report(topo, "T", ((3, 1),))
    assert row.routes == 0 and row.evaluated == 0
    assert row.firewall_coverage == 100.0 and row.policy_coverage == 100.0


# -- merged count against enumeration ----------------------------------------

TAGS = ["A", "B", "C"]


@st.composite
def labelled_worlds(draw):
    """(topology, policy text) over 2-7 pivots and the target T on 1-3
    access switches: label_host lines for some hosts, then privilege,
    address and label rules, then optionally allow-all. Each tag is either
    declassified or endorsed, never both."""
    n = draw(st.integers(2, 7))
    topo = make_flat(n, placement=draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    names = [h.name for h in topo.hosts]
    host = st.sampled_from(names)
    tags = st.lists(st.sampled_from(TAGS), min_size=1, max_size=2, unique=True)
    direction = {t: draw(st.sampled_from(["declassify", "endorse"])) for t in TAGS}
    lines = [
        f"label_host(ip={h}, label={{{', '.join(draw(tags))}}})"
        for h in names
        if draw(st.booleans())
    ]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["privilege", "address", "label"]))
        dst = draw(host)
        tag = draw(st.sampled_from(TAGS))
        verdict = draw(st.sampled_from(["allow", "drop"]))
        if kind == "privilege":
            lines.append(
                f"if match(src_ip=={draw(host)} && dst_ip=={dst}) then {direction[tag]}({{{tag}}})"
            )
        elif kind == "address":
            lines.append(f"if match(src_ip=={draw(host)} && dst_ip=={dst}) then {verdict}")
        else:
            lines.append(f"if match(pkt_label contains {tag} && dst_ip=={dst}) then {verdict}")
    if draw(st.booleans()):
        lines.append("if match(dst_ip==any) then allow")
    return topo, "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(labelled_worlds(), st.data())
def test_merged_count_equals_enumeration_under_labelled_policies(world, data):
    topo, text = world
    compiled = compile_program(parse(text), topo)
    admit = make_policy_admit(compiled, topo)
    label = {h.name: compiled.label_of_ip(h.ip).bits for h in topo.hosts}
    n = len(topo.hosts) - 1
    k = data.draw(st.integers(1, min(n + 1, 5)), label="k")
    assert blocked_routes(topo, "T", k, admit, label.__getitem__) == enumerated_blocked(
        topo, "T", k, admit, label.__getitem__
    )


# any fixed function of (src, dst, bits) that may refuse a hop or rewrite
# the bits it delivers
ANY_ADMIT = st.functions(
    like=lambda src_ip, dst_ip, bits: None,
    returns=st.tuples(st.booleans(), st.integers(0, 7)),
    pure=True,
)


def any_labels(topo):
    return st.fixed_dictionaries({h.name: st.integers(0, 7) for h in topo.hosts})


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_merged_count_equals_enumeration_under_any_admission(n, data):
    topo = make_flat(n)
    admit = data.draw(ANY_ADMIT, label="admit")
    label = data.draw(any_labels(topo), label="label")
    k = data.draw(st.integers(1, n + 1), label="k")
    assert blocked_routes(topo, "T", k, admit, label.__getitem__) == enumerated_blocked(
        topo, "T", k, admit, label.__getitem__
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_chain_exists_equals_enumeration_under_any_admission(n, data):
    """A chain of at most `steps` hops exists exactly when some route from
    the start through at most steps - 1 further pivots is not blocked."""
    topo = make_flat(n)
    admit = data.draw(ANY_ADMIT, label="admit")
    label = data.draw(any_labels(topo), label="label")
    start = data.draw(st.sampled_from([f"H{i}" for i in range(1, n + 1)]), label="start")
    steps = data.draw(st.integers(1, n + 1), label="steps")
    others = [f"H{i}" for i in range(1, n + 1) if f"H{i}" != start]
    open_route = any(
        not route_blocked((start, *rest), "T", topo, admit, label.__getitem__)
        for j in range(min(steps, n))
        for rest in iter_routes(others, j)
    )
    assert chain_exists(topo, start, "T", steps, admit, label.__getitem__) == open_route


@settings(max_examples=40, deadline=None)
@given(labelled_worlds(), st.data())
def test_exhaustive_coverage_rows_equal_enumeration(world, data):
    """coverage_report's exhaustive rows, vacuous ones included, give the
    percentages that walking every route gives."""
    topo, _ = world
    n = len(topo.hosts) - 1
    rows = tuple(
        data.draw(st.tuples(st.integers(1, min(n + 1, 5)), st.integers(0, n)), label="row")
        for _ in range(2)
    )
    compiled = compile_program(parse(build_coverage_policy(topo, "T")), topo)
    policy_admit = make_policy_admit(compiled, topo)
    label = {h.name: compiled.label_of_ip(h.ip).bits for h in topo.hosts}
    for (k, allowed), row in zip(rows, coverage_report(topo, "T", rows)):
        total = route_count(n, k)
        assert not row.sampled and row.routes == row.evaluated == total
        if total == 0:
            assert row.firewall_coverage == row.policy_coverage == 100.0
            continue
        fw_admit = make_firewall_admit(allowlist_firewall(topo, "T", allowed))
        fw = enumerated_blocked(topo, "T", k, fw_admit, lambda h: 0)
        pol = enumerated_blocked(topo, "T", k, policy_admit, label.__getitem__)
        assert row.firewall_coverage == 100.0 * fw / total
        assert row.policy_coverage == 100.0 * pol / total


def test_a_route_without_pivots_is_an_error():
    topo = make_flat(3)
    with pytest.raises(ValueError, match="at least one pivot, not 0"):
        coverage_report(topo, "T", ((0, 1),))


def test_default_rows_present():
    assert set(DEFAULT_COVERAGE_ROWS) == {"enterprise", "cisco", "stanford"}
    for rows in DEFAULT_COVERAGE_ROWS.values():
        ks = [k for k, _ in rows]
        assert ks == sorted(ks, reverse=True)
