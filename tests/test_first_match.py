"""A switch keeps its match entries in one list in ascending priority, and
`match_policies` returns the first entry that matches. The reference below
is the earlier design: three tables (ternary label, exact, tracker), each
scanned in full, with the lowest priority number winning across them,
and each entry tested by its own restatement of the match semantics.
Random policies, before and after random update edits rolled out by the
control plane, must give the same matched entry, down to its source line,
under both. Packet labels are drawn from the tag bits the policies use, so
label predicates can match."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difcnet.controlplane import ControlPlane
from difcnet.dataplane import Switch, apply_privileges, match_policies
from difcnet.errors import CompileError
from difcnet.labels import tag_bit
from difcnet.netcl import compile_program, parse
from difcnet.netcl.compiler import MatchSpec, SwitchConfig, TableEntry
from difcnet.netcl.ast import Allow, Drop
from difcnet.topology import topology_from_dict

TOPO = topology_from_dict(
    {
        "name": "oracle",
        "switches": ["S1", "S2", "S3"],
        "links": [["S1", "S2"], ["S1", "S3"]],
        "hosts": [
            {"name": "A", "ip": "10.7.2.11", "switch": "S2"},
            {"name": "B", "ip": "10.7.2.12", "switch": "S2"},
            {"name": "C", "ip": "10.7.3.11", "switch": "S3"},
            {"name": "D", "ip": "10.7.3.12", "switch": "S3"},
        ],
        "external": {"name": "external", "ip": "203.0.113.10", "gateway": "S1"},
        "groups": {"Left": ["A", "B"], "Right": ["C", "D"]},
    }
)
NAMES = ["A", "B", "C", "D", "Left", "Right"]
FILES = ["label_file(ip=A, file=/f)", "label_file(ip=C, file=/g)"]
TRACKERS = ["/f@A", "/g@C"]
# S0-S2 are declassified (secrecy), I0 is endorsed (integrity)
TAG_SETS = st.lists(st.sampled_from(["S0", "S1", "S2", "I0"]), min_size=1, max_size=2, unique=True)
ACTIONS = [
    "allow", "drop", "alert", "modify(ttl=7)", "reroute(0)",
    "declassify({S0})", "declassify({S1, S2})", "endorse({I0})",
]
IPS = [h.ip for h in TOPO.hosts] + [TOPO.external_ip, "192.0.2.9"]


def _field_hits(field, ip):
    return field is None or (ip in field.values) != field.negate


def spec_hits(m, label_bits, tracker, src_ip, dst_ip):
    """`MatchSpec.matches` restated, so that a fault in it shows as a
    difference: the label covers every masked tag, the tracker id when
    the entry names one, then each address field."""
    return (
        label_bits & m.label_mask == m.label_mask
        and m.tracker_match in (0, tracker)
        and _field_hits(m.src, src_ip)
        and _field_hits(m.dst, dst_ip)
    )


def three_table_match(config, label_bits, tracker, src_ip, dst_ip):
    """The reference: split the entries into the three tables by the rule
    the compiler used to pick a table, scan each table in full, and keep the
    entry with the lowest priority number; on a tie the earlier table
    (ternary, exact, tracker) and the earlier entry win."""
    ternary = [e for e in config.entries if e.match.label_mask != 0]
    tracker_tab = [
        e for e in config.entries if e.match.label_mask == 0 and e.match.tracker_match != 0
    ]
    exact = [
        e for e in config.entries if e.match.label_mask == 0 and e.match.tracker_match == 0
    ]
    best = None
    for table in (ternary, exact, tracker_tab):
        for entry in table:
            if best is not None and entry.priority >= best.priority:
                continue
            if spec_hits(entry.match, label_bits, tracker, src_ip, dst_ip):
                best = entry
    return best


@st.composite
def rules(draw, labeled):
    """One rule line. `!=` is drawn only on sources without a host label,
    since the compiler rejects it on labeled ones."""
    conjuncts = []
    if draw(st.booleans()):
        conjuncts.append("pkt_label contains {" + ", ".join(draw(TAG_SETS)) + "}")
    src = draw(st.sampled_from([None, "any", "192.0.2.9", *NAMES]))
    if src is not None:
        negate = src not in labeled and src != "any" and draw(st.booleans())
        conjuncts.append(f"src_ip{'!=' if negate else '=='}{src}")
    dst = draw(st.sampled_from([None, "any", "external_network", *NAMES]))
    if dst is not None:
        negate = dst != "any" and draw(st.booleans())
        conjuncts.append(f"dst_ip{'!=' if negate else '=='}{dst}")
    if draw(st.booleans()):
        conjuncts.append(f"tracker_id=={draw(st.sampled_from(TRACKERS))}")
    if not conjuncts:
        conjuncts.append("dst_ip==any")
    return f"if match({' && '.join(conjuncts)}) then {draw(st.sampled_from(ACTIONS))}"


@st.composite
def policies(draw):
    """(labeled names, labeling lines, rule lines): up to three host or
    group labels, both tracked files, and up to 14 rules."""
    labeled = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
    labelings = [
        f"label_host(ip={name}, label={{{', '.join(draw(TAG_SETS))}}})" for name in labeled
    ]
    body = draw(st.lists(rules(set(labeled)), min_size=1, max_size=14))
    return set(labeled), labelings + FILES, body


# every rule tag gets one of the indexes 0-3; index 4 is never registered
label_bits = st.sets(st.integers(min_value=0, max_value=4), max_size=3).map(
    lambda idxs: sum(tag_bit(i) for i in idxs)
)
packets = st.tuples(
    label_bits,
    st.sampled_from([0, 1, 2, 3]),
    st.sampled_from(IPS),
    st.sampled_from(IPS),
)


def compile_lines(lines, previous=None):
    return compile_program(parse("\n".join(lines) + "\n"), TOPO, previous)


def assert_same_match(config, pkt):
    got = match_policies(config, *pkt)
    want = three_table_match(config, *pkt)
    assert got == want
    if want is not None:
        assert got.source_line == want.source_line
    return got


@settings(max_examples=150, deadline=None)
@given(policies(), st.lists(packets, min_size=1, max_size=30))
def test_first_match_equals_three_table_scan(policy, pkts):
    _, labelings, body = policy
    compiled = compile_lines(labelings + body)
    for cfg in compiled.configs.values():
        for pkt in pkts:
            assert_same_match(cfg, pkt)


@st.composite
def edited(draw):
    """A policy and a second one reached by inserting, deleting and moving
    rules; both share the labelings."""
    labeled, labelings, body = draw(policies())
    new = list(body)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        op = draw(st.sampled_from(["insert", "delete", "move"]))
        if op == "insert" or not new:
            new.insert(draw(st.integers(0, len(new))), draw(rules(labeled)))
        elif op == "delete":
            del new[draw(st.integers(0, len(new) - 1))]
        else:
            rule = new.pop(draw(st.integers(0, len(new) - 1)))
            new.insert(draw(st.integers(0, len(new))), rule)
    return labelings, body, new


@settings(max_examples=100, deadline=None)
@given(edited(), st.lists(packets, min_size=1, max_size=30))
def test_first_match_after_apply_update_equals_a_fresh_compile(policy, pkts):
    """Every switch classifies the packets before the update, so a stale
    classify-cache answer would show. After `ControlPlane.apply_update`,
    each switch's classification equals the uncached privilege stage and
    first match over a fresh compile of the new policy (against the old
    one, as an update is compiled), down to the source line, and its match
    entries agree with the three-table reference."""
    labelings, old_body, new_body = policy
    old = compile_lines(labelings + old_body)
    switches = {s: Switch(s, TOPO, old.configs[s]) for s in TOPO.switches}
    for sw in switches.values():
        for pkt in pkts:
            sw.classify(*pkt)
    ControlPlane(TOPO, old, 0).apply_update(switches, compile_lines(labelings + new_body, old))
    fresh = compile_lines(labelings + new_body, old)
    for sid, sw in switches.items():
        cfg = fresh.configs[sid]
        for pkt in pkts:
            bits, tracker, src, dst = pkt
            want_bits = apply_privileges(cfg.privilege_entries, bits, tracker, src, dst)
            want = match_policies(cfg, want_bits, tracker, src, dst)
            got_bits, got = sw.classify(*pkt)
            assert (got_bits, got) == (want_bits, want)
            if want is not None:
                assert got.source_line == want.source_line
            assert_same_match(sw.config, pkt)


def test_table_kind_follows_the_match_fields():
    assert MatchSpec(label_mask=1, tracker_match=2).table == "ternary"
    assert MatchSpec(tracker_match=2).table == "tracker"
    assert MatchSpec().table == "exact"


def test_switch_config_rejects_entries_out_of_priority_order():
    first = TableEntry(MatchSpec(), Allow(), priority=0)
    second = TableEntry(MatchSpec(), Drop(), priority=1)
    SwitchConfig("S1", entries=(first, second))
    with pytest.raises(CompileError, match="S1.*priority 0 follows priority 0"):
        SwitchConfig("S1", entries=(first, first))  # a priority names one entry
    with pytest.raises(CompileError, match="S1.*priority 0 follows priority 1"):
        SwitchConfig("S1", entries=(second, first))


@settings(max_examples=100, deadline=None)
@given(edited())
def test_every_list_of_a_compiled_switch_has_strictly_ascending_priorities(policy):
    """Each rule has a priority of its own, and a switch holds each rule at
    most once, in source order."""
    labelings, old_body, new_body = policy
    for body in (old_body, new_body):
        for cfg in compile_lines(labelings + body).configs.values():
            for entries in (cfg.entries, cfg.privilege_entries):
                priorities = [e.priority for e in entries]
                assert priorities == sorted(set(priorities))
