"""Compilation: table selection, labeled-source semantics, placement,
privilege entries, and the structural config diff."""

import dataclasses
from operator import attrgetter

import pytest
from hypothesis import given, settings

from difcnet.errors import CompileError, PlacementError
from difcnet.labels import tag_bit
from difcnet.netcl import (
    compile_program,
    diff_configs,
    merge_to_single_switch,
    parse,
)
from difcnet.netcl.compiler import SwitchConfig
from tests.conftest import make_lan, make_split
from tests.test_first_match import compile_lines, policies


def compile_text(text, topo=None):
    return compile_program(parse(text), topo or make_lan())


def only_entry(cfg, table):
    """The config's single match entry, checked to account to `table`."""
    (entry,) = cfg.entries
    assert entry.match.table == table
    return entry


# -- tag registration ------------------------------------------------------


def test_tags_numbered_by_first_appearance():
    compiled = compile_text(
        "label_host(ip=A, label={X, Y})\n"
        "if match(pkt_label contains Z && dst_ip==C) then drop\n"
        "if match(dst_ip==any) then allow\n"
    )
    reg = compiled.registry
    assert [reg.lookup(t) for t in ("X", "Y", "Z")] == [0, 1, 2]


def test_tag_pulled_both_ways_is_an_error():
    with pytest.raises(CompileError, match="both declassified and endorsed"):
        compile_text(
            "if match(dst_ip==A) then declassify({T})\n"
            "if match(dst_ip==B) then endorse({T})\n"
        )


# -- host labeling ---------------------------------------------------------


def test_host_labels_by_ip():
    compiled = compile_text("label_host(ip=A, label={X})")
    assert compiled.label_of_ip("10.5.2.11").bits == tag_bit(0)
    assert compiled.label_of_ip("10.5.2.12").bits == 0


def test_group_labeling_covers_members():
    compiled = compile_text("label_host(ip=Clients, label={G})")
    assert compiled.label_of_ip("10.5.2.11").bits & tag_bit(0)
    assert compiled.label_of_ip("10.5.2.12").bits & tag_bit(0)
    assert not compiled.label_of_ip("10.5.2.20").bits & tag_bit(0)


def test_repeated_labeling_unions():
    compiled = compile_text(
        "label_host(ip=A, label={X})\nlabel_host(ip=A, label={Y})\n"
    )
    assert compiled.label_of_ip("10.5.2.11").bits == tag_bit(0) | tag_bit(1)


def test_init_packets_land_on_attached_switch():
    compiled = compile_text("label_host(ip=A, label={X})")
    assert compiled.configs["S2"].init_packets == (
        ("10.5.2.11", compiled.registry.label_of(["X"])),
    )
    assert compiled.configs["S1"].init_packets == ()


# -- trackers --------------------------------------------------------------


def test_tracker_ids_assigned_in_order():
    compiled = compile_text(
        "label_file(ip=A, file=/one)\n"
        "label_file(ip=A, file=/two)\n"
        "label_file(ip=A, file=/one)\n"  # duplicate keeps its id
    )
    assert compiled.file_trackers == {("A", "/one"): 1, ("A", "/two"): 2}


def test_label_file_on_unknown_host_is_an_error():
    with pytest.raises(CompileError, match="line 2: label_file host 'Nobody' is not a host"):
        compile_text("label_file(ip=A, file=/one)\nlabel_file(ip=Nobody, file=/two)\n")


def test_label_host_with_an_unknown_name_names_its_line():
    with pytest.raises(CompileError) as exc:
        compile_text("label_host(ip=A, label={TA})\nlabel_host(ip=Ghost, label={TG})\n")
    assert str(exc.value) == "line 2: cannot resolve 'Ghost' in topology 'lan'"


@pytest.mark.parametrize(
    "name", ["external", "external_network", "203.0.113.10", "192.0.2.9"]
)
def test_label_host_on_a_name_that_is_no_host_names_its_line(name):
    """The external endpoint, under either name or its address, and an
    address with no attached host resolve but carry no host to label."""
    with pytest.raises(CompileError) as exc:
        compile_text(f"label_host(ip=A, label={{TA}})\nlabel_host(ip={name}, label={{TX}})\n")
    assert str(exc.value) == f"line 2: label_host {name!r} is not a host or a group of hosts"


def test_label_host_on_a_host_address_labels_that_host():
    compiled = compile_text("label_host(ip=10.5.2.11, label={X})")
    assert compiled.host_labels == {"10.5.2.11": compiled.registry.label_of(["X"])}


def test_tracker_rule_compiles_to_tracker_table():
    compiled = compile_text(
        "label_file(ip=A, file=/f)\n"
        "if match(tracker_id==/f@A && dst_ip==C) then drop\n"
    )
    entry = only_entry(compiled.configs["S2"], "tracker")
    assert entry.match.tracker_match == 1


def test_tracker_rule_without_file_is_an_error():
    with pytest.raises(CompileError, match="no tracker"):
        compile_text("if match(tracker_id==/ghost@A && dst_ip==C) then drop")


def test_tracker_inequality_is_an_error():
    with pytest.raises(CompileError):
        compile_text(
            "label_file(ip=A, file=/f)\n"
            "if match(tracker_id!=/f@A && dst_ip==C) then drop\n"
        )


# -- table selection (labeled source vs address match) ---------------------


def test_labeled_source_compiles_to_ternary():
    compiled = compile_text(
        "label_host(ip=A, label={X, Y})\n"
        "if match(src_ip==A && dst_ip==C) then allow\n"
    )
    entry = only_entry(compiled.configs["S2"], "ternary")
    want = tag_bit(0) | tag_bit(1)
    assert entry.match.label_mask == want
    assert entry.match.src is None  # provenance, not address, identifies A
    assert entry.match.dst is not None


def test_ternary_match_is_superset_semantics():
    compiled = compile_text(
        "label_host(ip=A, label={X})\n"
        "if match(src_ip==A && dst_ip==C) then allow\n"
    )
    m = only_entry(compiled.configs["S2"], "ternary").match
    x = tag_bit(0)
    other = tag_bit(5)
    assert m.matches(x, 0, "10.9.9.9", "10.5.2.20")  # any src address
    assert m.matches(x | other, 0, "10.9.9.9", "10.5.2.20")  # superset hits
    assert not m.matches(other, 0, "10.5.2.11", "10.5.2.20")  # label missing
    assert not m.matches(x, 0, "10.5.2.11", "10.9.9.9")  # wrong dst


def test_unlabeled_source_compiles_to_exact():
    compiled = compile_text("if match(src_ip==B && dst_ip==C) then drop")
    entry = only_entry(compiled.configs["S2"], "exact")
    assert entry.match.label_mask == 0
    assert entry.match.src.values == frozenset({"10.5.2.12"})
    assert entry.match.matches(0, 0, "10.5.2.12", "10.5.2.20")
    assert not entry.match.matches(0, 0, "10.5.2.11", "10.5.2.20")


def test_raw_ip_source():
    compiled = compile_text("if match(src_ip==192.0.2.9 && dst_ip==C) then drop")
    entry = only_entry(compiled.configs["S2"], "exact")
    assert entry.match.src.values == frozenset({"192.0.2.9"})


def test_negated_unlabeled_source():
    compiled = compile_text("if match(src_ip!=B && dst_ip==C) then drop")
    entry = only_entry(compiled.configs["S2"], "exact")
    assert entry.match.src.negate
    assert not entry.match.matches(0, 0, "10.5.2.12", "10.5.2.20")
    assert entry.match.matches(0, 0, "10.5.2.11", "10.5.2.20")


def test_negated_labeled_source_is_an_error():
    with pytest.raises(CompileError, match="labeled source"):
        compile_text(
            "label_host(ip=A, label={X})\n"
            "if match(src_ip!=A && dst_ip==C) then drop\n"
        )


def test_contains_and_labeled_source_masks_union():
    compiled = compile_text(
        "label_host(ip=A, label={X})\n"
        "if match(src_ip==A && pkt_label contains Z && dst_ip==C) then drop\n"
    )
    entry = only_entry(compiled.configs["S2"], "ternary")
    assert entry.match.label_mask == tag_bit(0) | tag_bit(1)


def test_unknown_name_is_an_error():
    with pytest.raises(CompileError, match="resolve"):
        compile_text("if match(src_ip==Nobody && dst_ip==C) then drop")


# -- placement -------------------------------------------------------------


def test_destination_rule_lands_only_at_destination_switch():
    split = make_split()
    compiled = compile_text("if match(src_ip==A && dst_ip==C) then allow", split)
    only_entry(compiled.configs["S3"], "exact")
    assert compiled.configs["S2"].entry_count() == 0
    assert compiled.configs["S1"].entry_count() == 0


def test_any_destination_lands_on_host_switches_and_gateway():
    split = make_split()
    compiled = compile_text("if match(dst_ip==any) then allow", split)
    for sid in ("S1", "S2", "S3"):
        only_entry(compiled.configs[sid], "exact")


def test_missing_destination_behaves_like_any():
    split = make_split()
    compiled = compile_text("if match(src_ip==A) then drop", split)
    for sid in ("S1", "S2", "S3"):
        assert compiled.configs[sid].entry_count() == 1


def test_external_destination_lands_at_gateway():
    split = make_split()
    compiled = compile_text(
        "if match(src_ip==A && dst_ip==external_network) then drop", split
    )
    assert compiled.configs["S1"].entry_count() == 1
    assert compiled.configs["S2"].entry_count() == 0
    assert compiled.configs["S3"].entry_count() == 0


def test_negated_destination_lands_everywhere():
    split = make_split()
    compiled = compile_text("if match(dst_ip!=C) then alert", split)
    for sid in ("S1", "S2", "S3"):
        entry = only_entry(compiled.configs[sid], "exact")
        assert entry.match.dst.negate


def test_unplaceable_destination_is_an_error():
    with pytest.raises(PlacementError):
        compile_text("if match(dst_ip==198.51.100.7) then drop")


def test_group_destination_spans_switches():
    split = dataclasses.replace(make_split(), groups={"Pair": ("A", "B")})
    compiled = compile_text("if match(dst_ip==Pair) then drop", split)
    assert compiled.configs["S2"].entry_count() == 1
    assert compiled.configs["S3"].entry_count() == 1
    assert compiled.configs["S1"].entry_count() == 0


# -- privilege entries -----------------------------------------------------


def test_privilege_rule_compiles_to_privilege_stage():
    compiled = compile_text(
        "label_host(ip=A, label={S})\n"
        "if match(src_ip==A && dst_ip==C) then declassify({S})\n"
        "if match(dst_ip==C) then allow\n"
    )
    cfg = compiled.configs["S2"]
    (entry,) = cfg.privilege_entries
    assert entry.direction == "declassify"
    assert entry.mask == tag_bit(0)
    assert entry.match.label_mask == tag_bit(0)  # keyed on A's label
    # privilege rules never occupy the match tables
    assert len(cfg.entries) == 1


def test_endorse_direction():
    compiled = compile_text(
        "if match(src_ip==192.0.2.4 && dst_ip==C) then endorse({P})\n"
    )
    (entry,) = compiled.configs["S2"].privilege_entries
    assert entry.direction == "endorse"


# -- action validation -----------------------------------------------------


def test_reroute_port_bounds_checked():
    with pytest.raises(CompileError, match="egress port"):
        compile_text("if match(dst_ip==C) then reroute(99)")
    # S2 has ports: S1 plus three hosts
    compiled = compile_text("if match(dst_ip==C) then reroute(1)")
    assert only_entry(compiled.configs["S2"], "exact").action.port == 1


def test_modify_restricted_to_known_fields():
    with pytest.raises(CompileError, match="not modifiable"):
        compile_text("if match(dst_ip==C) then modify(dscp=7)")
    compile_text("if match(dst_ip==C) then modify(ttl=4)")  # fine


@pytest.mark.parametrize("value", ["abc", "256", "-1", "4.5"])
def test_modify_ttl_must_be_a_byte(value):
    text = f"if match(dst_ip==A) then allow\nif match(dst_ip==C) then modify(ttl={value})"
    with pytest.raises(CompileError, match=f"line 2: ttl must be .* 0 to 255, not '{value}'"):
        compile_text(text)
    for ok in ("0", "255"):
        compile_text(f"if match(dst_ip==C) then modify(ttl={ok})")


# -- merge and diff --------------------------------------------------------


def test_merge_deduplicates_replicated_entries():
    split = make_split()
    compiled = compile_text(
        "if match(dst_ip==any) then allow\n"
        "if match(src_ip==A && dst_ip==C) then drop\n",
        split,
    )
    merged = merge_to_single_switch(compiled, "one")
    # the any rule is replicated three times but counts once
    assert [e.priority for e in merged.entries] == [0, 1]
    assert [e.match.table for e in merged.entries] == ["exact", "exact"]
    assert merged.switch_id == "one"


def merge_to_single_switch_reference(compiled, switch_id):
    """The earlier merge: an entry replicated on several switches is found
    by hashing each entry in full, and its first occurrence is kept."""
    configs = compiled.configs.values()
    entries = dict.fromkeys(e for cfg in configs for e in cfg.entries)
    priv = dict.fromkeys(e for cfg in configs for e in cfg.privilege_entries)
    return SwitchConfig(
        switch_id=switch_id,
        entries=tuple(sorted(entries, key=attrgetter("priority"))),
        privilege_entries=tuple(sorted(priv, key=attrgetter("priority"))),
        init_packets=tuple(p for cfg in configs for p in cfg.init_packets),
    )


@settings(max_examples=100, deadline=None)
@given(policies())
def test_merge_by_priority_equals_the_hashing_reference(policy):
    """The same merged config, down to the entry instances."""
    _, labelings, body = policy
    compiled = compile_lines(labelings + body)
    got = merge_to_single_switch(compiled, "one")
    want = merge_to_single_switch_reference(compiled, "one")
    assert got == want
    for got_list, want_list in (
        (got.entries, want.entries), (got.privilege_entries, want.privilege_entries)
    ):
        assert [id(e) for e in got_list] == [id(e) for e in want_list]


def test_diff_is_empty_for_identical_policies():
    a = compile_text(LAN_RULES)
    b = compile_text(LAN_RULES)
    plan = diff_configs(a.configs, b.configs)
    assert plan.empty
    assert plan.counts() == (0, 0)


LAN_RULES = (
    "label_host(ip=A, label={X})\n"
    "if match(pkt_label contains X && dst_ip==C) then allow\n"
    "if match(src_ip==B && dst_ip==C) then drop\n"
)


def test_diff_lists_only_real_changes():
    old = compile_text(LAN_RULES)
    new = compile_text(LAN_RULES + "if match(dst_ip==B) then allow\n")
    plan = diff_configs(old.configs, new.configs)
    adds, removes = plan.counts()
    assert adds == 1 and removes == 0
    assert plan.per_switch["S2"].adds[0].match.table == "exact"
    assert plan.per_switch["S1"].empty


def test_placement_lookup_errors_other_than_unknown_host_propagate(monkeypatch):
    topo = make_lan()

    def broken(ip):
        raise RuntimeError("topology bug")

    monkeypatch.setattr(topo, "switch_of_ip", broken)
    with pytest.raises(RuntimeError, match="topology bug"):
        compile_text("if match(dst_ip==C) then drop", topo)


def test_rule_count_recorded():
    assert compile_text(LAN_RULES).rule_count == 2
