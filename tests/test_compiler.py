"""Compilation: table selection, labeled-source semantics, placement,
privilege entries, and the structural config diff."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from difcnet.errors import CompileError, PlacementError, UnknownEntry
from difcnet.labels import TagKind, tag_bit
from difcnet.netcl import (
    Allow,
    Drop,
    apply_plan,
    compile_program,
    diff_configs,
    merge_to_single_switch,
    parse,
)
from difcnet.netcl.compiler import SwitchUpdate
from tests.conftest import make_lan, make_split


def compile_text(text, topo=None):
    return compile_program(parse(text), topo or make_lan())


# -- tag registration ------------------------------------------------------


def test_tags_numbered_by_first_appearance():
    compiled = compile_text(
        "label_host(ip=A, label={X, Y})\n"
        "if match(pkt_label contains Z && dst_ip==C) then drop\n"
        "if match(dst_ip==any) then allow\n"
    )
    reg = compiled.registry
    assert [reg.lookup(t) for t in ("X", "Y", "Z")] == [0, 1, 2]


def test_endorsed_tags_become_integrity():
    compiled = compile_text(
        "label_host(ip=A, label={P})\n"
        "if match(src_ip==A && dst_ip==C) then endorse({P})\n"
    )
    assert compiled.registry.kind_of("P") is TagKind.INTEGRITY


def test_declassified_tags_stay_secrecy():
    compiled = compile_text(
        "label_host(ip=A, label={S})\n"
        "if match(src_ip==A && dst_ip==C) then declassify({S})\n"
    )
    assert compiled.registry.kind_of("S") is TagKind.SECRECY


def test_tag_pulled_both_ways_is_an_error():
    with pytest.raises(CompileError, match="both declassified and endorsed"):
        compile_text(
            "if match(dst_ip==A) then declassify({T})\n"
            "if match(dst_ip==B) then endorse({T})\n"
        )


# -- host labeling ---------------------------------------------------------


def test_host_labels_by_ip():
    compiled = compile_text("label_host(ip=A, label={X})")
    assert compiled.label_of_ip("10.5.2.11").indexes() == [0]
    assert compiled.label_of_ip("10.5.2.12").indexes() == []


def test_group_labeling_covers_members():
    compiled = compile_text("label_host(ip=Clients, label={G})")
    assert compiled.label_of_ip("10.5.2.11").has(0)
    assert compiled.label_of_ip("10.5.2.12").has(0)
    assert not compiled.label_of_ip("10.5.2.20").has(0)


def test_repeated_labeling_unions():
    compiled = compile_text(
        "label_host(ip=A, label={X})\nlabel_host(ip=A, label={Y})\n"
    )
    assert compiled.label_of_ip("10.5.2.11").indexes() == [0, 1]


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


def test_tracker_rule_compiles_to_tracker_table():
    compiled = compile_text(
        "label_file(ip=A, file=/f)\n"
        "if match(tracker_id==/f@A && dst_ip==C) then drop\n"
    )
    cfg = compiled.configs["S2"]
    assert len(cfg.tracker_entries) == 1
    entry = cfg.tracker_entries[0]
    assert entry.match.tracker_match == 1
    assert entry.match.is_tracker
    assert not cfg.ternary_entries and not cfg.exact_entries


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
    cfg = compiled.configs["S2"]
    (entry,) = cfg.ternary_entries
    want = tag_bit(0) | tag_bit(1)
    assert entry.match.label_mask == want
    assert entry.match.label_value == want
    assert entry.match.src is None  # provenance, not address, identifies A
    assert entry.match.dst is not None
    assert not cfg.exact_entries


def test_ternary_match_is_superset_semantics():
    compiled = compile_text(
        "label_host(ip=A, label={X})\n"
        "if match(src_ip==A && dst_ip==C) then allow\n"
    )
    m = compiled.configs["S2"].ternary_entries[0].match
    x = tag_bit(0)
    other = tag_bit(5)
    assert m.matches(x, 0, "10.9.9.9", "10.5.2.20")  # any src address
    assert m.matches(x | other, 0, "10.9.9.9", "10.5.2.20")  # superset hits
    assert not m.matches(other, 0, "10.5.2.11", "10.5.2.20")  # label missing
    assert not m.matches(x, 0, "10.5.2.11", "10.9.9.9")  # wrong dst


def test_unlabeled_source_compiles_to_exact():
    compiled = compile_text("if match(src_ip==B && dst_ip==C) then drop")
    cfg = compiled.configs["S2"]
    (entry,) = cfg.exact_entries
    assert entry.match.label_mask == 0
    assert entry.match.src.values == frozenset({"10.5.2.12"})
    assert entry.match.matches(0, 0, "10.5.2.12", "10.5.2.20")
    assert not entry.match.matches(0, 0, "10.5.2.11", "10.5.2.20")


def test_raw_ip_source():
    compiled = compile_text("if match(src_ip==192.0.2.9 && dst_ip==C) then drop")
    (entry,) = compiled.configs["S2"].exact_entries
    assert entry.match.src.values == frozenset({"192.0.2.9"})


def test_negated_unlabeled_source():
    compiled = compile_text("if match(src_ip!=B && dst_ip==C) then drop")
    (entry,) = compiled.configs["S2"].exact_entries
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
    (entry,) = compiled.configs["S2"].ternary_entries
    assert entry.match.label_mask == tag_bit(0) | tag_bit(1)


def test_unknown_name_is_an_error():
    with pytest.raises(CompileError, match="resolve"):
        compile_text("if match(src_ip==Nobody && dst_ip==C) then drop")


# -- placement -------------------------------------------------------------


def test_destination_rule_lands_only_at_destination_switch():
    split = make_split()
    compiled = compile_text("if match(src_ip==A && dst_ip==C) then allow", split)
    assert len(compiled.configs["S3"].exact_entries) == 1
    assert compiled.configs["S2"].entry_count() == 0
    assert compiled.configs["S1"].entry_count() == 0


def test_any_destination_lands_on_host_switches_and_gateway():
    split = make_split()
    compiled = compile_text("if match(dst_ip==any) then allow", split)
    for sid in ("S1", "S2", "S3"):
        assert len(compiled.configs[sid].exact_entries) == 1


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
        (entry,) = compiled.configs[sid].exact_entries
        assert entry.match.dst.negate


def test_unplaceable_destination_is_an_error():
    with pytest.raises(PlacementError):
        compile_text("if match(dst_ip==198.51.100.7) then drop")


def test_group_destination_spans_switches():
    split = make_split()
    split.groups["Pair"] = ("A", "B")
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
    assert len(cfg.all_entries()) == 1


def test_endorse_direction():
    compiled = compile_text(
        "if match(src_ip==192.0.2.4 && dst_ip==C) then endorse({P})\n"
    )
    (entry,) = compiled.configs["S2"].privilege_entries
    assert entry.direction == "endorse"
    assert compiled.registry.kind_of("P") is TagKind.INTEGRITY


# -- action validation -----------------------------------------------------


def test_reroute_port_bounds_checked():
    with pytest.raises(CompileError, match="egress port"):
        compile_text("if match(dst_ip==C) then reroute(99)")
    # S2 has ports: S1 plus three hosts
    compiled = compile_text("if match(dst_ip==C) then reroute(1)")
    assert compiled.configs["S2"].exact_entries[0].action.port == 1


def test_modify_restricted_to_known_fields():
    with pytest.raises(CompileError, match="not modifiable"):
        compile_text("if match(dst_ip==C) then modify(dscp=7)")
    compile_text("if match(dst_ip==C) then modify(ttl=4)")  # fine


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
    assert len(merged.exact_entries) == 2
    assert [e.priority for e in merged.exact_entries] == [0, 1]
    assert merged.switch_id == "one"


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
    assert plan.per_switch["S2"].adds[0][0] == "exact"
    assert plan.per_switch["S1"].empty


def test_apply_plan_reaches_target_config():
    old = compile_text(LAN_RULES)
    new = compile_text(
        "label_host(ip=A, label={X})\n"
        "if match(pkt_label contains X && dst_ip==C) then allow\n"
        "if match(dst_ip==B) then allow\n"
    )
    plan = diff_configs(old.configs, new.configs)
    patched = apply_plan(old.configs["S2"], plan.per_switch["S2"])
    assert patched.all_entries() == new.configs["S2"].all_entries()
    assert patched.init_packets == new.configs["S2"].init_packets


def _apply_plan_reference(cfg, update):
    """The original quadratic application: list.remove per removed entry."""
    buckets = {
        "ternary": list(cfg.ternary_entries),
        "exact": list(cfg.exact_entries),
        "tracker": list(cfg.tracker_entries),
        "privilege": list(cfg.privilege_entries),
        "init": list(cfg.init_packets),
    }
    for kind, entry in update.removes:
        buckets[kind].remove(entry)
    for kind, entry in update.adds:
        buckets[kind].append(entry)
    for kind in ("ternary", "exact", "tracker", "privilege"):
        buckets[kind].sort(key=lambda e: e.priority)
    return buckets


_POOL_CFG = compile_text(
    LAN_RULES
    + "if match(dst_ip==B) then allow\n"
    + "if match(dst_ip==A) then drop\n"
    + "if match(src_ip==A && dst_ip==C) then alert\n"
).configs["S2"]
# equal entries that differ only in source_line (which equality ignores)
_POOL = [("ternary", e) for e in _POOL_CFG.ternary_entries] + [
    ("exact", replace(e, source_line=line))
    for e in _POOL_CFG.exact_entries
    for line in (0, 7)
]


@given(
    st.lists(st.sampled_from(range(len(_POOL))), max_size=12),
    st.data(),
    st.lists(st.sampled_from(range(len(_POOL))), max_size=4),
)
def test_apply_plan_matches_list_remove_reference(installed, data, added):
    items = [_POOL[i] for i in installed]
    cfg = replace(
        _POOL_CFG,
        ternary_entries=tuple(e for k, e in items if k == "ternary"),
        exact_entries=tuple(e for k, e in items if k == "exact"),
    )
    removes = data.draw(st.permutations(items)).copy()
    removes = removes[: data.draw(st.integers(min_value=0, max_value=len(removes)))]
    update = SwitchUpdate(adds=tuple(_POOL[i] for i in added), removes=tuple(removes))
    patched = apply_plan(cfg, update)
    want = _apply_plan_reference(cfg, update)
    for kind, got in (("ternary", patched.ternary_entries), ("exact", patched.exact_entries)):
        assert [(e, e.source_line) for e in got] == [(e, e.source_line) for e in want[kind]]


def test_apply_plan_unknown_entry_is_named():
    old = compile_text(LAN_RULES)
    stranger = compile_text("if match(dst_ip==B) then allow\n").configs["S2"].exact_entries[0]
    update = SwitchUpdate(adds=(), removes=(("exact", stranger),))
    with pytest.raises(UnknownEntry, match="S2.*exact"):
        apply_plan(old.configs["S2"], update)
    # removing one copy more than is installed is also unknown
    installed = old.configs["S2"].exact_entries[0]
    twice = SwitchUpdate(adds=(), removes=(("exact", installed), ("exact", installed)))
    with pytest.raises(UnknownEntry):
        apply_plan(old.configs["S2"], twice)


def test_placement_lookup_errors_other_than_unknown_host_propagate(monkeypatch):
    topo = make_lan()

    def broken(ip):
        raise RuntimeError("topology bug")

    monkeypatch.setattr(topo, "switch_of_ip", broken)
    with pytest.raises(RuntimeError, match="topology bug"):
        compile_text("if match(dst_ip==C) then drop", topo)


def test_rule_count_recorded():
    assert compile_text(LAN_RULES).rule_count == 2
