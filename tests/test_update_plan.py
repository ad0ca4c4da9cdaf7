"""`diff_configs` and `apply_plan` find an entry's counterpart through its
priority, since equal entries have equal priorities. The reference below is
the earlier set-based design, which hashed every `(kind, entry)` item of a
config in full. Random policies with random edits, and hand-built configs
with equal-priority and duplicate entries, must give the same plans, the
same patched configs and the same `UnknownEntry` under both."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difcnet.errors import UnknownEntry
from difcnet.labels import Label
from difcnet.netcl import Allow, Drop, apply_plan, diff_configs
from difcnet.netcl.compiler import (
    FieldMatch,
    MatchSpec,
    PrivilegeEntry,
    SwitchConfig,
    SwitchUpdate,
    TableEntry,
    UpdatePlan,
)
from tests.test_first_match import compile_lines, edited


def _config_items(cfg):
    for e in cfg.entries:
        yield (e.match.table, e)
    for e in cfg.privilege_entries:
        yield ("privilege", e)
    for p in cfg.init_packets:
        yield ("init", p)


def diff_configs_reference(old, new):
    plan = {}
    for s in dict.fromkeys(list(old) + list(new)):
        old_items = list(_config_items(old[s])) if s in old else []
        new_items = list(_config_items(new[s])) if s in new else []
        old_set = set(old_items)
        new_set = set(new_items)
        adds = tuple(i for i in new_items if i not in old_set)
        removes = tuple(i for i in old_items if i not in new_set)
        plan[s] = SwitchUpdate(adds=adds, removes=removes)
    return UpdatePlan(plan)


def apply_plan_reference(cfg, update):
    pending = Counter(update.removes)
    kept = []
    for item in _config_items(cfg):
        if pending[item]:
            pending[item] -= 1
        else:
            kept.append(item)
    missing = [item for item, n in pending.items() if n]
    if missing:
        kind, entry = missing[0]
        raise UnknownEntry(f"switch {cfg.switch_id}: no {kind} entry {entry} to remove")
    kept.extend(update.adds)
    entries = [e for kind, e in kept if kind not in ("privilege", "init")]
    privilege = [e for kind, e in kept if kind == "privilege"]
    return replace(
        cfg,
        entries=tuple(sorted(entries, key=lambda e: e.priority)),
        privilege_entries=tuple(sorted(privilege, key=lambda e: e.priority)),
        init_packets=tuple(e for kind, e in kept if kind == "init"),
    )


def same_items(got, want):
    """The same items, in the same order, down to the instance: equality
    ignores source lines, so this also tells equal entries apart."""
    assert got == want
    assert [id(x) for x in got] == [id(x) for x in want]


def assert_same_plan(got: UpdatePlan, want: UpdatePlan):
    assert list(got.per_switch) == list(want.per_switch)
    for sid, update in got.per_switch.items():
        for got_items, want_items in (
            (update.adds, want.per_switch[sid].adds),
            (update.removes, want.per_switch[sid].removes),
        ):
            assert [kind for kind, _ in got_items] == [kind for kind, _ in want_items]
            same_items([x for _, x in got_items], [x for _, x in want_items])


def assert_same_config(got: SwitchConfig, want: SwitchConfig):
    assert got.switch_id == want.switch_id
    same_items(got.entries, want.entries)
    same_items(got.privilege_entries, want.privilege_entries)
    same_items(got.init_packets, want.init_packets)


def outcome(fn, *args):
    try:
        return fn(*args)
    except UnknownEntry as exc:
        return exc


def assert_same_outcome(cfg, update):
    got = outcome(apply_plan, cfg, update)
    want = outcome(apply_plan_reference, cfg, update)
    if isinstance(want, UnknownEntry):
        assert isinstance(got, UnknownEntry), got
        assert str(got) == str(want)
    else:
        assert not isinstance(got, UnknownEntry), got
        assert_same_config(got, want)
    return got


# -- compiled policies under random edits ----------------------------------


@settings(max_examples=100, deadline=None)
@given(edited())
def test_plans_of_random_edits_equal_the_reference(policy):
    labelings, old_body, new_body = policy
    old = compile_lines(labelings + old_body)
    new = compile_lines(labelings + new_body)
    plan = diff_configs(old.configs, new.configs)
    assert_same_plan(plan, diff_configs_reference(old.configs, new.configs))
    for sid, update in plan.per_switch.items():
        patched = assert_same_outcome(old.configs[sid], update)
        assert patched == new.configs[sid]
        # removing what the update just added leaves nothing unknown
        undo = SwitchUpdate(adds=update.removes, removes=update.adds)
        assert_same_outcome(patched, undo)


# -- hand-built configs: equal priorities, duplicates, unsorted privileges --

IPS = ["10.9.0.1", "10.9.0.2"]
MATCHES = [
    MatchSpec(dst=FieldMatch(frozenset(IPS[:1]))),
    MatchSpec(dst=FieldMatch(frozenset(IPS))),
    MatchSpec(label_mask=1, label_value=1),
    MatchSpec(tracker_match=2),
]
# distinct entries share each priority; the same entry recurs with two
# source lines, which equality ignores
ENTRIES = [
    TableEntry(match, action, priority, line)
    for priority in (0, 1, 2)
    for match in MATCHES
    for action in (Allow(), Drop())
    for line in (10 + priority, 20 + priority)
]
PRIVILEGES = [
    PrivilegeEntry(match, mask, direction, priority, line)
    for priority in (0, 1)
    for match in MATCHES[:2]
    for mask, direction in ((1, "declassify"), (2, "endorse"))
    for line in (30 + priority, 40 + priority)
]
INITS = [(ip, Label(bits)) for ip in IPS for bits in (0, 3)]


@st.composite
def configs(draw, switch_id="S1"):
    entries = draw(st.lists(st.sampled_from(ENTRIES), max_size=8))
    return SwitchConfig(
        switch_id,
        entries=tuple(sorted(entries, key=lambda e: e.priority)),
        privilege_entries=tuple(draw(st.lists(st.sampled_from(PRIVILEGES), max_size=4))),
        init_packets=tuple(draw(st.lists(st.sampled_from(INITS), max_size=3))),
    )


@st.composite
def deployments(draw):
    names = draw(st.lists(st.sampled_from(["S1", "S2", "S3"]), unique=True, max_size=3))
    return {s: draw(configs(s)) for s in names}


ITEMS = (
    [(e.match.table, e) for e in ENTRIES]
    + [("privilege", e) for e in PRIVILEGES]
    + [("init", p) for p in INITS]
)
MISTAGGED = [("ternary", ENTRIES[0]), ("exact", PRIVILEGES[0]), ("privilege", ENTRIES[0])]


@settings(max_examples=300, deadline=None)
@given(deployments(), deployments())
def test_plans_of_hand_built_configs_equal_the_reference(old, new):
    assert_same_plan(diff_configs(old, new), diff_configs_reference(old, new))


@settings(max_examples=300, deadline=None)
@given(configs(), st.data())
def test_applying_hand_built_updates_equals_the_reference(cfg, data):
    """Removes are drawn from what is installed and from the whole pool, so
    some are not installed; updates come in any order."""
    installed = list(_config_items(cfg))
    removes = data.draw(
        st.lists(st.sampled_from(installed), max_size=len(installed)) if installed
        else st.just([])
    )
    removes += data.draw(st.lists(st.sampled_from(ITEMS + MISTAGGED), max_size=2))
    removes = data.draw(st.permutations(removes))
    adds = data.draw(st.lists(st.sampled_from(ITEMS), max_size=6))
    assert_same_outcome(cfg, SwitchUpdate(adds=tuple(adds), removes=tuple(removes)))


def test_unknown_entry_names_the_first_remove_of_the_first_unmatched_entry():
    a = ENTRIES[0]
    a_again = ENTRIES[1]  # equal to a, other source line
    b = next(e for e in ENTRIES if e.priority == a.priority and e != a)
    cfg = SwitchConfig("S1", entries=(a,))
    update = SwitchUpdate(adds=(), removes=(("exact", a_again), ("exact", b), ("exact", a)))
    with pytest.raises(UnknownEntry) as exc:
        apply_plan(cfg, update)
    assert str(exc.value) == str(outcome(apply_plan_reference, cfg, update))
    assert str(exc.value) == f"switch S1: no exact entry {a_again} to remove"


def test_a_remove_tagged_with_another_kind_is_unknown():
    (entry,) = compile_lines(["if match(dst_ip==A) then drop"]).configs["S2"].entries
    assert entry.match.table == "exact"
    cfg = SwitchConfig("S2", entries=(entry,))
    for kind in ("ternary", "privilege", "init"):
        update = SwitchUpdate(adds=(), removes=((kind, entry),))
        with pytest.raises(UnknownEntry, match=f"S2: no {kind} entry"):
            apply_plan(cfg, update)
