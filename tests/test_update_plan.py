"""`diff_configs` finds an entry's counterpart through its priority, since
a priority names at most one entry of a switch's list. The reference below
is the earlier set-based design, which hashed every item of a config in
full. Random policies with random edits, and hand-built configs, must give
the same plans under both. Configs whose priorities do not strictly ascend
cannot be built."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difcnet.errors import CompileError
from difcnet.netcl import Allow, Drop, diff_configs
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
    yield from cfg.entries
    yield from cfg.privilege_entries
    yield from cfg.init_packets


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


def same_items(got, want):
    """The same items, in the same order, down to the instance: equality
    ignores source lines, so this also tells equal entries apart."""
    assert got == want
    assert [id(x) for x in got] == [id(x) for x in want]


def assert_same_plan(got: UpdatePlan, want: UpdatePlan):
    assert list(got.per_switch) == list(want.per_switch)
    for sid, update in got.per_switch.items():
        same_items(update.adds, want.per_switch[sid].adds)
        same_items(update.removes, want.per_switch[sid].removes)


# -- compiled policies under random edits ----------------------------------


@settings(max_examples=100, deadline=None)
@given(edited())
def test_plans_of_random_edits_equal_the_reference(policy):
    labelings, old_body, new_body = policy
    old = compile_lines(labelings + old_body)
    new = compile_lines(labelings + new_body)
    plan = diff_configs(old.configs, new.configs)
    assert_same_plan(plan, diff_configs_reference(old.configs, new.configs))


# -- hand-built configs: distinct entries at one priority across versions --

IPS = ["10.9.0.1", "10.9.0.2"]
MATCHES = [
    MatchSpec(dst=FieldMatch(frozenset(IPS[:1]))),
    MatchSpec(dst=FieldMatch(frozenset(IPS))),
    MatchSpec(label_mask=1),
    MatchSpec(tracker_match=2),
]
# distinct entries share each priority; the same entry recurs with two
# source lines, which equality ignores
ENTRIES = [
    TableEntry(match, action, priority, line)
    for priority in (0, 1, 2, 3)
    for match in MATCHES
    for action in (Allow(), Drop())
    for line in (10 + priority, 20 + priority)
]
PRIVILEGES = [
    PrivilegeEntry(match, mask, direction, priority, line)
    for priority in (0, 1, 2)
    for match in MATCHES[:2]
    for mask, direction in ((1, "declassify"), (2, "endorse"))
    for line in (30 + priority, 40 + priority)
]
INITS = [(ip, bits) for ip in IPS for bits in (0, 3)]


def by_priority(pool, max_size):
    """Lists of `pool`'s entries, at most one per priority, in ascending
    priority."""
    return st.lists(
        st.sampled_from(pool), max_size=max_size, unique_by=lambda e: e.priority
    ).map(lambda entries: tuple(sorted(entries, key=lambda e: e.priority)))


@st.composite
def configs(draw, switch_id="S1"):
    return SwitchConfig(
        switch_id,
        entries=draw(by_priority(ENTRIES, 4)),
        privilege_entries=draw(by_priority(PRIVILEGES, 3)),
        init_packets=tuple(draw(st.lists(st.sampled_from(INITS), max_size=3))),
    )


@st.composite
def deployments(draw):
    names = draw(st.lists(st.sampled_from(["S1", "S2", "S3"]), unique=True, max_size=3))
    return {s: draw(configs(s)) for s in names}


@settings(max_examples=300, deadline=None)
@given(deployments(), deployments())
def test_plans_of_hand_built_configs_equal_the_reference(old, new):
    assert_same_plan(diff_configs(old, new), diff_configs_reference(old, new))


@pytest.mark.parametrize(
    "field, entries, message",
    [
        ("entries", (ENTRIES[0], ENTRIES[2]), "entry of priority 0 follows priority 0"),
        ("entries", (ENTRIES[0], ENTRIES[1]), "entry of priority 0 follows priority 0"),
        ("entries", (ENTRIES[16], ENTRIES[0]), "entry of priority 0 follows priority 1"),
        ("privilege_entries", (PRIVILEGES[0], PRIVILEGES[2]),
         "entry of priority 0 follows priority 0"),
        ("privilege_entries", (PRIVILEGES[8], PRIVILEGES[0]),
         "entry of priority 0 follows priority 1"),
    ],
    ids=["distinct-at-one-priority", "duplicate", "unsorted", "privilege-distinct-at-one-priority",
         "privilege-unsorted"],
)
def test_configs_the_earlier_diff_accepted_are_rejected(field, entries, message):
    """Equal-priority, duplicate and unsorted lists, which the earlier
    design had to diff, can no longer be built."""
    with pytest.raises(CompileError, match=f"^switch S1: {message}$"):
        SwitchConfig("S1", **{field: entries})
