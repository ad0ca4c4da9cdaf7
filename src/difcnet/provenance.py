"""Cross-host provenance from agent event logs.

Every agent event either roots an entity (spawn, label-init), merges one
entity's state into another (read, write, accept, send, ...), or redefines
one outright (spawn is a strong update: a pid's state after spawn is
exactly the host label, regardless of what an earlier incarnation of the
same pid number did).

Entities (built by the helpers in hostagent, re-exported here):
  ("host", name)         the host's static label assignment
  ("pid", host, pid)     a process incarnation
  ("file", host, inode)  a file
  ("flow", key)          one 5-tuple connection, shared by both endpoints

Each event's edge, `source` -> `target`, is fixed once in the AgentEvent
constructor. backward_slice answers: which entities could have contributed
state to the sink at the cut point. Events from all agents merge into one
global order by (time, seq); seq comes from a shared counter, so the order
is total. A slice is two stable sorts into that order and one reverse
sweep over the edges.
"""

from __future__ import annotations

from operator import attrgetter

from .hostagent import (
    AgentEvent,
    Entity,
    file_entity,
    flow_entity,
    host_entity,
    pid_entity,
)

__all__ = [
    "Entity",
    "backward_slice",
    "file_entity",
    "flow_entity",
    "host_entity",
    "merged_events",
    "pid_entity",
]

_BY_SEQ = attrgetter("seq")
_BY_TIME = attrgetter("time_ns")


def _in_order(events) -> list[AgentEvent]:
    """A new list in (time_ns, seq) order: sorting by seq and then, stably,
    by time_ns gives that order without a key tuple per event."""
    out = sorted(events, key=_BY_SEQ)
    out.sort(key=_BY_TIME)
    return out


def merged_events(*event_lists: list[AgentEvent]) -> list[AgentEvent]:
    out: list[AgentEvent] = []
    for lst in event_lists:
        out.extend(lst)
    return _in_order(out)


def backward_slice(
    events: list[AgentEvent],
    sink: Entity,
    *,
    until_seq: int | None = None,
) -> set[Entity]:
    """Entities whose state can have reached `sink` by the cut point
    (inclusive). The sink itself is part of the result.

    `active` is the traversal frontier; `result` is the answer. A strong
    update closes the target for traversal (everything before it belongs to
    a different incarnation) but the entity stays in the answer, since its
    current incarnation did contribute."""
    active: set[Entity] = {sink}
    result: set[Entity] = {sink}
    for ev in reversed(_in_order(events)):
        target = ev.target
        if target not in active:
            continue
        if until_seq is not None and ev.seq > until_seq:
            continue
        source = ev.source
        active.add(source)
        result.add(source)
        if ev.kind == "spawn":
            active.discard(target)
    return result
