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
is total. An EventLog holds a log in that order. It is sorted once, when it
is made, and keeps its edges newest first after the first slice, so each
slice is one reverse sweep over the edges alone.
"""

from __future__ import annotations

from functools import cached_property
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
    "EventLog",
    "backward_slice",
    "file_entity",
    "flow_entity",
    "host_entity",
    "merged_events",
    "pid_entity",
]

_BY_SEQ = attrgetter("seq")
_BY_TIME = attrgetter("time_ns")


class EventLog(tuple):
    """Agent events in (time_ns, seq) order. Make one with `of`; a tuple
    cannot change, so the view below is built once and then reused."""

    @classmethod
    def of(cls, events) -> EventLog:
        """Sorting by seq and then, stably, by time_ns gives the order
        without a key tuple per event."""
        out = sorted(events, key=_BY_SEQ)
        out.sort(key=_BY_TIME)
        return cls(out)

    @cached_property
    def edges_newest_first(self) -> tuple[AgentEvent, ...]:
        # self[::-1] is a plain tuple: reversed() on a tuple subclass goes
        # through the generic sequence protocol, several times slower
        return tuple([ev for ev in self[::-1] if ev.target is not None])


def merged_events(*event_lists: list[AgentEvent]) -> EventLog:
    return EventLog.of(ev for lst in event_lists for ev in lst)


def backward_slice(
    events: EventLog | list[AgentEvent],
    sink: Entity,
    *,
    until_seq: int | None = None,
) -> set[Entity]:
    """Entities whose state can have reached `sink` by the cut point
    (inclusive). The sink itself is part of the result.

    `active` is the traversal frontier; `result` is the answer. A strong
    update closes the target for traversal (everything before it belongs to
    a different incarnation) but the entity stays in the answer, since its
    current incarnation did contribute. A log that is not an EventLog is
    sorted into one first."""
    log = events if isinstance(events, EventLog) else EventLog.of(events)
    edges = log.edges_newest_first
    if until_seq is not None:
        edges = [ev for ev in edges if ev.seq <= until_seq]
    active: set[Entity] = {sink}
    result: set[Entity] = {sink}
    for ev in edges:
        target = ev.target
        if target not in active:
            continue
        source = ev.source
        active.add(source)
        result.add(source)
        if ev.kind == "spawn":
            active.discard(target)
    return result
