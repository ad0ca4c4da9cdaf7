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
is made. On its first slice it builds an edge table: each entity interned
to a small int, the edges newest first as rows of ints, and a weak edge
that repeats a newer one with nothing in between folded away (see
_EdgeTable). Each slice is then one reverse sweep over the rows, with
bytearray flags in place of sets of tuples.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
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


class _EdgeTable:
    """A log's edges, newest first, over interned entities.

    `ids` maps each entity to its id. Ids are handed out in the order the
    newest-first sweep meets the entities, so the dict's keys, in order,
    map ids back to entities. Row r is the edge
    `sources[r]` -> `targets[r]`, a strong update when `strong[r]`.

    A weak edge s -> t is left out when the last kept weak edge into t
    (the next newer one) also came from s, no kept edge between the two
    has t as its source, and no spawn between them hits s. The sweep runs
    newest first and only an edge out of t can make t active, so if t is
    active at the older edge it was already active at the newer one; that
    made s active, and only a spawn into s can have cleared it since. The
    older edge would add nothing. The rows left out change nothing, so
    they need not count as edges out of anything."""

    __slots__ = ("ids", "targets", "sources", "strong")

    def __init__(self, events_newest_first) -> None:
        ids: dict[Entity, int] = {}
        targets: list[int] = []
        sources: list[int] = []
        strong = bytearray()
        # per entity id: the source of the last kept weak edge into it (-1
        # once a kept edge leaves it), the spawn count of that source when
        # that edge was kept, and the spawns into the entity so far
        last_source: list[int] = []
        last_spawns: list[int] = []
        spawns: list[int] = []
        for ev in events_newest_first:
            target = ev.target
            if target is None:
                continue
            t = ids.get(target)
            if t is None:
                t = ids[target] = len(last_source)
                last_source.append(-1)
                last_spawns.append(0)
                spawns.append(0)
            source = ev.source
            s = ids.get(source)
            if s is None:
                s = ids[source] = len(last_source)
                last_source.append(-1)
                last_spawns.append(0)
                spawns.append(0)
            if ev.kind == "spawn":
                spawns[t] += 1
                strong.append(1)
            elif last_source[t] == s and last_spawns[t] == spawns[s]:
                continue
            else:
                last_source[t] = s
                last_spawns[t] = spawns[s]
                strong.append(0)
            last_source[s] = -1
            targets.append(t)
            sources.append(s)
        self.ids = ids
        self.targets = targets
        self.sources = sources
        self.strong = strong


class EventLog(tuple):
    """Agent events in (time_ns, seq) order. Make one with `of`; a tuple
    cannot change, so the edge table below is built once and then reused."""

    @classmethod
    def of(cls, events) -> EventLog:
        """Sorting by seq and then, stably, by time_ns gives the order
        without a key tuple per event."""
        out = sorted(events, key=_BY_SEQ)
        out.sort(key=_BY_TIME)
        return cls(out)

    @cached_property
    def edge_table(self) -> _EdgeTable:
        # self[::-1] is a plain tuple: reversed() on a tuple subclass goes
        # through the generic sequence protocol, several times slower
        return _EdgeTable(self[::-1])


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

    `active` is the traversal frontier; `reached` is the answer. A strong
    update closes the target for traversal (everything before it belongs to
    a different incarnation) but the entity stays in the answer, since its
    current incarnation did contribute. A log that is not an EventLog is
    sorted into one first; a cut slices the log of the events up to it."""
    log = events if isinstance(events, EventLog) else EventLog.of(events)
    if until_seq is not None:
        log = EventLog([ev for ev in log if ev.seq <= until_seq])
    table = log.edge_table
    root = table.ids.get(sink)
    if root is None:
        return {sink}
    active = bytearray(len(table.ids))
    reached = bytearray(len(table.ids))
    active[root] = reached[root] = 1
    for t, s, strong in zip(table.targets, table.sources, table.strong):
        if active[t]:
            active[s] = reached[s] = 1
            if strong:
                active[t] = 0
    return set(compress(table.ids, reached))
