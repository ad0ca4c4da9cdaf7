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
_EdgeTable). One oldest-first pass over those rows then gives every entity
its ancestry, an int with one bit per entity whose state reached it (see
EventLog.ancestry), and each slice reads one entity's int.

The pass suits a log that is sliced several times: it costs about as much
as two newest-first sweeps from one sink, and every slice after it is a
lookup and the decoding of one int. Bits are numbered in the order the
pass first meets each entity, oldest first; an entity's ancestors were all
met by the edge that reached it, so its int stays short. Memory is one int
per entity of at most E bits for E entities, E**2/8 bytes on a log where
everything reaches everything (about 0.75 MB for the 2,924 entities of the
benchmark's analysis log at seed 7, whose ints average 1,609 bits). The
edge table is freed once the pass is done.
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
# b"0" -> 0 and b"1" -> 1, so a bin() string becomes a bytes of flags
_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class _EdgeTable:
    """A log's edges, newest first, over interned entities.

    `ids` maps each entity to its id. Ids are handed out in the order the
    newest-first sweep meets the entities, so the dict's keys, in order,
    map ids back to entities. Row r is the edge
    `sources[r]` -> `targets[r]`, a strong update when `strong[r]`.

    A weak edge s -> t is left out when the last kept weak edge into t
    (the next newer one) also came from s, no kept edge between the two
    has t as its source, and no spawn between them hits s. Read oldest
    first, the older edge ORs s's ancestry into t and the newer one ORs it
    in again; without a spawn into s that ancestry only grew in between,
    and without an edge out of t nothing read t's ancestry in between. The
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
    cannot change, so the ancestry below is built once and then reused."""

    @classmethod
    def of(cls, events) -> EventLog:
        """Sorting by seq and then, stably, by time_ns gives the order
        without a key tuple per event."""
        out = sorted(events, key=_BY_SEQ)
        out.sort(key=_BY_TIME)
        return cls(out)

    @property
    def edge_table(self) -> _EdgeTable:
        """Built on each read. The ancestry reads it once and keeps only
        its result, so the table's memory is freed after the pass."""
        # self[::-1] is a plain tuple: reversed() on a tuple subclass goes
        # through the generic sequence protocol, several times slower
        return _EdgeTable(self[::-1])

    @cached_property
    def ancestry(self) -> dict[Entity, int]:
        """Each entity of the edge table -> the set of entities whose state
        reached it by the end of the log, itself included, as an int with
        bit k for the entity at position k of this dict's keys.

        One pass over the rows, oldest first. A weak edge ORs the source's
        bits into the target's; a spawn replaces the target's bits with the
        source's plus the target's own bit, so what an earlier incarnation
        of a pid gathered is dropped. An entity takes the next bit when the
        pass first meets it."""
        table = self.edge_table
        n = len(table.ids)
        bits = [0] * n  # per table id: its ancestry so far, 0 until met
        bit = [0] * n  # per table id: its bit number, once met
        order: list[int] = []  # table ids by bit number
        for t, s, strong in zip(
            reversed(table.targets), reversed(table.sources), reversed(table.strong)
        ):
            if not bits[s]:
                bit[s] = len(order)
                bits[s] = 1 << bit[s]
                order.append(s)
            if not bits[t]:
                bit[t] = len(order)
                bits[t] = 1 << bit[t]
                order.append(t)
            if strong:
                bits[t] = bits[s] | 1 << bit[t]
            else:
                bits[t] |= bits[s]
        entities = list(table.ids)
        return {entities[i]: bits[i] for i in order}


def merged_events(*event_lists: list[AgentEvent]) -> EventLog:
    return EventLog.of(ev for lst in event_lists for ev in lst)


def backward_slice(
    events: EventLog | list[AgentEvent],
    sink: Entity,
    *,
    until_seq: int | None = None,
) -> set[Entity]:
    """Entities whose state can have reached `sink` by the cut point
    (inclusive). The sink itself is part of the result. An entity with no
    edge in the log is reached by nothing else.

    A log that is not an EventLog is sorted into one first; a cut slices
    the log of the events up to it, which builds its own ancestry."""
    log = events if isinstance(events, EventLog) else EventLog.of(events)
    if until_seq is not None:
        log = EventLog([ev for ev in log if ev.seq <= until_seq])
    ancestry = log.ancestry
    bits = ancestry.get(sink)
    if bits is None:
        return {sink}
    # bin() lists the bits highest first; reversed, bit k is the flag of
    # the k-th entity
    return set(compress(ancestry, bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)))
