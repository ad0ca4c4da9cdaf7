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
is made. On its first slice one pass over its events, oldest first, gives
every entity its ancestry, an int with one bit per entity whose state
reached it (see EventLog.ancestry), and each slice reads one entity's int.

The pass suits a log that is sliced several times: every slice after it is
a lookup and the decoding of one int. Bits are numbered in the order the
pass first meets each entity, oldest first; an entity's ancestors were all
met by the edge that reached it, so its int stays short. Memory is one int
per entity of at most E bits for E entities, at most E**2/8 bytes on a log
where everything reaches everything.
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

    @cached_property
    def ancestry(self) -> dict[Entity, int]:
        """Each entity with an edge in the log -> the set of entities whose
        state reached it by the end of the log, itself included, as an int
        with bit k for the entity at position k of this dict's keys.

        One pass over the events, oldest first. An edge's source and then
        its target take the next bit when the pass first meets them. A weak
        edge ORs the source's bits into the target's; a spawn replaces the
        target's bits with the source's plus the target's own bit, so what
        an earlier incarnation of a pid gathered is dropped."""
        ids: dict[Entity, int] = {}
        bits: list[int] = []  # per bit number: that entity's ancestry so far
        for ev in self:
            target = ev.target
            if target is None:
                continue
            s = ids.get(ev.source)
            if s is None:
                s = ids[ev.source] = len(bits)
                bits.append(1 << s)
            t = ids.get(target)
            if t is None:
                t = ids[target] = len(bits)
                bits.append(1 << t)
            if ev.kind == "spawn":
                bits[t] = bits[s] | 1 << t
            else:
                bits[t] |= bits[s]
        return dict(zip(ids, bits))


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
