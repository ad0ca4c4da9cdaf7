"""Cross-host provenance from agent event logs.

Every agent event either roots an entity (spawn, label-init), merges one
entity's state into another (read, write, accept, send, ...), or redefines
one outright (spawn is a strong update: a pid's state after spawn is
exactly the host label, regardless of what an earlier incarnation of the
same pid number did).

Entities:
  ("host", name)         the host's static label assignment
  ("pid", host, pid)     a process incarnation
  ("file", host, inode)  a file
  ("flow", key)          one 5-tuple connection, shared by both endpoints

backward_slice answers: which entities could have contributed state to the
sink at the cut point. Events from all agents merge into one global order
by (time, seq); seq comes from a shared counter, so the order is total.
"""

from __future__ import annotations

from .hostagent import AgentEvent

Entity = tuple


def host_entity(host: str) -> Entity:
    return ("host", host)


def pid_entity(host: str, pid: int) -> Entity:
    return ("pid", host, pid)


def file_entity(host: str, inode: int) -> Entity:
    return ("file", host, inode)


def flow_entity(key: str) -> Entity:
    return ("flow", key)


def _flow_edges(ev: AgentEvent):
    """Yields (source, target, strong) influence edges for one event."""
    if ev.kind == "spawn":
        yield host_entity(ev.host), pid_entity(ev.host, ev.pid), True
    elif ev.kind == "read":
        yield file_entity(ev.host, ev.inode), pid_entity(ev.host, ev.pid), False
    elif ev.kind in ("write", "create"):
        yield pid_entity(ev.host, ev.pid), file_entity(ev.host, ev.inode), False
    elif ev.kind == "accept":
        yield flow_entity(ev.flow), pid_entity(ev.host, ev.pid), False
    elif ev.kind == "send":
        yield pid_entity(ev.host, ev.pid), flow_entity(ev.flow), False
    elif ev.kind == "label-file":
        yield host_entity(ev.host), file_entity(ev.host, ev.inode), False
    # label-init, deliver, label-ack, declassify, endorse, exit, restore,
    # reboot: no cross-entity flow


def merged_events(*event_lists: list[AgentEvent]) -> list[AgentEvent]:
    out: list[AgentEvent] = []
    for lst in event_lists:
        out.extend(lst)
    out.sort(key=lambda e: (e.time_ns, e.seq))
    return out


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
    ordered = sorted(events, key=lambda e: (e.time_ns, e.seq))
    for ev in reversed(ordered):
        if until_seq is not None and ev.seq > until_seq:
            continue
        for source, target, strong in _flow_edges(ev):
            if target not in active:
                continue
            active.add(source)
            result.add(source)
            if strong:
                active.discard(target)
    return result


def ancestors_of_file(events: list[AgentEvent], host: str, inode: int) -> set[Entity]:
    return backward_slice(events, file_entity(host, inode))


def format_entity(e: Entity) -> str:
    kind = e[0]
    if kind == "host":
        return f"host:{e[1]}"
    if kind == "pid":
        return f"pid:{e[1]}/{e[2]}"
    if kind == "file":
        return f"file:{e[1]}/inode{e[2]}"
    return f"flow:{e[1]}"
