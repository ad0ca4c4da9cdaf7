"""Control plane: connection install service, config rollout, placement.

The data plane never blocks on the controller. A switch that decides a new
connection keeps serving from its decision buffer; the controller turns the
install request into exact conn_dec entries (forward key at the deciding
switch, reversed key at the switch next to the connection source) that land
one round trip later.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataplane import Decision, InstallRequest, Switch
from .errors import CapacityExceeded, DifcnetError, UnknownHost
from .netcl.compiler import (
    CompiledPolicy,
    UpdatePlan,
    diff_configs,
    merge_to_single_switch,
)
from .topology import Topology


@dataclass
class PlacementReport:
    per_switch: dict[str, int]
    single_switch_total: int
    reductions: dict[str, float]
    average_reduction: float

    def format(self) -> str:
        lines = [f"single switch deployment: {self.single_switch_total} entries"]
        for s, n in self.per_switch.items():
            red = self.reductions.get(s)
            extra = f" (reduction {red * 100:.1f}%)" if red is not None else ""
            lines.append(f"  {s}: {n} entries{extra}")
        lines.append(
            f"average reduction across enforcing switches: "
            f"{self.average_reduction * 100:.1f}%"
        )
        return "\n".join(lines)


def _renumbered(old: CompiledPolicy, new: CompiledPolicy) -> str:
    """Each tag of `old` that `new` gives another index or lacks, and each
    file of `old` that `new` gives another tracker id or lacks, or "" if
    none: `new`'s numbering must extend `old`'s."""
    tags, files = new.registry.name_to_id, new.file_trackers
    return ", ".join([
        *(f"tag {name} (index {i} -> {tags.get(name, 'missing')})"
          for name, i in old.registry.name_to_id.items() if tags.get(name) != i),
        *(f"file {path}@{host} (tracker {i} -> {files.get((host, path), 'missing')})"
          for (host, path), i in old.file_trackers.items() if files.get((host, path)) != i),
    ])


class ControlPlane:
    def __init__(self, topology: Topology, compiled: CompiledPolicy, rtt_ns: int) -> None:
        self.topology = topology
        self.compiled = compiled
        self.rtt_ns = rtt_ns
        self.install_failures = 0

    def serve_conndec(self, req: InstallRequest) -> list[InstallRequest]:
        """One request fans out to the deciding switch and, for admitted
        connections, the reversed key near the source so return traffic is
        covered without a second decision. Each install is due one RTT
        after the request."""
        due = req.at_ns + self.rtt_ns
        out = [InstallRequest(req.switch_id, req.key, req.decision, due)]
        if req.decision is Decision.ALLOW:
            try:
                src_switch = self.topology.switch_of_ip(req.key.src_ip)
            except UnknownHost:  # spoofed or out-of-inventory source
                src_switch = None
            if src_switch is not None:
                rev = InstallRequest(src_switch, req.key.reversed(), req.decision, due)
                if rev.switch_id != req.switch_id or rev.key != req.key:
                    out.append(rev)
        return out

    def perform_install(self, switches: dict[str, Switch], pending: InstallRequest) -> bool:
        sw = switches[pending.switch_id]
        try:
            sw.conn_dec.install(pending.key, pending.decision, pending.at_ns)
        except CapacityExceeded:
            self.install_failures += 1
            return False
        return True

    def apply_update(self, switches: dict[str, Switch], new_compiled: CompiledPolicy) -> UpdatePlan:
        """Rolls `new_compiled` out and returns the plan of entry adds and
        removes from the policy in force. Each switch the plan changes swaps
        to its new config in one step, so no packet sees a half-applied
        table, and empties its classify cache; every other switch keeps its
        config object and its cache. Each packet is enforced at exactly one
        switch, so switches need no common update instant. conn_dec and
        decision-buffer entries survive: a connection admitted before the
        update keeps flowing.

        Hosts keep stamping the tag bits and tracker ids of the policy in
        force, so a policy whose numbering does not extend it, one that
        gives one of its tags or files another number or lacks one, is
        refused before any switch swaps; `compile_program(..., previous=)`
        keeps the numbering."""
        moved = _renumbered(self.compiled, new_compiled)
        if moved:
            raise DifcnetError(f"update refused, it renumbers the policy in force: {moved}")
        plan = diff_configs(self.compiled.configs, new_compiled.configs)
        for sid, update in plan.per_switch.items():
            if update.empty or sid not in switches:
                continue
            switches[sid].set_config(new_compiled.configs[sid])
        self.compiled = new_compiled
        return plan

    def placement_report(self) -> PlacementReport:
        single = merge_to_single_switch(self.compiled, "all-in-one").entry_count()
        per_switch = {
            s: cfg.entry_count()
            for s, cfg in self.compiled.configs.items()
        }
        reductions = {
            s: 1.0 - (n / single)
            for s, n in per_switch.items()
            if n > 0 and single > 0
        }
        avg = sum(reductions.values()) / len(reductions) if reductions else 0.0
        return PlacementReport(
            per_switch=per_switch,
            single_switch_total=single,
            reductions=reductions,
            average_reduction=avg,
        )
