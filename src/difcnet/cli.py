"""Command line front end."""

from __future__ import annotations

import re
import sys
from collections import Counter
from pathlib import Path

import click

from .controlplane import ControlPlane
from .errors import DifcnetError
from .labels import TagRegistry
from .netcl import compile_program, diff_configs, parse_files
from .netcl.ast import format_action
from .netcl.compiler import CompiledPolicy, PrivilegeEntry, TableEntry
from .routes import DEFAULT_COVERAGE_ROWS, coverage_report
from .scenario import load_scenario, run_scenario
from .topology import Topology, load_topology


class _Group(click.Group):
    """Ends any command that raises a DifcnetError with the error's own
    message on one `Error:` line and exit code 1, the way click reports a
    bad argument, instead of a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except DifcnetError as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Group)
def main() -> None:
    """Network-level information flow control: policy tools and simulator."""


def _compile(
    topology_path: str, *policy_lists: tuple[str, ...]
) -> tuple[Topology, list[CompiledPolicy]]:
    """The topology, and each list of policy files compiled against it as a
    policy version that follows the one before."""
    topo = load_topology(topology_path)
    versions: list[CompiledPolicy] = []
    for paths in policy_lists:
        previous = versions[-1] if versions else None
        versions.append(compile_program(parse_files(list(paths)), topo, previous))
    return topo, versions


@main.command()
@click.argument("scenario", type=click.Path(exists=True))
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write the full event trace to this file.")
@click.option("--quiet", is_flag=True, help="Only print failing checks.")
def run(scenario: str, trace_path: str | None, quiet: bool) -> None:
    """Run a scenario file and evaluate its expectations."""
    result = run_scenario(load_scenario(scenario))
    for name, ok, detail in result.checks:
        if quiet and ok:
            continue
        status = "PASS" if ok else "FAIL"
        click.echo(f"[{status}] {name}: {detail}")
    if trace_path:
        Path(trace_path).write_text(result.trace)
        click.echo(f"trace written to {trace_path} ({len(result.network.trace)} lines)")
    if not result.ok:
        sys.exit(1)


def _parse_rows(ctx, param, rows: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
    spec = []
    for text in rows:
        m = re.fullmatch(r"(\d+):(\d+)", text)
        if m is None or int(m[1]) < 1:
            raise click.BadParameter(
                f"{text!r} is not steps:allowed with steps >= 1, e.g. 4:2"
            )
        spec.append((int(m[1]), int(m[2])))
    return tuple(spec)


@main.command()
@click.argument("topology", type=click.Path(exists=True))
@click.option("--target", default=None, help="Target host (default: first host).")
@click.option("--row", "rows", multiple=True, callback=_parse_rows,
              help="steps:allowed pair, e.g. 4:2 (repeatable). Defaults depend on the topology name.")
def routes(topology: str, target: str | None, rows: tuple[tuple[int, int], ...]) -> None:
    """Count lateral attack routes and report blocked fractions."""
    topo = load_topology(topology)
    target = target or next((h.name for h in topo.hosts), "")
    if target not in topo.host_by_name:
        raise click.BadParameter(
            f"no host {target!r} in topology {topo.name!r}", param_hint="'--target'"
        )
    row_spec = rows or DEFAULT_COVERAGE_ROWS.get(topo.name)
    if row_spec is None:
        raise click.ClickException(
            f"no default rows for topology {topo.name!r}; pass --row steps:allowed"
        )
    n = len(topo.hosts) - 1
    click.echo(f"topology={topo.name} hosts={len(topo.hosts)} target={target} candidates={n}")
    report = coverage_report(topo, target, row_spec)
    click.echo(f"{'steps':>5} {'allowed':>7} {'routes':>12} {'filter%':>8} {'labels%':>8}  basis")
    for row in report:
        basis = f"sampled {row.evaluated}" if row.sampled else "exhaustive"
        click.echo(
            f"{row.steps:>5} {row.allowed:>7} {row.routes:>12} "
            f"{row.firewall_coverage:>8.1f} {row.policy_coverage:>8.1f}  {basis}"
        )


@main.command()
@click.argument("policies", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--topology", "topology_path", required=True, type=click.Path(exists=True))
def check(policies: tuple[str, ...], topology_path: str) -> None:
    """Parse and compile policies; report table usage per switch."""
    _, (compiled,) = _compile(topology_path, policies)
    click.echo(
        f"{compiled.rule_count} rules, {len(compiled.host_labels)} labeled hosts, "
        f"{len(compiled.file_trackers)} tracked files, "
        f"{len(compiled.registry.name_to_id)} tags"
    )
    for sid, cfg in compiled.configs.items():
        if cfg.entry_count() == 0:
            continue
        n = Counter(e.match.table for e in cfg.entries)
        click.echo(
            f"  {sid}: ternary={n['ternary']} exact={n['exact']} "
            f"tracker={n['tracker']} privilege={len(cfg.privilege_entries)}"
        )


@main.command()
@click.argument("policies", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--topology", "topology_path", required=True, type=click.Path(exists=True))
def report(policies: tuple[str, ...], topology_path: str) -> None:
    """Show where entries land and the storage saved by placement."""
    topo, (compiled,) = _compile(topology_path, policies)
    cp = ControlPlane(topo, compiled, rtt_ns=0)
    click.echo(cp.placement_report().format())


@main.command()
@click.option("--topology", "topology_path", required=True, type=click.Path(exists=True))
@click.option("--old", "old_paths", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--new", "new_paths", multiple=True, required=True, type=click.Path(exists=True))
def apply(topology_path: str, old_paths: tuple[str, ...], new_paths: tuple[str, ...]) -> None:
    """Plan the incremental table update from one policy set to another."""
    _, (old, new) = _compile(topology_path, old_paths, new_paths)
    plan = diff_configs(old.configs, new.configs)
    adds, removes = plan.counts()
    click.echo(f"plan: +{adds} entries, -{removes} entries")
    for sid, update in plan.per_switch.items():
        if update.empty:
            continue
        click.echo(f"  {sid}: +{len(update.adds)} -{len(update.removes)}")
        for item in update.adds:
            click.echo(f"    + {_format_plan_item(item, new.registry)}")
        for item in update.removes:
            click.echo(f"    - {_format_plan_item(item, old.registry)}")


def _format_plan_item(item, registry: TagRegistry) -> str:
    """One plan entry on one line: its kind (the table of a match entry,
    privilege or init), priority, NetCL source line, action and match, with
    tag names for label bits and sorted addresses."""
    if isinstance(item, TableEntry):
        kind, action = item.match.table, format_action(item.action)
    elif isinstance(item, PrivilegeEntry):
        kind, action = "privilege", f"{item.direction}({registry.format_label(item.mask)})"
    else:
        ip, bits = item
        return f"[init] {ip} label {registry.format_label(bits)}"
    match = item.match
    parts = []
    if match.label_mask:
        parts.append(f"label has {registry.format_label(match.label_mask)}")
    if match.tracker_match:
        parts.append(f"tracker {match.tracker_match}")
    for name, side in (("src", match.src), ("dst", match.dst)):
        if side is not None:
            parts.append(f"{name} {'not ' if side.negate else ''}{','.join(sorted(side.values))}")
    condition = " and ".join(parts) or "any"
    return f"[{kind}] priority {item.priority} line {item.source_line}: {action} if {condition}"


if __name__ == "__main__":
    main()
