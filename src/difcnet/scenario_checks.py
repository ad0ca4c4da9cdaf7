"""Expectation evaluation for scenario runs. Each check returns a
(name, passed, detail) triple so callers can print one line per check."""

from __future__ import annotations

from .errors import DifcnetError, ScenarioError
from .labels import Label, tag_bit
from .netcl.compiler import tracker_of

# fields each expectation list entry needs, checked before the run
EXPECT_FIELDS = {"pids": ("host", "pid"), "files": ("host", "path")}


def _tracker_ref(compiled, ref):
    """Tracker expectations name the file as <path>@<host>; 0 or None means
    no tracker."""
    return tracker_of(compiled.file_trackers, ref) if ref else 0


def check_expectation_names(where: str, expect: dict, topology, compiled) -> None:
    """Checks, before the run, that each `expect.pids` and `expect.files`
    entry names a host of the topology, only tags the policy declares and,
    if it names a tracker, a file the policy tracks; `where` is the
    scenario file."""
    for section, fields in EXPECT_FIELDS.items():
        for i, spec in enumerate(expect.get(section, [])):
            entry = f"{where}: expect.{section}[{i}]"
            if not isinstance(spec, dict):
                raise ScenarioError(f"{entry}: an entry must be a mapping")
            for name in fields:
                if name not in spec:
                    raise ScenarioError(f"{entry}: missing field {name!r}")
            host = spec["host"]
            if not isinstance(host, str) or host not in topology.host_by_name:
                raise ScenarioError(
                    f"{entry}: host {host!r} is not a host in topology {topology.name!r}"
                )
            ref = spec.get("tracker")
            try:
                _tracker_ref(compiled, ref)
            except DifcnetError as exc:
                raise ScenarioError(f"{entry}: tracker {ref!r}: {exc}") from None
            for key in ("includes", "excludes"):
                names = spec.get(key, [])
                if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
                    raise ScenarioError(f"{entry}: {key} must be a list of tag names, not {names!r}")
                for name in names:
                    if name not in compiled.registry.name_to_id:
                        raise ScenarioError(f"{entry}: {key}: unknown tag {name!r}")


def _label_check(compiled, bits: int, spec: dict) -> tuple[bool, str]:
    problems = []
    for name in spec.get("includes", []):
        if not bits & tag_bit(compiled.registry.lookup(name)):
            problems.append(f"missing {name}")
    for name in spec.get("excludes", []):
        if bits & tag_bit(compiled.registry.lookup(name)):
            problems.append(f"unexpected {name}")
    shown = compiled.registry.format_label(Label(bits))
    return (not problems, f"label={shown}" + (f" ({'; '.join(problems)})" if problems else ""))


def evaluate_expectations(net, compiled, topology, expect: dict):
    checks: list[tuple[str, bool, str]] = []

    for flow_id, want in expect.get("flows", {}).items():
        rec = net.flows[flow_id]  # load_scenario checked that the flow is in the file
        ok = True
        bits = []
        if "verdict" in want:
            good = rec.verdict == want["verdict"]
            ok &= good
            bits.append(f"verdict={rec.verdict}(want {want['verdict']})")
        for field_name in ("delivered", "sent", "dropped"):
            if field_name in want:
                have = getattr(rec, field_name)
                good = have == want[field_name]
                ok &= good
                bits.append(f"{field_name}={have}(want {want[field_name]})")
        checks.append((f"flow:{flow_id}", bool(ok), " ".join(bits)))

    if "external_delivered" in expect:
        have = sum(1 for p in net.external_deliveries if p.control is None)
        want = expect["external_delivered"]
        checks.append(
            ("external_delivered", have == want, f"have={have} want={want}")
        )

    for spec in expect.get("pids", []):
        host, pid = spec["host"], int(spec["pid"])
        agent = net.agents[host]
        name = f"pid:{host}/{pid}"
        if pid not in agent.pid_labels:
            checks.append((name, False, "pid not live"))
            continue
        ok, detail = _label_check(compiled, agent.pid_labels[pid].bits, spec)
        if "tracker" in spec:
            want_tracker = _tracker_ref(compiled, spec["tracker"])
            have_tracker = agent.pid_trackers.get(pid, 0)
            if have_tracker != want_tracker:
                ok = False
                detail += f" tracker={have_tracker}(want {want_tracker})"
        checks.append((name, ok, detail))

    for spec in expect.get("files", []):
        host, path = spec["host"], spec["path"]
        agent = net.agents[host]
        name = f"file:{host}:{path}"
        if path not in agent.file_paths:
            checks.append((name, False, "file does not exist"))
            continue
        inode = agent.file_paths[path]
        ok, detail = _label_check(compiled, agent.file_labels[inode].bits, spec)
        if "tracker" in spec:
            want_tracker = _tracker_ref(compiled, spec["tracker"])
            have_tracker = agent.file_trackers.get(inode, 0)
            if have_tracker != want_tracker:
                ok = False
                detail += f" tracker={have_tracker}(want {want_tracker})"
        checks.append((name, ok, detail))

    for needle in expect.get("trace_contains", []):
        found = any(needle in line for line in net.trace)
        checks.append((f"trace:{needle}", found, "present" if found else "absent"))

    return checks
