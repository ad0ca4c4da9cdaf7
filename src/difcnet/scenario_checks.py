"""Expectation evaluation for scenario runs. Each check returns a
(name, passed, detail) triple so callers can print one line per check."""

from __future__ import annotations

from .errors import DifcnetError, ScenarioError
from .labels import tag_bit
from .netcl.compiler import tracker_of


def _tracker_ref(compiled, ref):
    """Tracker expectations name the file as <path>@<host>; 0 or None means
    no tracker."""
    return tracker_of(compiled.file_trackers, ref) if ref else 0


def check_expectation_names(where: str, expect: dict, topology, compiled) -> None:
    """Checks, before the run, that each `expect.pids` and `expect.files`
    entry (of the keys and kinds load_scenario checked) names a host of the
    topology, only tags the policy declares and, if it names a tracker, a
    file the policy tracks; `where` is the scenario file."""
    for section in ("pids", "files"):
        for i, spec in enumerate(expect.get(section, [])):
            entry = f"{where}: expect.{section}[{i}]"
            if spec["host"] not in topology.host_by_name:
                raise ScenarioError(
                    f"{entry}: host {spec['host']!r} is not a host in topology {topology.name!r}"
                )
            ref = spec.get("tracker")
            try:
                _tracker_ref(compiled, ref)
            except DifcnetError as exc:
                raise ScenarioError(f"{entry}: tracker {ref!r}: {exc}") from None
            for key in ("includes", "excludes"):
                for name in spec.get(key, []):
                    if name not in compiled.registry.name_to_id:
                        raise ScenarioError(f"{entry}: {key}: unknown tag {name!r}")


def _state_check(compiled, name: str, state, missing: str, spec: dict):
    """The check of one expect.pids or expect.files entry against the
    agent's (label bits, tracker) `state`, or None with `missing` as the
    detail when the pid or file is not there."""
    if state is None:
        return name, False, missing
    bits, tracker = state
    problems = []
    for tag in spec.get("includes", []):
        if not bits & tag_bit(compiled.registry.lookup(tag)):
            problems.append(f"missing {tag}")
    for tag in spec.get("excludes", []):
        if bits & tag_bit(compiled.registry.lookup(tag)):
            problems.append(f"unexpected {tag}")
    detail = f"label={compiled.registry.format_label(bits)}"
    if problems:
        detail += f" ({'; '.join(problems)})"
    ok = not problems
    if "tracker" in spec:
        want = _tracker_ref(compiled, spec["tracker"])
        if tracker != want:
            ok = False
            detail += f" tracker={tracker}(want {want})"
    return name, ok, detail


def evaluate_expectations(net, compiled, expect: dict):
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
        have = net.external_delivered
        want = expect["external_delivered"]
        checks.append(
            ("external_delivered", have == want, f"have={have} want={want}")
        )

    for spec in expect.get("pids", []):
        host, pid = spec["host"], spec["pid"]  # a count, checked before the run
        state = net.agents[host].pids.get(pid)
        checks.append(_state_check(compiled, f"pid:{host}/{pid}", state, "pid not live", spec))

    for spec in expect.get("files", []):
        host, path = spec["host"], spec["path"]
        agent = net.agents[host]
        state = agent.files.get(agent.file_paths.get(path))
        checks.append(
            _state_check(compiled, f"file:{host}:{path}", state, "file does not exist", spec)
        )

    for needle in expect.get("trace_contains", []):
        found = any(needle in line for line in net.trace)
        checks.append((f"trace:{needle}", found, "present" if found else "absent"))

    return checks
