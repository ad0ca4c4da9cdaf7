"""Golden-scenario gate, recorded fingerprints and run environment."""

from __future__ import annotations

import hashlib
import json
import os
import platform
from pathlib import Path

import difcnet.scenario as scenario

from workloads import GOLDEN_SCENARIOS

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"


def normalise(value):
    """The JSON form of a fingerprint, so live and recorded values compare
    equal (tuples become lists, keys become strings)."""
    return json.loads(json.dumps(value, sort_keys=True))


def load_store() -> dict:
    if not FINGERPRINTS.is_file():
        return {"golden": {}, "runs": {}}
    return json.loads(FINGERPRINTS.read_text())


def save_store(store: dict) -> None:
    """One line per golden digest and per (workload, seed) fingerprint, so
    a re-recording diffs line by line."""
    def block(items: dict, depth: int, inner) -> str:
        pad = "  " * (depth + 1)
        body = ",\n".join(f"{pad}{json.dumps(k)}: {inner(v)}" for k, v in items.items())
        return "{\n" + body + "\n" + "  " * depth + "}"

    def line(value) -> str:
        return json.dumps(value, sort_keys=True)

    runs = {w: block(seeds, 2, line) for w, seeds in sorted(store["runs"].items())}
    text = block({"golden": block(store["golden"], 1, line), "runs": block(runs, 1, str)}, 0, str)
    FINGERPRINTS.write_text(text + "\n")


def golden_traces(root: Path) -> dict[str, tuple[list, str]]:
    """Runs scenario1-3 through load_scenario/run_scenario; returns each
    scenario's expectation checks and the sha256 of its trace."""
    out = {}
    for name in GOLDEN_SCENARIOS:
        res = scenario.run_scenario(scenario.load_scenario(root / "scenarios" / f"{name}.yaml"))
        out[name] = (res.checks, hashlib.sha256(res.trace.encode()).hexdigest())
    return out


def golden_gate(root: Path, recorded: dict, check) -> None:
    """Every expectation passes and every trace matches its recorded
    digest; each is one checked operation."""
    for name, (checks, digest) in golden_traces(root).items():
        for check_name, ok, detail in checks:
            check(ok, f"{name} {check_name}: {detail}")
        check(digest == recorded.get(name), f"{name} trace sha256 {digest} != recorded")


def _git_sha(root: Path) -> str:
    """HEAD's commit from the .git directory, without running git; the
    benchmark may run from an export that has none."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": os.cpu_count(),
        "git_sha": _git_sha(root),
        "src_digest": src_digest(root),
    }
