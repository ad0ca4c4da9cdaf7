"""Records the golden-scenario trace digests and the fingerprints of seeds
0-39 of every workload in bench/fingerprints.json, which every benchmark
run checks against.

    python3 bench/record.py

A fingerprint is one traced repetition's deterministic counts. Re-record
only for a change that alters behaviour on purpose, and say why in
CHANGES.md; a change meant to be speed-only must leave this file alone.
"""

from __future__ import annotations

import sys

from run import ROOT, WORKLOAD_NAMES, import_program, run_rep

SEEDS = range(40)


def main() -> int:
    error = import_program()
    if error:
        print(f"record: {error}", file=sys.stderr)
        return 2

    from checks import golden_traces, load_store, normalise, save_store
    from workloads import WORKLOADS

    store = load_store()
    for name, (checks, digest) in golden_traces(ROOT).items():
        failed = [c for c in checks if not c[1]]
        if failed:
            print(f"record: {name} fails its expectations: {failed}", file=sys.stderr)
            return 1
        store["golden"][name] = digest
    for workload_name in WORKLOAD_NAMES:
        runs = {}
        for seed in SEEDS:
            workload = WORKLOADS[workload_name](ROOT, seed)
            rep, meter, tracer = run_rep(workload, traced=True)
            if rep.failures:
                print(f"record: {workload_name} seed {seed} fails its checks: {rep.failures[:3]}",
                      file=sys.stderr)
                return 1
            runs[str(seed)] = normalise(
                {**meter.totals(), **rep.fingerprint, "by_source": tracer.summary()["by_source"]}
            )
            print(f"{workload_name} seed {seed}: recorded", flush=True)
        store["runs"][workload_name] = runs
    save_store(store)
    return 0


if __name__ == "__main__":
    sys.exit(main())
