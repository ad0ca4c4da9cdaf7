"""difcnet benchmark: one seeded workload per process.

    python3 bench/run.py --workload fastpath --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from src/ next to this
directory. The workload draws every input from --seed before timing, runs
the golden-scenario gate, makes one warm-up repetition, then repeats the
workload on fresh objects: a fixed number of measured repetitions, and
after them unmeasured ones until --seconds have passed, so --seconds is a
floor on the run's length. Every repetition's outputs are checked and its
fingerprint compared with the recorded one (or, for an unrecorded seed,
with the warm-up's).

--trace 0 reports the end-to-end metrics. Each time in them is the sum,
over fixed chunks of work, of the fastest measured repetition's time for
the chunk. --trace 1 alternates traced and untraced measured repetitions
and reports the per-layer metrics and the tracing overhead; the first
traced repetition's spans go to bench/out/. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("fastpath", "churn", "analysis")
# Measured repetitions per run. A constant, so the minimum per chunk is
# always taken over the same number of samples, however fast the build.
TIMED_REPS = 24
# traced mode: this many traced and as many untraced repetitions
TRACED_PAIRS = 3


def import_program() -> str | None:
    """Puts src/ first on the path; returns an error message when the
    program is not there."""
    package = ROOT / "src" / "difcnet"
    if not (package / "__init__.py").is_file():
        return f"no difcnet sources under {ROOT / 'src'}; run from a full checkout"
    sys.path.insert(0, str(ROOT / "src"))
    import difcnet

    if Path(difcnet.__file__).resolve().parent != package.resolve():
        return f"imported difcnet from {difcnet.__file__}, not from {package}"
    return None


def run_rep(workload, traced: bool):
    from tracing import RunMeter, Tracer

    with RunMeter() as meter:
        if traced:
            with Tracer() as tracer:
                rep = workload.rep()
        else:
            tracer = None
            rep = workload.rep()
    return rep, meter, tracer


def _end_to_end(reps: list) -> dict:
    """Each time is the sum over chunks of work of the fastest
    repetition's time for that chunk (see tracing.fastest_total)."""
    from tracing import fastest_total

    rep0, meter0 = reps[0]
    return {
        "setup_s": (fastest_total([r.setup_parts for r, _ in reps]), "s"),
        "sim_pkts_per_s": (meter0.sent / fastest_total([m.calls for _, m in reps]), "packets/s"),
        "routes_per_s": (rep0.routes / fastest_total([r.route_parts for r, _ in reps]), "routes/s"),
        "slices_per_s": (
            len(rep0.slice_parts) / fastest_total([r.slice_parts for r, _ in reps]), "slices/s"
        ),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    error = import_program()
    if error:
        print(f"bench: {error}", file=sys.stderr)
        return 2

    from checks import environment, golden_gate, load_store, normalise
    from tracing import layer_metrics
    from workloads import WORKLOADS, Checks

    env = environment(ROOT)
    store = load_store()
    recorded = store["runs"].get(args.workload, {}).get(str(args.seed))
    reference = dict(recorded or {})
    ops = Checks()

    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    golden_gate(ROOT, store["golden"], ops.check)
    prepare_s = time.perf_counter() - t0

    def check_fingerprint(rep, meter, summary) -> dict:
        live = {**meter.totals(), **rep.fingerprint}
        if summary is not None:
            live["by_source"] = summary["by_source"]
        live = normalise(live)
        for key, value in live.items():
            reference.setdefault(key, value)
        differ = [k for k in live if reference[k] != live[k]]
        ops.check(not differ, f"fingerprint differs from the {'recorded' if recorded else 'first'} one in {differ}")
        return live

    # warm-up: fills caches and lazy state; checked, not measured
    rep, meter, _ = run_rep(workload, traced=False)
    ops.add(rep)
    fingerprint = check_fingerprint(rep, meter, None)

    # the workload's inputs live for the whole run; keep the collector
    # from re-scanning them during every repetition
    gc.collect()
    gc.freeze()

    untraced: list = []
    traced: list = []
    mode = "traced" if args.trace else "timed"
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-{mode}"
    measured = 2 * TRACED_PAIRS if args.trace else TIMED_REPS
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < measured or time.perf_counter() < deadline:
        is_traced = args.trace == 1 and i < measured and i % 2 == 0
        rep, meter, tracer = run_rep(workload, traced=is_traced)
        ops.add(rep)
        summary = tracer.summary() if tracer is not None else None
        live = check_fingerprint(rep, meter, summary)
        i += 1
        if i > measured:
            continue  # past the measured ones: checked, not timed
        if is_traced:
            if not traced:
                # written now and dropped: a run-long span list would slow
                # every later repetition's garbage collection
                tracer.write_spans(stem.with_suffix(".spans.tsv.gz"))
            fingerprint = live
            traced.append((rep, meter, summary))
        else:
            untraced.append((rep, meter))

    if args.trace:
        metrics = layer_metrics(traced, [m for _, m in untraced])
    else:
        metrics = {name: (v, unit, f"fastest per chunk over {len(untraced)} repetitions")
                   for name, (v, unit) in _end_to_end(untraced).items()}
        metrics["peak_rss_mb"] = metrics["peak_rss_mb"][:2] + ("whole process",)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": mode,
        "seconds": args.seconds,
        "prepare_s": prepare_s,
        "repetitions": {"untraced": len(untraced), "traced": len(traced), "unmeasured": i - measured},
        "per_repetition": [
            {"setup_s": sum(r.setup_parts), "sim_pkts_per_s": m.sent / m.seconds,
             "routes_per_s": r.routes / sum(r.route_parts),
             "slices_per_s": len(r.slice_parts) / sum(r.slice_parts)}
            for r, m in untraced
        ],
        "environment": env,
        "fingerprint_recorded": recorded is not None,
        "fingerprint": fingerprint,
        "metrics": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in metrics.items()},
        "failures": ops.failures[:50],
    }
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1) + "\n")

    print(
        f"# difcnet bench workload={args.workload} seed={args.seed} mode={mode} "
        f"measured={len(untraced)}+{len(traced)} (untraced+traced) unmeasured={i - measured} python={env['python']} "
        f"cpus={env['cpus']} git={env['git_sha'][:12]} src={env['src_digest']}"
    )
    print(f"# fingerprint compared with {'the recorded one' if recorded else 'the first repetition (seed not recorded)'}")
    for what in ops.failures[:10]:
        print(f"# FAILED {what}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    measured = {name: unit for name, (_, unit, _) in metrics.items()}
    if measured != declared:
        print(f"bench: metrics differ from BENCHMARK.json: {sorted(set(measured.items()) ^ set(declared.items()))}",
              file=sys.stderr)
        return 3
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
