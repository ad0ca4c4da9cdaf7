"""Run metering and the traced mode's spans and counters.

Everything here wraps difcnet's public entry points from the outside, by
replacing attributes on its classes and modules for the duration of a
repetition and restoring them afterwards. Nothing under src/ knows it is
being measured.

RunMeter is installed in every mode: it times each Network.run call and
reads the run's packet, event and trace-line totals. Tracer is installed
only in traced repetitions: it records one span per call of a wrapped
entry point (name, start, end, parent, packet id) and counts the hottest
constructors, which are too frequent to span.
"""

from __future__ import annotations

import gzip
import statistics
import time
from array import array
from collections import Counter, defaultdict

import difcnet.controlplane as controlplane
import difcnet.dataplane as dataplane
import difcnet.header as header
import difcnet.hostagent as hostagent
import difcnet.labels as labels
import difcnet.netcl as netcl
import difcnet.netcl.parser as netcl_parser
import difcnet.packets as packets
import difcnet.provenance as provenance
import difcnet.routes as routes
import difcnet.scenario as scenario
import difcnet.sim as sim
import difcnet.topology as topology

# Decision sources reported per packet. The pipeline's recirc_limit drops
# are the last step of recirculation and are bucketed with it.
SOURCES = ("conn_dec", "buffer", "policy", "transit", "control", "rate", "recirc")
_SOURCE_BUCKET = {s: s for s in SOURCES}
_SOURCE_BUCKET["recirc_limit"] = "recirc"

HOSTAGENT_OPS = ("spawn", "exit", "read", "write", "create", "accept", "reboot")

_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 75.0)

# Route admission makes ~730k admit calls per analysis repetition, too many
# to span; every call is counted and every ROUTES_STRIDE-th is timed.
ROUTES_STRIDE = 8


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (p50 when the
    sample is too small for any higher one)."""
    for pct in _PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def fastest_total(parts_per_rep: list[list[float]]) -> float:
    """Sum over chunks of work of the fastest repetition's time for each.

    Repetitions replay identical work, chunk by chunk, so chunk i is the
    same computation in every repetition and its fastest time is the one
    least disturbed by other load on the machine."""
    if len({len(parts) for parts in parts_per_rep}) != 1:
        raise RuntimeError("repetitions timed different numbers of chunks")
    return sum(min(chunk) for chunk in zip(*parts_per_rep))


def _swap(patches: list, owner, attr: str, replacement) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def _restore(patches: list) -> None:
    while patches:
        owner, attr, original = patches.pop()
        setattr(owner, attr, original)


class RunMeter:
    """Times every Network.run call and, on exit, totals what the runs
    did. A workload calls run() in a fixed sequence of simulated-time
    slices, so call i covers the same work in every repetition."""

    def __init__(self) -> None:
        self.calls: list[float] = []
        self._nets: dict[int, object] = {}
        self._patches: list = []

    def __enter__(self) -> RunMeter:
        original = sim.Network.run

        def run(net, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(net, *args, **kwargs)
            finally:
                self.calls.append(time.perf_counter() - t0)
                self._nets[id(net)] = net

        _swap(self._patches, sim.Network, "run", run)
        return self

    def __exit__(self, *exc) -> None:
        _restore(self._patches)
        nets = list(self._nets.values())
        self._nets = {}
        self.seconds = sum(self.calls)
        self.sent = sum(rec.sent for net in nets for rec in net.flows.values())
        # the simulator exposes no event counter; _evseq counts every heap
        # push, and each workload runs its networks to completion
        self.events = sum(net._evseq for net in nets)
        self.trace_lines = sum(len(net.trace) for net in nets)
        self.install_failures = sum(net.control.install_failures for net in nets)
        switches = [sw for net in nets for sw in net.switches.values()]
        self.evictions = sum(sw.buffer.evictions for sw in switches)
        self.entries_max = max(sw.config.entry_count() for sw in switches)
        self.conn_dec_max = max(len(sw.conn_dec) for sw in switches)

    def totals(self) -> dict:
        """The deterministic part, for the fingerprint."""
        return {
            "sim_sent": self.sent,
            "sim_events": self.events,
            "sim_run_calls": len(self.calls),
            "trace_lines": self.trace_lines,
            "evictions": self.evictions,
            "install_failures": self.install_failures,
            "entries_max": self.entries_max,
            "conn_dec_max": self.conn_dec_max,
        }


def _pkt_id(pkt) -> tuple:
    return (pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port, pkt.protocol, pkt.seq)


def _key_id(key) -> tuple:
    return (key.src_ip, key.src_port, key.dst_ip, key.dst_port, key.protocol, None)


class Tracer:
    """Spans and counters for one repetition. Spans are kept in memory as
    [name, start_ns, end_ns, parent_index, packet_id, tag] and summarised
    by summary(); run.py writes out the first traced repetition's spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_counts: Counter = Counter()  # the part made inside Network.run
        self.samples: dict[str, array] = {}  # durations (ns) of counted calls
        self._stack: list[int] = []
        self._patches: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, pkt_of=None, tag_of=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if pkt_of is not None:
                pkt = pkt_of(args)
            else:
                pkt = spans[parent][4] if parent >= 0 else None
            rec = [name, 0, 0, parent, pkt, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if tag_of is not None:
                rec[5] = tag_of(result)
            return result

        return wrapper

    def _count(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sampled(self, key: str, fn, stride: int = 1):
        """Counts every call and times every stride-th, without a span."""
        counts, clock = self.counts, time.perf_counter_ns
        samples = self.samples.setdefault(key, array("q"))

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if counts[key] % stride:
                return fn(*args, **kwargs)
            t0 = clock()
            result = fn(*args, **kwargs)
            samples.append(clock() - t0)
            return result

        return wrapper

    def _admit_factory(self, name: str, factory):
        def make(*args, **kwargs):
            return self._sampled(name, factory(*args, **kwargs), ROUTES_STRIDE)

        return make

    def __enter__(self) -> Tracer:
        p = self._patches
        span = self._span
        # hottest calls: counted (and crc32 timed), never spanned
        for cls, key in (
            (labels.Label, "labels.label"),
            (packets.SimPacket, "packets.simpacket"),
            (header.FlowKey, "header.flowkey"),
        ):
            _swap(p, cls, "__init__", self._count(key, cls.__init__))
        _swap(p, header.FlowKey, "crc32", self._sampled("header.crc32", header.FlowKey.crc32))

        counts = self.counts
        run_span = span("sim.run", sim.Network.run)
        run_counts = self.run_counts

        def run(net, *args, **kwargs):
            before = Counter(counts)
            try:
                return run_span(net, *args, **kwargs)
            finally:
                run_counts.update(counts - before)

        _swap(p, sim.Network, "run", run)
        _swap(
            p, dataplane.Switch, "process_packet",
            span(
                "dataplane.packet", dataplane.Switch.process_packet,
                pkt_of=lambda a: _pkt_id(a[1]), tag_of=lambda r: r.decision_source,
            ),
        )
        # the switch calls these through dataplane's globals; routes
        # imported them by name, so its copies are wrapped separately
        _swap(p, dataplane, "match_policies", span("dataplane.match", dataplane.match_policies))
        _swap(p, dataplane, "apply_privileges",
              span("dataplane.privilege", dataplane.apply_privileges))
        _swap(p, routes, "match_policies",
              self._sampled("routes.match", routes.match_policies, ROUTES_STRIDE))
        _swap(p, routes, "apply_privileges",
              self._sampled("routes.privilege", routes.apply_privileges, ROUTES_STRIDE))
        _swap(p, routes, "make_policy_admit",
              self._admit_factory("routes.policy_admit", routes.make_policy_admit))
        _swap(p, routes, "make_firewall_admit",
              self._admit_factory("routes.firewall_admit", routes.make_firewall_admit))

        cp = controlplane.ControlPlane
        _swap(p, cp, "serve_conndec",
              span("controlplane.serve", cp.serve_conndec, pkt_of=lambda a: _key_id(a[1].key)))
        _swap(p, cp, "perform_install",
              span("controlplane.install", cp.perform_install,
                   pkt_of=lambda a: _key_id(a[2].key), tag_of=bool))
        _swap(p, cp, "apply_update",
              span("controlplane.update", cp.apply_update, tag_of=lambda plan: sum(plan.counts())))

        ha = hostagent.HostAgent
        _swap(p, ha, "label_outgoing",
              span("hostagent.outgoing", ha.label_outgoing, pkt_of=lambda a: _pkt_id(a[2])))
        _swap(p, ha, "deliver",
              span("hostagent.deliver", ha.deliver, pkt_of=lambda a: _pkt_id(a[1])))
        for op in HOSTAGENT_OPS:
            _swap(p, ha, op, span("hostagent.op", getattr(ha, op)))

        _swap(p, provenance, "backward_slice", span("provenance.slice", provenance.backward_slice))
        # parse is reached through the package (benchmark, coverage_report)
        # and through the parser module (parse_files, used by scenarios)
        for owner in (netcl, netcl_parser):
            _swap(p, owner, "parse", span("netcl.parse", owner.parse))
        for owner in (netcl, scenario):
            _swap(p, owner, "compile_program", span("netcl.compile", owner.compile_program))
        for owner in (topology, scenario):
            _swap(p, owner, "load_topology", span("topology.load", owner.load_topology))
        return self

    def __exit__(self, *exc) -> None:
        _restore(self._patches)

    # -- summary ----------------------------------------------------------

    def summary(self) -> dict:
        """Durations (ns) by span key, self time (ns) by span name within
        Network.run, and the rep's counts. Self time is a span's duration
        minus the durations of its direct children; spans nest strictly on
        one thread, and a parent is always recorded before its children."""
        durations: dict[str, list[int]] = defaultdict(list)
        self_ns: Counter = Counter()  # inside Network.run only
        child_ns = [0] * len(self.spans)
        in_run = [False] * len(self.spans)
        for i, (name, start, end, parent, _pkt, _tag) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
                in_run[i] = in_run[parent]
            if name == "sim.run":
                in_run[i] = True
        by_source: Counter = Counter()
        installs = 0
        plan_entries = 0
        for i, (name, start, end, _parent, _pkt, tag) in enumerate(self.spans):
            dur = end - start
            if in_run[i]:
                self_ns[name] += dur - child_ns[i]
            durations[name].append(dur)
            if name == "dataplane.packet":
                bucket = _SOURCE_BUCKET.get(tag, tag)
                by_source[bucket] += 1
                durations[f"dataplane.packet.{bucket}"].append(dur)
            elif name == "controlplane.install":
                installs += bool(tag)
            elif name == "controlplane.update":
                plan_entries += tag
        return {
            "durations": durations,
            "self_ns": self_ns,
            "by_source": dict(sorted(by_source.items())),
            "installs": installs,
            "plan_entries": plan_entries,
            "counts": dict(self.counts),
            "run_counts": dict(self.run_counts),
            "samples": self.samples,
        }

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\tpacket\n")
            for i, (name, start, end, parent, pkt, _tag) in enumerate(self.spans):
                shown = "" if pkt is None else ":".join("" if x is None else str(x) for x in pkt)
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{shown}\n")


def timing(values_ns: list[int], scale: float) -> dict:
    """p50 and tail percentile of durations, converted by `scale` (ns per
    reported unit), with the sample count. Empty input reports zeros."""
    n = len(values_ns)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": None, "n": 0}
    pct = tail_percentile(n)
    return {
        "p50": percentile(values_ns, 50.0) / scale,
        "tail": percentile(values_ns, pct) / scale,
        "tail_pct": pct,
        "n": n,
    }


def layer_metrics(traced: list, untraced_meters: list) -> dict:
    """Per-layer metrics from the traced repetitions, each given as
    (rep, meter, summary). Counts come from the first (they repeat
    exactly); per-repetition totals are medians; timings pool every
    sample. Returns name -> (value, unit, note)."""
    rep0, m0, s0 = traced[0]
    sent = m0.sent
    pool: dict[str, list[int]] = defaultdict(list)
    for _, _, s in traced:
        for key, values in (*s["durations"].items(), *s["samples"].items()):
            pool[key].extend(values)
    out: dict[str, tuple] = {}

    def count(name, value, unit):
        out[name] = (value, unit, "deterministic")

    def per_rep(name, fn, unit):
        values = [fn(r, m, s) for r, m, s in traced]
        out[name] = (statistics.median(values), unit, f"median of {len(values)} repetitions")

    def times(name, samples, scale, unit, tail=True):
        t = timing(samples, scale)
        empty = "no samples: not exercised by this workload"
        out[f"{name}.p50"] = (t["p50"], unit, f"p50 of n={t['n']}" if t["n"] else empty)
        if tail:
            out[f"{name}.tail"] = (t["tail"], unit, f"p{t['tail_pct']} of n={t['n']}" if t["n"] else empty)

    def self_us_per_pkt(layer):
        return lambda r, m, s: sum(
            v for k, v in s["self_ns"].items() if k.startswith(layer + ".")
        ) / m.sent / 1e3

    def total_ms(key):
        return lambda r, m, s: sum(s["durations"].get(key, ())) / 1e6

    run_counts = s0["run_counts"]
    count("sim.events_per_pkt", m0.events / sent, "events/pkt")
    per_rep("sim.self_us_per_pkt", self_us_per_pkt("sim"), "us/pkt")
    count("sim.trace_lines_per_pkt", m0.trace_lines / sent, "lines/pkt")
    count("packets.simpacket_per_pkt", run_counts.get("packets.simpacket", 0) / sent, "count/pkt")
    count("header.flowkey_per_pkt", run_counts.get("header.flowkey", 0) / sent, "count/pkt")
    count("header.crc32_per_pkt", run_counts.get("header.crc32", 0) / sent, "count/pkt")
    times("header.crc32_us", pool["header.crc32"], 1e3, "us")
    count("labels.label_per_pkt", run_counts.get("labels.label", 0) / sent, "count/pkt")

    decided = sum(s0["by_source"].values())
    for src in SOURCES:
        times(f"dataplane.pkt_us.{src}", pool.get(f"dataplane.packet.{src}", []), 1e3, "us")
        count(f"dataplane.share.{src}", s0["by_source"].get(src, 0) / decided, "ratio")
    times("dataplane.match_us", pool.get("dataplane.match", []), 1e3, "us")
    times("dataplane.privilege_us", pool.get("dataplane.privilege", []), 1e3, "us", tail=False)
    count("dataplane.entries_max", m0.entries_max, "count")
    count("dataplane.evictions", m0.evictions, "count")
    count("dataplane.recirc_share", s0["by_source"].get("recirc", 0) / sent, "ratio")
    count("dataplane.conn_dec_max", m0.conn_dec_max, "count")
    per_rep("dataplane.self_us_per_pkt", self_us_per_pkt("dataplane"), "us/pkt")

    times("controlplane.serve_us", pool.get("controlplane.serve", []), 1e3, "us", tail=False)
    times("controlplane.install_us", pool.get("controlplane.install", []), 1e3, "us", tail=False)
    count("controlplane.installs", s0["installs"], "count")
    count("controlplane.install_failures", m0.install_failures, "count")
    times("controlplane.update_ms", pool.get("controlplane.update", []), 1e6, "ms", tail=False)
    count("controlplane.plan_entries", s0["plan_entries"], "count")
    per_rep("controlplane.self_us_per_pkt", self_us_per_pkt("controlplane"), "us/pkt")

    times("hostagent.outgoing_us", pool.get("hostagent.outgoing", []), 1e3, "us", tail=False)
    times("hostagent.deliver_us", pool.get("hostagent.deliver", []), 1e3, "us", tail=False)
    times("hostagent.op_us", pool.get("hostagent.op", []), 1e3, "us", tail=False)
    count("hostagent.events", rep0.fingerprint["agent_events"], "count")
    per_rep("hostagent.self_us_per_pkt", self_us_per_pkt("hostagent"), "us/pkt")

    per_rep("netcl.parse_ms", total_ms("netcl.parse"), "ms")
    per_rep("netcl.compile_ms", total_ms("netcl.compile"), "ms")
    per_rep("topology.load_ms", total_ms("topology.load"), "ms")

    counts0 = s0["counts"]
    count(
        "routes.admit_calls",
        counts0.get("routes.policy_admit", 0) + counts0.get("routes.firewall_admit", 0),
        "count",
    )
    times("routes.policy_admit_us", pool.get("routes.policy_admit", []), 1e3, "us", tail=False)
    times("routes.firewall_admit_us", pool.get("routes.firewall_admit", []), 1e3, "us", tail=False)
    times("routes.match_us", pool.get("routes.match", []), 1e3, "us", tail=False)

    times("provenance.slice_ms", pool.get("provenance.slice", []), 1e6, "ms")
    count("provenance.events", rep0.fingerprint["agent_events"], "count")

    untraced = sent / fastest_total([m.calls for m in untraced_meters])
    traced_rate = sent / fastest_total([m.calls for _, m, _ in traced])
    out["tracing.untraced_pkts_per_s"] = (untraced, "packets/s", f"{len(untraced_meters)} untraced repetitions")
    out["tracing.traced_pkts_per_s"] = (traced_rate, "packets/s", f"{len(traced)} traced repetitions")
    out["tracing.overhead"] = (1.0 - traced_rate / untraced, "ratio", "share of sim_pkts_per_s lost to tracing")
    return out
