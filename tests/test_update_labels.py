"""Labels follow a policy update. A network built from a policy's first
version and updated, mid-run, to each later version behaves after each
update like a fresh network built from that version: a pid spawned on each
host, reading the files the version newly tracks, gets the same label and
tracker, and a flow from each host to each other host is delivered and
dropped the same. Pids spawned before an update keep their state, and the
hosts that log `label-init` at an update are exactly those whose init
packet the update's plan adds or removes, plus those with newly tracked
files."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from difcnet.netcl import compile_program, parse
from difcnet.sim import Network
from tests.conftest import make_split

MS = 1_000_000
ROUND_NS = 1_000 * MS  # an update every round, long after the last round's flows
TOPO = make_split()
HOSTS = tuple(h.name for h in TOPO.hosts)  # A, B, C
TAGS = ("T0", "T1", "T2", "T3")
FILES = ("/a", "/b")
# the same rules in every version, so only the labels tell versions apart; a
# rule on a labelled source matches the source's label
RULES = """\
if match(pkt_label contains T0 && dst_ip==B) then drop
if match(src_ip==A && dst_ip==C) then allow
if match(pkt_label contains T1 && dst_ip==A) then allow
if match(pkt_label contains T2 && dst_ip==C) then drop
if match(pkt_label contains T3) then allow
if match(src_ip==C && dst_ip==B) then allow
"""

# per host, a label_host's tags in the order written (None: no label_host)
# and the files it tracks
host_versions = st.tuples(
    st.none() | st.lists(st.sampled_from(TAGS), min_size=1, max_size=len(TAGS), unique=True),
    st.lists(st.sampled_from(FILES), max_size=len(FILES), unique=True),
)
versions = st.lists(st.tuples(*[host_versions] * len(HOSTS)), min_size=2, max_size=3)

# scenario4's relabel: the first host gains a tag, named ahead of the one it
# had, that its rule to the third host now asks for; the second keeps its two
# tags, and the third has no label_host
SCENARIO4_RELABEL = [
    ((["T0"], []), (["T1", "T2"], []), (None, [])),
    ((["T3", "T0"], []), (["T1", "T2"], []), (None, [])),
]


def version_text(version) -> str:
    lines = []
    for host, (tags, files) in zip(HOSTS, version):
        if tags:
            lines.append(f"label_host(ip={host}, label={{{', '.join(tags)}}})")
        lines += [f"label_file(ip={host}, file={path})" for path in files]
    return "\n".join([*lines, RULES])


def run_round(net: Network, k: int, at: int, new_files) -> tuple[dict, dict]:
    """Round `k` of the script, from time `at`: pid 100(k+1)+i on host i
    reads each of its new files, then each pid sends a flow to each other
    host's pid. Returns ({(host, pid): (bits, tracker)}, {flow id:
    (delivered, dropped)}) once the network is idle."""
    pid = {host: 100 * (k + 1) + i for i, host in enumerate(HOSTS)}
    for host in HOSTS:
        agent = net.agents[host]
        agent.spawn(pid[host], now_ns=at)
        for name, path in new_files:
            if name == host:
                agent.read(pid[host], agent.inode_of(path), now_ns=at)
    flows = {}
    for i, src in enumerate(HOSTS):
        for j, dst in enumerate(HOSTS):
            if src != dst:
                flows[f"{k}:{src}>{dst}"] = net.send_flow(
                    flow_id=f"{k}:{src}>{dst}", src=src, dst=dst, at_ns=at + MS,
                    src_port=41000 + 10 * k + 3 * i + j, pid=pid[src], accept_pid=pid[dst],
                )
    net.run()
    return (
        {(host, pid[host]): net.agents[host].pids[pid[host]] for host in HOSTS},
        {fid: (rec.delivered, rec.dropped) for fid, rec in flows.items()},
    )


def agent_states(net: Network) -> dict:
    return {
        name: (dict(a.pids), dict(a.in_labels), dict(a.udp_sent))
        for name, a in net.agents.items()
    }


@settings(max_examples=150, deadline=None)
@given(versions)
@example(SCENARIO4_RELABEL)
def test_an_updated_network_labels_its_agents_like_a_fresh_one(drawn):
    compiled = []
    for version in drawn:
        previous = compiled[-1] if compiled else None
        compiled.append(compile_program(parse(version_text(version)), TOPO, previous))
    net = Network(TOPO, compiled[0])
    for k, version in enumerate(compiled):
        at = k * ROUND_NS
        tracked = compiled[k - 1].file_trackers if k else {}
        new_files = sorted(set(version.file_trackers) - set(tracked))
        if k:
            before, mark, plans = agent_states(net), len(net.trace), []
            net.schedule_call(at, "policy-update", lambda v=version: plans.append(net.apply_update(v)))
            net.run()
            assert agent_states(net) == before  # live and exited pids keep their state
            lines = net.trace[mark:]
            assert lines[0] == f"t={at} policy-update"
            assert all(line.startswith(f"t={at} ") for line in lines)
            inits = {line.split()[2].removeprefix("host=") for line in lines if " label-init " in line}
            relabelled = {
                TOPO.host_by_ip[item[0]].name
                for update in plans[0].per_switch.values()
                for item in (*update.adds, *update.removes) if isinstance(item, tuple)
            }
            assert inits == relabelled | {name for name, _ in new_files}
        fresh = Network(TOPO, version)
        assert run_round(net, k, at, new_files) == run_round(fresh, k, 0, new_files)
