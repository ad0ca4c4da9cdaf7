"""The benchmark's meter and tracer (bench/tracing.py) wrap simulator names
from outside, by replacing attributes of difcnet's classes and modules for
the length of a run. A small traced run here makes a change under src/ that
removes or reshapes a wrapped name fail in the unit tests, not only in the
benchmark."""

from bench.tracing import RunMeter, Tracer

from difcnet.netcl import compile_program, parse
from difcnet.sim import Network, SimParams
from tests.conftest import make_lan

MS = 1_000_000
POLICY = """\
label_host(ip=A, label={TA})
if match(pkt_label contains TA && dst_ip==C) then allow
"""


def test_a_traced_run_counts_the_label_ack_and_restores_every_patch():
    originals = {}  # (owner, attr) -> the value before either wrapper
    with RunMeter() as meter, Tracer() as tracer:
        for owner, attr, original in (*meter._patches, *tracer._patches):
            originals.setdefault((owner, attr), original)
            assert getattr(owner, attr) is not original, (owner, attr)
        topo = make_lan()
        net = Network(topo, compile_program(parse(POLICY), topo), SimParams())
        net.agents["A"].spawn(100)
        rec = net.send_flow(flow_id="u", src="A", dst="C", at_ns=MS, pid=100,
                            protocol="udp", dst_port=53, packets=5)
        net.run()
    assert (rec.sent, rec.delivered) == (5, 5)
    assert meter.totals()["sim_sent"] == 5
    # the two labelled packets are classified at S2, each makes a label ack
    # there, and each ack takes one hop through S2 back to A
    acks = [line for line in net.trace if " S2 label-ack " in line]
    assert len(acks) == 2
    assert tracer.summary()["by_source"] == {"policy": 2, "control": 2, "buffer": 3}
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, (owner, attr)
