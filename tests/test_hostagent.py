"""Host agent state machine: process and file labels, tracker adoption,
outgoing header stamping, incoming label buckets, and reboots."""

import pytest

from difcnet.errors import (
    PidReuseViolation,
    UnknownEntry,
    UnknownInode,
)
from difcnet.header import DifcHeader, FlowKey
from difcnet.hostagent import FIRST_AUTO_INODE, HostAgent, SeqSource
from difcnet.labels import Label, tag_bit
from difcnet.packets import PROTO_ICMP, PROTO_TCP, PROTO_UDP, SimPacket, TcpFlags

S = tag_bit(0)
T = tag_bit(1)


def agent(label=S, files=()):
    a = HostAgent("H", "10.0.0.1")
    a.initialize(Label(label), files)
    return a


def tcp_syn(sport=41000, dst="10.0.0.2", dport=80):
    return SimPacket(
        src_ip="10.0.0.1", dst_ip=dst, src_port=sport, dst_port=dport,
        protocol=PROTO_TCP, tcp_flags=TcpFlags.SYN,
    )


def tcp_data(sport=41000, dst="10.0.0.2", dport=80):
    return SimPacket(
        src_ip="10.0.0.1", dst_ip=dst, src_port=sport, dst_port=dport,
        protocol=PROTO_TCP, tcp_flags=TcpFlags.ACK, seq=1,
    )


def udp_pkt(sport=41000, dst="10.0.0.2", dport=53):
    return SimPacket(
        src_ip="10.0.0.1", dst_ip=dst, src_port=sport, dst_port=dport,
        protocol=PROTO_UDP,
    )


# -- lifecycle -------------------------------------------------------------


def test_spawn_inherits_host_label_and_caps():
    a = agent()
    a.spawn(100)
    assert a.pids[100] == (S, 0)


def test_pid_reuse_rejected_until_exit():
    a = agent()
    a.spawn(100)
    with pytest.raises(PidReuseViolation):
        a.spawn(100)
    a.exit(100)
    a.spawn(100)  # new incarnation is fine


def test_exit_unknown_pid():
    with pytest.raises(UnknownEntry):
        agent().exit(4)


# -- files -----------------------------------------------------------------


def test_initialize_binds_files_with_host_label_and_tracker():
    a = agent(files=(("/srv/f", 7),))
    inode = a.inode_of("/srv/f")
    assert inode == FIRST_AUTO_INODE
    assert a.files[inode] == (S, 7)


def test_read_merges_file_label_and_adopts_tracker():
    a = agent(files=(("/srv/f", 7),))
    a.spawn(100)
    a.read(100, a.inode_of("/srv/f"))
    assert a.pids[100] == (S, 7)


def test_read_of_untracked_file_keeps_tracker():
    a = agent(files=(("/srv/f", 7), ("/srv/plain", 0)))
    a.spawn(100)
    a.read(100, a.inode_of("/srv/f"))
    # reading a tracker-less file must not zero an adopted tracker
    a.read(100, a.inode_of("/srv/plain"))
    assert a.pids[100] == (S, 7)


def test_write_merges_pid_label_and_overwrites_tracker():
    a = agent(files=(("/srv/f", 7), ("/srv/out", 0)))
    a.spawn(100)
    a.read(100, a.inode_of("/srv/f"))
    out = a.inode_of("/srv/out")
    a.write(100, out)
    assert a.files[out] == (S, 7)


def test_create_carries_label_and_tracker():
    a = agent(files=(("/srv/f", 3),))
    a.spawn(100)
    a.read(100, a.inode_of("/srv/f"))
    inode = a.create(100, "/tmp/copy")
    assert inode == FIRST_AUTO_INODE + 1
    assert a.files[inode] == (S, 3)


def test_unknown_paths_and_inodes():
    a = agent()
    a.spawn(100)
    with pytest.raises(UnknownInode):
        a.inode_of("/ghost")
    with pytest.raises(UnknownInode):
        a.read(100, 424242)


# -- outgoing labeling -----------------------------------------------------


def test_tcp_syn_carries_header_data_does_not():
    a = agent()
    a.spawn(100)
    syn = a.label_outgoing(100, tcp_syn())
    assert syn.evil_bit and syn.difc.bits == S
    data = a.label_outgoing(100, tcp_data())
    assert not data.evil_bit and data.difc is None


def test_unlabeled_pid_sends_bare_syn():
    a = agent(label=0)
    a.spawn(100)
    syn = a.label_outgoing(100, tcp_syn())
    assert not syn.evil_bit


def test_tracker_alone_forces_header():
    a = agent(label=0, files=(("/srv/f", 9),))
    a.spawn(100)
    a.read(100, a.inode_of("/srv/f"))
    syn = a.label_outgoing(100, tcp_syn())
    assert syn.evil_bit
    assert syn.difc.tracker_id == 9
    assert syn.difc.bits == 0


def test_icmp_always_labeled():
    a = agent()
    a.spawn(100)
    ping = SimPacket(
        src_ip="10.0.0.1", dst_ip="10.0.0.2", src_port=0, dst_port=0,
        protocol=PROTO_ICMP,
    )
    out = a.label_outgoing(100, ping)
    assert out.evil_bit


def test_udp_labels_prefix_until_acked():
    a = HostAgent("H", "10.0.0.1", udp_label_prefix=3)
    a.initialize(Label(S))
    a.spawn(100)
    sent = [a.label_outgoing(100, udp_pkt()) for _ in range(5)]
    assert [p.evil_bit for p in sent] == [True, True, True, False, False]
    # the ack arrives addressed back to us; its reverse is our flow key
    ack = SimPacket(
        src_ip="10.0.0.2", dst_ip="10.0.0.1", src_port=53, dst_port=41000,
        protocol=PROTO_UDP, label_ack=True,
    )
    a.deliver(ack)
    assert a.udp_sent[udp_pkt().flow_key] == 3  # the ack fills the count
    a2 = a.label_outgoing(100, udp_pkt(sport=41001))  # different flow: fresh budget
    assert a2.evil_bit


def test_udp_stops_early_after_ack():
    a = HostAgent("H", "10.0.0.1", udp_label_prefix=3)
    a.initialize(Label(S))
    a.spawn(100)
    assert a.label_outgoing(100, udp_pkt()).evil_bit
    ack = SimPacket(
        src_ip="10.0.0.2", dst_ip="10.0.0.1", src_port=53, dst_port=41000,
        protocol=PROTO_UDP, label_ack=True,
    )
    a.deliver(ack)
    assert not a.label_outgoing(100, udp_pkt()).evil_bit


def test_label_outgoing_requires_live_pid():
    with pytest.raises(UnknownEntry):
        agent().label_outgoing(5, tcp_syn())


# -- incoming labels -------------------------------------------------------


def _labeled_arrival(a, bits, tracker=0, sport=5000):
    pkt = SimPacket(
        src_ip="10.0.0.9", dst_ip=a.ip, src_port=sport, dst_port=80,
        protocol=PROTO_TCP, tcp_flags=TcpFlags.SYN,
        difc=DifcHeader(bits, tracker),
    )
    a.deliver(pkt)
    return pkt.flow_key


def test_deliver_accumulates_then_accept_merges():
    a = agent(label=0)
    a.spawn(100)
    key = _labeled_arrival(a, S)
    _labeled_arrival(a, T, tracker=4)
    assert a.in_labels[key] == (S | T, 4)
    a.accept(100, key)
    assert a.pids[100] == (S | T, 4)
    assert key not in a.in_labels
    with pytest.raises(UnknownEntry):
        a.accept(100, key)  # bucket is consumed


def test_bare_delivery_leaves_no_bucket():
    a = agent(label=0)
    pkt = tcp_data(dst=a.ip)
    a.deliver(pkt)
    assert not a.in_labels


def test_accept_unknown_flow():
    a = agent()
    a.spawn(100)
    with pytest.raises(UnknownEntry):
        a.accept(100, FlowKey("1.2.3.4", 1, "5.6.7.8", 2, 6))


# -- persistence -----------------------------------------------------------


def _populated_agent():
    """An agent with something in every part of its state: a bound and a
    created file, a live process that read a tracked file, a pending label
    bucket, a UDP label count and an acknowledged UDP flow."""
    a = agent(label=S, files=(("/srv/f", 7),))
    a.spawn(100)
    a.read(100, a.inode_of("/srv/f"))
    a.create(100, "/tmp/copy")
    _labeled_arrival(a, T)
    a.label_outgoing(100, udp_pkt())
    a.deliver(SimPacket(
        src_ip="10.0.0.3", dst_ip="10.0.0.1", src_port=53, dst_port=41002,
        protocol=PROTO_UDP, label_ack=True,
    ))
    return a


def test_reboot_preserves_files_clears_processes():
    a = _populated_agent()
    files = dict(a.files)
    paths = dict(a.file_paths)
    assert a.pids == {100: (S, 7)} and a.in_labels
    assert len(a.udp_sent) == 2  # one flow sent on, one acknowledged
    a.reboot(now_ns=5)
    # file labels, trackers and paths and the host label persist on disk
    assert a.files == files
    assert a.file_paths == paths
    assert a.host_label == S
    # process, flow and UDP state never survives
    assert not a.pids and not a.in_labels and not a.udp_sent
    assert [(e.kind, e.time_ns) for e in a.events[-2:]] == [("restore", 5), ("reboot", 5)]
    a.spawn(100)  # the old incarnation is gone
    inode = a.create(100, "/tmp/new")
    assert inode not in files  # no collision with the kept inodes
    assert a.files[inode] == (S, 0)


# -- event stream ----------------------------------------------------------


def test_shared_seq_source_gives_total_order():
    src = SeqSource()
    a = HostAgent("HA", "10.0.0.1", seq_source=src)
    b = HostAgent("HB", "10.0.0.2", seq_source=src)
    a.initialize(Label(S))
    b.initialize(Label(T))
    a.spawn(1)
    b.spawn(1)
    a.spawn(2)
    seqs = sorted(e.seq for e in a.events + b.events)
    assert seqs == list(range(1, len(seqs) + 1))


def test_events_carry_labels():
    a = agent()
    a.spawn(100)
    spawn_ev = [e for e in a.events if e.kind == "spawn"][0]
    assert spawn_ev.pid == 100
    assert spawn_ev.label_bits == S
    assert spawn_ev.host == "H"
