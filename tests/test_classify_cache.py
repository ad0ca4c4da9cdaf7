"""A switch classifies an initial packet once per (original label bits,
tracker id, source, destination) and config, and serves repeats of that key
from its classification cache. The oracle is the uncached pair
`apply_privileges` + `match_policies`, and a fresh switch, whose cache is
empty, for the pipeline result. Counters must show a miss exactly for each
key first seen since the last `set_config`."""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from difcnet import dataplane
from difcnet.dataplane import SimParams, Switch, apply_privileges, match_policies
from difcnet.labels import tag_bit
from difcnet.netcl import compile_program, parse
from difcnet.packets import PROTO_ICMP, PROTO_TCP, PROTO_UDP
from tests.conftest import make_lan
from tests.test_dataplane import _syn
from tests.test_first_match import IPS, TOPO, compile_lines, label_bits, policies

keys = st.tuples(label_bits, st.sampled_from([0, 1, 2, 3]), st.sampled_from(IPS), st.sampled_from(IPS))


@st.composite
def key_pools(draw):
    """One to four keys: a first key, then keys that each copy an earlier
    one with one field redrawn, so keys that differ in a single field are
    common."""
    pool = [draw(keys)]
    for _ in range(draw(st.integers(0, 3))):
        key = list(draw(st.sampled_from(pool)))
        i = draw(st.integers(0, 3))
        key[i] = draw(keys)[i]
        pool.append(tuple(key))
    return pool


PROTOS =[PROTO_TCP, PROTO_UDP, PROTO_ICMP]
NO_RATE_LIMIT = SimParams(rate_limit=1 << 30)


def initial_packet(key, proto, sport, labelled=True):
    bits, tracker, src, dst = key
    if not labelled:
        return _syn(src, dst, sport=sport, proto=proto)
    return _syn(src, dst, bits, sport=sport, tracker=tracker, proto=proto)


def uncached(config, key):
    bits, tracker, src, dst = key
    new_bits = apply_privileges(config.privilege_entries, bits, tracker, src, dst)
    return new_bits, match_policies(config, new_bits, tracker, src, dst)


def assert_same_result(got, want):
    assert got.verdict == want.verdict
    assert got.log == want.log
    assert got.egress_port == want.egress_port
    assert got.decision_source == want.decision_source
    assert got.install_requests == want.install_requests
    assert got.generated == want.generated


ops = st.one_of(
    st.tuples(st.just("swap"), st.integers(0, 1)),
    st.tuples(st.just("packet"), st.integers(0, 3), st.sampled_from(PROTOS)),
)


@settings(max_examples=150, deadline=None)
@given(
    policies(),
    policies(),
    key_pools(),
    st.lists(ops, min_size=1, max_size=40),
)
def test_cached_classification_equals_uncached(policy_a, policy_b, pool, steps):
    compiled = [compile_lines(labelings + body) for _, labelings, body in (policy_a, policy_b)]
    for sid in TOPO.switches:
        enforced = TOPO.enforced_ips(sid)
        config = compiled[0].configs[sid]
        sw = Switch(sid, TOPO, config, NO_RATE_LIMIT)
        seen: set = set()
        hits = misses = 0
        for n, step in enumerate(steps):
            if step[0] == "swap":
                config = compiled[step[1]].configs[sid]
                sw.set_config(config)
                seen.clear()
                continue
            key, proto = pool[step[1] % len(pool)], step[2]
            want_bits, want_entry = uncached(config, key)
            got_bits, got_entry = sw.classify(*key)
            assert got_bits == want_bits
            assert got_entry == want_entry
            if want_entry is not None:
                assert got_entry.source_line == want_entry.source_line
            misses += key not in seen
            hits += key in seen
            seen.add(key)

            # an unlabelled packet shares the key of a zero label and tracker
            labelled = proto == PROTO_UDP or key[:2] != (0, 0) or n % 2 == 0
            # each switch rewrites a packet of its own, compared afterwards
            pkt = initial_packet(key, proto, 40000 + n, labelled)
            ref = replace(pkt)
            fresh = Switch(sid, TOPO, config, NO_RATE_LIMIT)
            assert_same_result(sw.process_packet(pkt, n), fresh.process_packet(ref, n))
            assert pkt == ref
            if pkt.dst_ip in enforced:
                hits += 1
        assert (sw.classify_hits, sw.classify_misses) == (hits, misses)


LAN_ALLOW = "if match(dst_ip==C) then allow\n"
LAN_DROP = "if match(dst_ip==C) then drop\n"
A, B, C = "10.5.2.11", "10.5.2.12", "10.5.2.20"


def lan_config(text):
    return compile_program(parse(text), make_lan()).configs["S2"]


def test_same_key_before_and_after_a_config_swap():
    sw = Switch("S2", make_lan(), lan_config(LAN_ALLOW))
    key = (0, 0, A, C)
    for sport in (41000, 41001):
        assert sw.process_packet(initial_packet(key, PROTO_TCP, sport, False), 0).verdict == "forward"
    assert (sw.classify_hits, sw.classify_misses) == (1, 1)

    sw.set_config(lan_config(LAN_DROP))
    pkt = initial_packet(key, PROTO_TCP, 41002, False)
    res = sw.process_packet(pkt, 0)
    assert res.verdict == "drop"
    assert res.log == [f"S2 drop {pkt.flow_key} rule@0"]
    assert (sw.classify_hits, sw.classify_misses) == (1, 2)


def test_cache_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(dataplane, "CLASSIFY_CACHE_CAPACITY", 3)
    config = lan_config("if match(pkt_label contains T && dst_ip==C) then allow\n")
    sw = Switch("S2", make_lan(), config, NO_RATE_LIMIT)
    pool = [(bits, 0, src, C) for bits in (0, tag_bit(0)) for src in (A, B, "192.0.2.9")]
    for n in range(40):
        key = pool[(n * 5) % len(pool)]
        assert sw.classify(*key) == uncached(config, key)
        assert len(sw._classified) <= 3
        res = sw.process_packet(initial_packet(key, PROTO_TCP, 40000 + n), n)
        assert res.verdict == ("forward" if key[0] else "drop")
        assert len(sw._classified) <= 3
    # each key comes back after five others, so the cache, cleared at
    # three keys, has always lost it: every classify call misses and every
    # packet right after it hits
    assert (sw.classify_hits, sw.classify_misses) == (40, 40)


def test_a_rewritten_label_is_classified_as_its_own_key():
    # {S1} gains I0 at C but keeps S1, while a packet that already carries
    # I0 loses S1: the cache must not answer the second from the first
    config = lan_config(
        "if match(dst_ip==C) then endorse({I0})\n"
        "if match(pkt_label contains I0 && dst_ip==C) then declassify({S1})\n"
        "if match(dst_ip==C) then allow\n"
    )
    s1, i0 = tag_bit(1), tag_bit(0)
    sw = Switch("S2", make_lan(), config)
    assert sw.classify(s1, 0, A, C)[0] == s1 | i0
    assert sw.classify(s1 | i0, 0, A, C)[0] == i0
    assert sw.classify(s1, 0, A, C)[0] == s1 | i0
    assert (sw.classify_hits, sw.classify_misses) == (1, 2)


def test_scanner_burst_is_one_miss():
    # a churn-style burst: SYN probes from one unlabelled out-of-inventory
    # source to one server; the probes over the rate limit are never
    # classified, so they count neither way
    sw = Switch("S2", make_lan(), lan_config(LAN_ALLOW))
    probes = [initial_packet((0, 0, "10.250.0.9", C), PROTO_TCP, 1024 + j, False) for j in range(150)]
    results = [sw.process_packet(p, j * 1000) for j, p in enumerate(probes)]
    evaluated = [r for r in results if r.decision_source == "policy"]
    assert len(evaluated) == SimParams().rate_limit
    assert all(r.verdict == "forward" for r in evaluated)
    assert (sw.classify_hits, sw.classify_misses) == (len(evaluated) - 1, 1)
