"""Layer probes: direct calls into one public function each, in ns per op.

Probes reach deeper into ``repro`` than the workloads' import surface, so
each builds its fixture inside a guard: a probe whose imports or fixture
fail (a renamed function, a moved module) reports None and never fails the
run.  Numbers are the median over batches run for a fixed wall time.
"""

import random
import statistics
import sys
import time


def _fixture_engine():
    from repro.sim.engine import Simulator

    sim = Simulator(seed=0, tracing=False)

    def batch():
        for index in range(1000):
            sim.timeout(index * 1e-6)
        sim.run()
    return batch, 1000


def _fixture_fib_lookup():
    from repro.net.addresses import IPv4Address
    from repro.net.fib import Fib

    rng = random.Random(4096)
    fib = Fib()
    fib.add("0.0.0.0/0", "default")
    while len(fib) < 4096:
        length = rng.randint(12, 24)
        network = rng.getrandbits(length) << (32 - length)
        fib.add(f"{IPv4Address(network)}/{length}", "if0")
    addresses = [IPv4Address(rng.getrandbits(32)) for _ in range(1000)]

    def batch():
        lookup = fib.lookup
        for address in addresses:
            lookup(address)
    return batch, len(addresses)


def _fixture_packet_size():
    from repro.lisp.headers import encapsulate
    from repro.net.packet import udp_packet

    packet = encapsulate(udp_packet("10.0.0.1", "10.1.0.1", 40000, 9000,
                                    payload_bytes=1200),
                         "1.0.0.1", "2.0.0.1", nonce=1)

    def batch():
        total = 0
        for _ in range(1000):
            total += packet.size_bytes
    return batch, 1000


def _two_hosts(rate_bps=None):
    from repro.net.host import Host
    from repro.net.link import connect
    from repro.sim.engine import Simulator

    sim = Simulator(seed=0, tracing=False)
    a = Host(sim, "a", address="10.0.0.1")
    b = Host(sim, "b", address="10.0.0.2")
    iface_a = a.add_interface("eth0")
    iface_b = b.add_interface("eth0")
    forward, _backward = connect(sim, iface_a, iface_b, delay=0.001,
                                 rate_bps=rate_bps)
    a.fib.add("0.0.0.0/0", iface_a)
    b.fib.add("0.0.0.0/0", iface_b)
    return sim, a, b, forward


def _fixture_link_send():
    from repro.net.packet import udp_packet

    sim, a, b, link = _two_hosts()
    b.bind_udp(9000, lambda _packet, _node: None)
    packets = [udp_packet(a.address, b.address, 40000, 9000, payload_bytes=1200,
                          meta={"flow_id": 1}) for _ in range(500)]

    def batch():
        # send -> transmit -> deliver -> receive at the far host: the whole
        # per-packet cost of one hop, drained before the clock is read.
        send = link.send
        for packet in packets:
            send(packet)
        sim.run()
    return batch, len(packets)


def _fixture_link_post_fluid():
    # A rated link fast enough never to saturate, so every call books its
    # grant through LinkStats.book_fluid instead of the drop path.
    _sim, _a, _b, link = _two_hosts(rate_bps=1e15)

    def batch():
        post = link.post_fluid
        for _ in range(1000):
            post(30000, 1, 0.125)
    return batch, 1000


def _fixture_is_local():
    from repro.net.addresses import IPv4Address

    _sim, a, _b, _link = _two_hosts()
    a.add_interface("eth1", address="10.0.1.1")
    remote = IPv4Address("10.9.9.9")

    def batch():
        is_local = a.is_local
        for _ in range(1000):
            is_local(remote)
    return batch, 1000


def _fixture_map_cache():
    from repro.lisp.map_cache import MapCache
    from repro.lisp.mappings import MappingRecord, RlocEntry
    from repro.net.addresses import IPv4Address
    from repro.sim.engine import Simulator

    cache = MapCache(Simulator(seed=0, tracing=False))
    for site in range(256):
        cache.install(MappingRecord(f"10.{site}.0.0/16",
                                    (RlocEntry(f"1.0.{site}.1"),), ttl=3600.0))
    eids = [IPv4Address(f"10.{site}.0.7") for site in range(256)]

    def batch():
        lookup = cache.lookup
        for eid in eids:
            lookup(eid)
    return batch, len(eids)


def _fixture_dns_codec():
    from repro.dns.message import DnsMessage, make_query, make_reply
    from repro.dns.records import TYPE_A, TYPE_NS, ResourceRecord

    query = make_query(7, "h0.site12.example.", recursion_desired=True)
    reply = make_reply(
        query,
        answers=[ResourceRecord("h0.site12.example.", TYPE_A, 60.0, "10.12.0.2")],
        authorities=[ResourceRecord("site12.example.", TYPE_NS, 60.0,
                                    "ns.site12.example.")],
        additionals=[ResourceRecord("ns.site12.example.", TYPE_A, 60.0,
                                    "10.12.0.53")])

    def batch():
        decode = DnsMessage.decode
        for _ in range(200):
            decode(reply.encode())
    return batch, 200


PROBES = {
    "sim.engine.probe_event_ns": _fixture_engine,
    "net.fib.probe_lookup_ns": _fixture_fib_lookup,
    "net.packet.probe_size_bytes_ns": _fixture_packet_size,
    "net.link.probe_send_ns": _fixture_link_send,
    "net.link.probe_post_fluid_ns": _fixture_link_post_fluid,
    "net.node.probe_is_local_ns": _fixture_is_local,
    "lisp.map_cache.probe_lookup_ns": _fixture_map_cache,
    "dns.probe_codec_ns": _fixture_dns_codec,
}


def run_probe(fixture, seconds):
    """Median ns/op of *fixture*'s batch over *seconds*, or None if it breaks."""
    try:
        batch, ops = fixture()
        batch()  # warm caches and lazy set-up outside the samples
        samples = []
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            batch()
            end = time.perf_counter()
            samples.append((end - start) / ops * 1e9)
            if end >= deadline:
                return statistics.median(samples)
    except Exception as error:
        print(f"probe {fixture.__name__} broke: {error!r}", file=sys.stderr)
        return None


def run_all(seconds_each):
    return {name: run_probe(fixture, seconds_each)
            for name, fixture in PROBES.items()}
