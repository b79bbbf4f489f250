"""The generator-per-flow workload driver, kept as a reference implementation.

Until PR 21 every flow of a workload was a :class:`~repro.sim.process.Process`
created at t=0 that ran four more processes (the stub's ``_lookup``, the
resolver's ``handle`` and ``_resolve``, ``_send``/``_send_fluid``).  The
bodies below are those generators, verbatim apart from the names they are
reached by and the resolver options that have since become constants, so
``tests/test_workload_oracle.py`` can run the same world
under both drivers and demand equal flow records, link ledgers, sinks and
resolver counters.  Nothing in ``src/`` imports this module.
"""

import types
from collections import defaultdict

from repro.dns.message import DNS_PORT, DnsMessage, make_query, make_reply
from repro.dns.records import RCODE_NXDOMAIN, RCODE_SERVFAIL, TYPE_A, TYPE_CNAME
from repro.dns.resolver import MAX_CNAME_CHASES, MAX_REFERRALS, NEGATIVE_TTL
from repro.dns.server import PROCESSING_DELAY
from repro.experiments.scenario import FLOW_TCP_PORT, FLOW_UDP_PORT
from repro.experiments.workload import WORKLOAD_STREAM, build_shaper
from repro.net.host import RequestTimeout
from repro.net.packet import udp_packet
from repro.traffic.flows import FLUID_PROBE_RETRIES, FlowRecord, FluidPump
from repro.traffic.popularity import ZipfSampler


def reference_lookup(stub, qname, timeout=5.0, retries=1):
    """Process: resolve *qname*; returns (address_or_None, elapsed)."""
    self = stub

    def _lookup():
        self.lookups += 1
        started = self.sim.now
        query = make_query(ident=self.lookups % 65536, qname=qname,
                           recursion_desired=True)
        socket = self.host.open_udp()
        try:
            packet = yield socket.request(self.resolver_address, DNS_PORT,
                                          payload=query,
                                          timeout=timeout, retries=retries)
        except RequestTimeout:
            return None, self.sim.now - started
        finally:
            socket.close()
        reply = packet.payload
        if not isinstance(reply, DnsMessage):
            return None, self.sim.now - started
        addresses = reply.answer_addresses()
        result = addresses[0] if addresses else None
        return result, self.sim.now - started

    return self.sim.process(_lookup(), name=f"{self.host.name}-lookup-{qname}")


def reference_send_flow(sim, host, destination, port, record, plan, pump=None):
    """Process: emit one flow's datagrams on its :class:`FlowPlan` schedule."""
    record.bytes_budget = plan.byte_budget
    record.flow_kind = plan.kind
    if plan.kind == "fluid":
        return _send_fluid(sim, host, destination, port, record, plan,
                           pump if pump is not None else FluidPump(sim))

    def _send():
        for index in range(plan.packets):
            meta = {"flow_id": record.flow_id, "index": index}
            packet = udp_packet(host.address, destination, 5000, port,
                                payload_bytes=plan.payload_bytes, meta=meta)
            if index == 0:
                packet.meta["fates"] = record.first_packet_fates
            record.packets_sent += 1
            record.bytes_sent += plan.payload_bytes
            host.send(packet)
            if index < plan.packets - 1 and plan.spacing > 0.0:
                yield sim.timeout(plan.spacing)
        record.finished_at = sim.now

    return sim.process(_send(), name=f"{host.name}-burst-{record.flow_id}")


def _send_fluid(sim, host, destination, port, record, plan, pump):
    """Process: discover a fluid flow's path, then ride the pump."""
    payload = plan.payload_bytes

    def _remaining():
        return (record.bytes_budget - record.bytes_sent) // payload

    def _probe(attempts):
        """Sub-process: discover the path; returns (hops, sink) or None."""
        while attempts > 0 and _remaining() > 0:
            attempts -= 1
            probe = {"links": [], "sink": None}
            meta = {"flow_id": record.flow_id, "index": record.packets_sent,
                    "fluid_probe": probe}
            packet = udp_packet(host.address, destination, 5000, port,
                                payload_bytes=payload, meta=meta)
            if record.packets_sent == 0:
                packet.meta["fates"] = record.first_packet_fates
            record.packets_sent += 1
            record.bytes_sent += payload
            host.send(packet)
            yield sim.timeout(plan.chunk_interval)
            if probe["sink"] is not None:
                return tuple(probe["links"]), probe["sink"]
        return None

    def _send():
        path = yield from _probe(1 + FLUID_PROBE_RETRIES)
        while path is not None and _remaining() > 0:
            spent = yield pump.join(record, plan, _remaining(), *path)
            if spent:
                break
            # The flow's whole chunk died mid-path: re-learn the route
            # (probes spend budget too, hence the re-read above).
            path = yield from _probe(FLUID_PROBE_RETRIES)
        if record.bytes_sent < record.bytes_budget:
            record.failed = True
        record.finished_at = sim.now

    return sim.process(_send(), name=f"{host.name}-fluid-{record.flow_id}")


def _serve_recursive(self, query, packet):
    self.recursive_queries += 1
    for listener in self.query_listeners:
        listener(client=packet.ip.src, qname=query.question.qname, time=self.sim.now)

    def handle():
        resolution = yield self.resolve(query.question.qname, query.question.qtype)
        reply = make_reply(query, answers=resolution.answers,
                           rcode=resolution.rcode, recursion_available=True)
        self._send_reply(packet, reply)

    self.sim.process(handle(), name=f"{self.node.name}-recurse")


def _resolve(self, qname, qtype=TYPE_A, _depth=0):
    """Process: iteratively resolve and return the final DnsMessage."""

    def _coalesced():
        # Wait for the walk already in flight and reuse its outcome.
        self.coalesced_queries += 1
        leader = self._in_flight[(qname, qtype)]
        result = yield leader
        return result.copy()

    def _resolve():
        if self.use_cache:
            cached = self.answer_cache.get((qname, qtype))
            if cached is not None:
                synthetic = DnsMessage(ident=0, flags=0, answers=list(cached))
                return synthetic
            negative = self.negative_cache.get((qname, qtype))
            if negative is not None:
                return DnsMessage(ident=0, flags=0).with_rcode(negative)
        yield self.sim.timeout(PROCESSING_DELAY)
        servers = self._cached_servers(qname)
        failure_rcode = RCODE_SERVFAIL
        for _step in range(MAX_REFERRALS):
            if not servers:
                break
            server = servers[0]
            query = make_query(self._next_ident(), qname, qtype)
            socket = self.node.open_udp()
            self.upstream_queries += 1
            try:
                packet = yield socket.request(server, DNS_PORT, payload=query)
            except RequestTimeout:
                servers = servers[1:]
                continue
            finally:
                socket.close()
            reply = packet.payload
            if not isinstance(reply, DnsMessage):
                servers = servers[1:]
                continue
            if reply.rcode == RCODE_NXDOMAIN:
                failure_rcode = RCODE_NXDOMAIN
                break
            if reply.answers:
                wanted = [r for r in reply.answers if r.rtype == qtype]
                cnames = [r for r in reply.answers if r.rtype == TYPE_CNAME]
                if not wanted and cnames and qtype == TYPE_A \
                        and _depth < MAX_CNAME_CHASES:
                    # Cross-zone alias: restart at the canonical name and
                    # splice the chain into the final answer.
                    target = cnames[-1].data
                    chased = yield self.resolve(target, qtype, _depth + 1)
                    reply = reply.copy()  # a sent message is immutable
                    reply.answers.extend(chased.answers)
                    if not chased.answers:
                        return reply.with_rcode(chased.rcode)
                if self.use_cache:
                    ttl = min(r.ttl for r in reply.answers)
                    self.answer_cache.put((qname, qtype), list(reply.answers), ttl)
                return reply
            referral = reply.referral_servers()
            glue = [address for _name, address in referral if address is not None]
            if not glue:
                break
            if self.use_cache and reply.authorities:
                child = reply.authorities[0].name
                ttl = min(r.ttl for r in reply.authorities)
                self.referral_cache.put(("ns", child), list(glue), ttl)
            servers = glue
        if self.use_cache and failure_rcode == RCODE_NXDOMAIN:
            self.negative_cache.put((qname, qtype), RCODE_NXDOMAIN,
                                    NEGATIVE_TTL)
        empty = DnsMessage(ident=0, flags=0)
        return empty.with_rcode(failure_rcode)

    key = (qname, qtype)
    if _depth == 0 and key in self._in_flight:
        return self.sim.process(_coalesced(),
                                name=f"{self.node.name}-coalesce-{qname}")
    process = self.sim.process(_resolve(),
                               name=f"{self.node.name}-resolve-{qname}")
    if _depth == 0:
        self._in_flight[key] = process
        process.callbacks.append(lambda _event: self._in_flight.pop(key, None))
    return process


def install_reference_resolvers(scenario):
    """Give every site resolver of *scenario* the process-per-query bodies."""
    for resolver in scenario.dns.resolvers.values():
        resolver._serve_recursive = types.MethodType(_serve_recursive, resolver)
        resolver.resolve = types.MethodType(_resolve, resolver)


def reference_run_workload(scenario, workload):
    """Run *workload* to completion; returns the list of FlowRecords."""
    install_reference_resolvers(scenario)
    sim = scenario.sim
    topology = scenario.topology
    rng = sim.rng.stream(WORKLOAD_STREAM)
    num_sites = len(topology.sites)
    if num_sites < 2:
        raise ValueError("workload needs at least two sites")
    zipf = ZipfSampler(num_sites - 1, s=workload.zipf_s, rng=rng)
    shaper = build_shaper(workload, rng=rng)
    records = []

    def pick_sites():
        if workload.dest_site is not None:
            dst = workload.dest_site
            src = rng.randrange(num_sites - 1)
            if src >= dst:
                src += 1
            return src, dst
        if workload.source_site is not None:
            src = workload.source_site
        else:
            src = rng.randrange(num_sites)
        offset = zipf.sample() + 1
        dst = (src + offset) % num_sites
        if dst == src:  # only possible via modular wrap corner cases
            dst = (src + 1) % num_sites
        return src, dst

    def flow(start_delay):
        yield sim.timeout(start_delay)
        src_index, dst_index = pick_sites()
        src_site = topology.sites[src_index]
        dst_site = topology.sites[dst_index]
        src_host = src_site.hosts[rng.randrange(len(src_site.hosts))]
        dst_host_index = rng.randrange(len(dst_site.hosts))
        record = FlowRecord(flow_id=scenario.flow_ids.allocate(),
                            source=src_host.address,
                            qname=scenario.host_name(dst_site, dst_host_index),
                            started_at=sim.now)
        records.append(record)
        stub = scenario.stub_for(src_host, src_site)
        address, elapsed = yield reference_lookup(stub, record.qname)
        record.dns_done_at = sim.now
        record.dns_elapsed = elapsed
        record.destination = address
        if address is None:
            record.failed = True
            return
        if workload.mode == "tcp":
            outcome = yield scenario.tcp_stacks[src_host.name].connect(
                address, FLOW_TCP_PORT)
            if outcome is None:
                record.failed = True
                return
            setup, retries = outcome
            record.established_at = sim.now
            record.setup_elapsed = setup
            record.syn_retransmissions = retries
            if workload.tcp_data_burst:
                yield reference_send_flow(sim, src_host, address, FLOW_UDP_PORT,
                                          record, shaper.plan(),
                                          scenario.fluid_pump)
        else:
            yield reference_send_flow(sim, src_host, address, FLOW_UDP_PORT,
                                      record, shaper.plan(), scenario.fluid_pump)

    arrival_time = 0.0
    last_arrival = 0.0
    for _ in range(workload.num_flows):
        arrival_time += rng.expovariate(workload.arrival_rate)
        last_arrival = arrival_time
        sim.process(flow(arrival_time), name=f"flow@{arrival_time:.3f}")

    sim.run(until=sim.now + last_arrival + workload.grace_period)

    # Attribute deliveries back to flows via the sinks.
    delivered_by_flow = defaultdict(int)
    for sink in scenario.udp_sinks.values():
        for flow_id, count in sink.by_flow.items():
            delivered_by_flow[flow_id] += count
    for record in records:
        record.packets_delivered = delivered_by_flow.get(record.flow_id, 0)
        # A flow cut off at the deadline before its DNS resolution finished
        # never got an answer: mark it failed so downstream consumers (which
        # treat destination/dns_done_at as Optional) can rely on the flag
        # instead of re-deriving "incomplete" from a None timestamp.
        if record.dns_done_at is None:
            record.failed = True
    return records
