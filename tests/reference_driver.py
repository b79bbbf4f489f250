"""Retired generator code, kept as the reference the callback code must equal.

The simulator used to run much of its waiting as generator processes
(``tests/process_kernel.py`` is their kernel, moved out of ``src/``).
Two generations of them are kept here, each verbatim apart from the names
it is reached by, the options that have since become constants, and
``Process(sim, ...)`` for ``sim.process(...)``:

- the generator-per-flow workload driver: every flow a process created at
  t=0 that ran four more (the stub's ``_lookup``, the resolver's
  ``handle`` and walk, ``_send``/``_send_fluid``);
- the pull path the flows reach: the xTR's map-cache miss, ALT, CONS and
  NERD resolution, the RLOC prober's probe rounds, the TCP handshake, the
  resolver's miss walk and coalesced followers, and the scripted senders
  of the Fig. 1 walkthrough and E9.

``tests/test_workload_oracle.py`` runs the same world under the callback
code and under these (:func:`install_reference_pull_path` puts them on one
world) and demands equal flow records, link ledgers, sinks, resolver, xTR
and prober state and control-plane stats.  Nothing in ``src/`` imports
this module.
"""

import types
from collections import defaultdict

from process_kernel import Process

from repro.dns.message import DNS_PORT, DnsMessage, make_query, make_reply
from repro.dns.records import RCODE_NXDOMAIN, RCODE_SERVFAIL, TYPE_A, TYPE_CNAME
from repro.dns.resolver import (LOOKUP_RETRIES, MAX_CNAME_CHASES, MAX_REFERRALS,
                                NEGATIVE_TTL)
from repro.dns.server import PROCESSING_DELAY
from repro.experiments.e9_failover import FLOW_END, PACKET_INTERVAL
from repro.experiments.scenario import FLOW_TCP_PORT, FLOW_UDP_PORT
from repro.experiments.workload import WORKLOAD_STREAM, build_shaper
from repro.lisp.control import alt, cons
from repro.lisp.control.base import MAP_REQUEST_RETRIES
from repro.lisp.control.cons import _ConsEnvelope
from repro.lisp.headers import LISP_CONTROL_PORT, MapRequest, next_nonce
from repro.lisp.probing import PROBE_PORT, RlocProbe
from repro.net.host import RequestTimeout
from repro.net.packet import TCP_ACK, TCP_SYN, tcp_packet, udp_packet
from repro.sim import EXPIRED
from repro.traffic.flows import (DEFAULT_RTO, FLUID_PROBE_RETRIES, MAX_SYN_RETRIES,
                                 FlowRecord, FluidPump)
from repro.traffic.popularity import ZipfSampler


def reference_lookup(stub, qname, timeout=5.0):
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
                                          timeout=timeout,
                                          retries=LOOKUP_RETRIES)
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

    return Process(self.sim, _lookup(), name=f"{self.host.name}-lookup-{qname}")


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

    return Process(sim, _send(), name=f"{host.name}-burst-{record.flow_id}")


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

    return Process(sim, _send(), name=f"{host.name}-fluid-{record.flow_id}")


def _serve_recursive(self, query, packet):
    self.recursive_queries += 1
    for listener in self.query_listeners:
        listener(client=packet.ip.src, qname=query.question.qname, time=self.sim.now)

    def handle():
        resolution = yield self.resolve(query.question.qname, query.question.qtype)
        reply = make_reply(query, answers=resolution.answers,
                           rcode=resolution.rcode, recursion_available=True)
        self._send_reply(packet, reply)

    Process(self.sim, handle(), name=f"{self.node.name}-recurse")


def _resolve(self, qname, qtype=TYPE_A, _depth=0):
    """Iteratively resolve; returns an event carrying the final DnsMessage.

    A live answer-cache entry is the whole resolution: the event comes
    back already succeeded (one engine event, no process).  Anything
    else is a process.  Follows CNAME chains across zones (bounded by
    MAX_CNAME_CHASES).  Identical concurrent resolutions are coalesced
    onto one in-flight walk; NXDOMAIN outcomes are negatively cached
    for :data:`NEGATIVE_TTL`.  The message's ``answers``/``rcode`` reflect
    the outcome; SERVFAIL is used for loops and timeouts.
    """
    # Counters, ident, caches and the in-flight table all move below.
    if self._journal is not None:
        self._touch()

    def _coalesced():
        # Wait for the walk already in flight and reuse its outcome.
        self.coalesced_queries += 1
        leader = self._in_flight[(qname, qtype)]
        result = yield leader
        return result.copy()

    def _resolve():
        if self.use_cache:
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
        return Process(self.sim, _coalesced(),
                       name=f"{self.node.name}-coalesce-{qname}")
    if self.use_cache:
        # The query's one answer-cache read (the counters see one).
        cached = self.answer_cache.get(key)
        if cached is not None:
            synthetic = DnsMessage(ident=0, flags=0, answers=list(cached))
            return self.sim.event().succeed(synthetic)
    process = Process(self.sim, _resolve(),
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


def _maybe_resolve(self, eid):
    if self.mapping_system is None:
        return
    key = self._resolution_key(eid)
    if key in self._pending:
        return
    if self._journal is not None:
        self._touch()
    self._pending[key] = True
    self.resolutions_started += 1

    def run():
        mapping = yield self.mapping_system.resolve(self, eid)
        self._pending.pop(key, None)
        if mapping is None:
            self.resolutions_failed += 1
            return
        self.map_cache.install(mapping, origin="resolved")
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.node.name,
                                  "itr.mapping-resolved", eid=str(eid),
                                  prefix=str(mapping.eid_prefix))
        self.miss_policy.on_resolved(self, eid, mapping)

    Process(self.sim, run(), name=f"{self.node.name}-resolve-{eid}")


def _alt_resolve(self, xtr, eid):
    def _resolve():
        started = self.sim.now
        for _attempt in range(MAP_REQUEST_RETRIES + 1):
            nonce = next_nonce()
            waiter = self.sim.event(name=f"alt-nonce-{nonce}")
            self._pending[nonce] = waiter
            request = MapRequest(nonce=nonce, eid=eid, itr_rloc=xtr.rloc)
            self.stats.count("map-request", request.size_bytes)
            entry_address = self._alt_address.get(xtr.site.index)
            if entry_address is None:
                break
            xtr.node.send_udp(src=xtr.rloc, dst=entry_address,
                              sport=LISP_CONTROL_PORT, dport=LISP_CONTROL_PORT,
                              payload=request, meta={"alt_hops": 0})
            mapping = yield waiter.expire_in(alt.REQUEST_TIMEOUT)
            if mapping is not EXPIRED:
                self.stats.record_resolution(self.sim.now - started, ok=True)
                return mapping
            self._pending.pop(nonce, None)
        self.stats.record_resolution(self.sim.now - started, ok=False)
        return None

    return Process(self.sim, _resolve(), name=f"alt-resolve-{eid}")


def _cons_resolve(self, xtr, eid):
    def _resolve():
        started = self.sim.now
        car = self._car_of_site.get(xtr.site.index)
        if car is None:
            self.stats.record_resolution(0.0, ok=False)
            return None
        for _attempt in range(MAP_REQUEST_RETRIES + 1):
            nonce = next_nonce()
            waiter = self.sim.event(name=f"cons-nonce-{nonce}")
            self._pending[nonce] = waiter
            request = MapRequest(nonce=nonce, eid=eid, itr_rloc=xtr.rloc)
            envelope = _ConsEnvelope(kind="request", request=request,
                                     path=[xtr.rloc])
            self.stats.count("map-request", envelope.size_bytes)
            xtr.node.send_udp(src=xtr.rloc, dst=car.address,
                              sport=LISP_CONTROL_PORT, dport=LISP_CONTROL_PORT,
                              payload=envelope)
            mapping = yield waiter.expire_in(cons.REQUEST_TIMEOUT)
            if mapping is not EXPIRED:
                self.stats.record_resolution(self.sim.now - started, ok=True)
                return mapping
            self._pending.pop(nonce, None)
        self.stats.record_resolution(self.sim.now - started, ok=False)
        return None

    return Process(self.sim, _resolve(), name=f"cons-resolve-{eid}")


def _nerd_resolve(self, xtr, eid):
    """NERD has no request path: a miss means the database lacks the EID."""

    def _resolve():
        self.stats.record_resolution(0.0, ok=False)
        return None
        yield  # pragma: no cover - makes this a generator

    return Process(self.sim, _resolve(), name=f"nerd-resolve-{eid}")


def _tick(self):
    for address in self.targets():
        Process(self.sim, self._probe_once(address))


def _probe_once(self, address):
    self._nonce += 1
    nonce = self._nonce
    waiter = self.sim.event(name=f"probe-{nonce}")
    self._pending[nonce] = waiter
    probe = RlocProbe(nonce=nonce)
    self.probes_sent += 1
    self.xtr.node.send_udp(src=self.xtr.rloc, dst=address,
                           sport=PROBE_PORT, dport=PROBE_PORT, payload=probe)
    outcome = yield waiter.expire_in(self.timeout)
    if outcome is not EXPIRED:
        self._mark_alive(address)
    else:
        self._pending.pop(nonce, None)
        self._mark_missed(address)


def _connect(self, destination, dport):
    """Process: three-way handshake; returns (elapsed, syn_retries) or None."""
    if self._journal is not None:
        self._touch()
    sim = self.sim
    sport = self.host.ephemeral_port()

    def _connect():
        started = sim.now
        for attempt in range(MAX_SYN_RETRIES + 1):
            syn = tcp_packet(self.host.address, destination, sport, dport,
                             flags=TCP_SYN, seq=attempt)
            waiter = sim.event()
            self._pending[sport] = waiter
            self.host.send(syn)
            outcome = yield waiter.expire_in(DEFAULT_RTO * (2 ** attempt))
            if outcome is not EXPIRED:
                self._pending.pop(sport, None)
                ack = tcp_packet(self.host.address, destination, sport, dport,
                                 flags=TCP_ACK, seq=attempt + 1, ack=1)
                self.host.send(ack)
                return sim.now - started, attempt
            self._pending.pop(sport, None)
        return None

    return Process(sim, _connect(), name=f"{self.host.name}-connect")


_MAPPING_SYSTEMS = {"alt": _alt_resolve, "cons": _cons_resolve,
                    "nerd": _nerd_resolve}


def install_reference_pull_path(scenario):
    """Give *scenario* the process-per-wait xTR, mapping system, probers,
    TCP stacks and site resolvers."""
    install_reference_resolvers(scenario)
    for xtr in scenario.iter_xtrs():
        xtr._maybe_resolve = types.MethodType(_maybe_resolve, xtr)
    system = scenario.mapping_system
    if system is not None:
        system.resolve = types.MethodType(_MAPPING_SYSTEMS[system.name], system)
    for stack in scenario.tcp_stacks.values():
        stack.connect = types.MethodType(_connect, stack)
    if scenario.control_plane is not None:
        for prober in scenario.control_plane.probers.values():
            prober._probe_once = types.MethodType(_probe_once, prober)
            prober._task.callback = types.MethodType(_tick, prober)


def start_fig1_flow(scenario, timeline):
    """The Fig. 1 walkthrough's one flow, as a process (``run_fig1_walkthrough``)."""
    sim = scenario.sim
    site_s, site_d = scenario.topology.sites
    source = site_s.hosts[0]
    stub = scenario.stub_for(source, site_s)
    qname = scenario.host_name(site_d, 0)

    def flow():
        address, _elapsed = yield stub.lookup(qname)
        timeline["dns_done"] = sim.now
        timeline["address"] = address
        source.send(udp_packet(source.address, address, 5000, FLOW_UDP_PORT,
                               payload_bytes=1000))

    Process(sim, flow())


def start_e9_sender(scenario, state):
    """E9's constant-rate sender, as a process (``e9_failover._run_variant``)."""
    sim = scenario.sim
    site_s, site_d = scenario.topology.sites
    source = site_s.hosts[0]
    stub = scenario.stub_for(source, site_s)

    def sender():
        address, _elapsed = yield stub.lookup(scenario.host_name(site_d, 0))
        while sim.now < FLOW_END:
            source.send(udp_packet(source.address, address, 5000, FLOW_UDP_PORT,
                                   payload_bytes=800,
                                   meta={"sent_at": sim.now}))
            state["sent"] += 1
            yield sim.timeout(PACKET_INTERVAL)

    Process(sim, sender())


def reference_run_workload(scenario, workload):
    """Run *workload* to completion; returns the list of FlowRecords."""
    install_reference_pull_path(scenario)
    sim = scenario.sim
    topology = scenario.topology
    rng = sim.rng.stream(WORKLOAD_STREAM)
    num_sites = len(topology.sites)
    if num_sites < 2:
        raise ValueError("workload needs at least two sites")
    zipf = ZipfSampler(num_sites - 1, rng, s=workload.zipf_s)
    shaper = build_shaper(workload, rng)
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
        Process(sim, flow(arrival_time), name=f"flow@{arrival_time:.3f}")

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
