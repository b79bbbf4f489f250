"""Tests for DNS records, wire format, and zones."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from process_kernel import Process

from repro.core.messages import EncapsulatedDnsReply
from repro.dns.hierarchy import ROOT_ADDRESS
from repro.dns.message import (
    DNS_PORT,
    FLAG_AA,
    FLAG_RD,
    DnsMessage,
    DnsWireError,
    decode_name,
    encode_name,
    make_query,
    make_reply,
)
from repro.dns.records import (
    RCODE_NOERROR,
    RCODE_NXDOMAIN,
    TYPE_A,
    TYPE_CNAME,
    TYPE_NS,
    ResourceRecord,
    is_subdomain,
    normalise_name,
)
from repro.dns.zone import Zone
from repro.experiments.scenario import CONTROL_PLANES, ScenarioConfig, build_scenario
from repro.net.addresses import IPv4Address
from repro.net.node import Node


def test_normalise_name():
    assert normalise_name("Host0.Example") == "host0.example."
    assert normalise_name("a.b.c.") == "a.b.c."


def test_is_subdomain():
    assert is_subdomain("host0.site1.example.", "site1.example.")
    assert is_subdomain("site1.example.", "site1.example.")
    assert not is_subdomain("site2.example.", "site1.example.")
    assert not is_subdomain("evilsite1.example.", "site1.example.")
    assert is_subdomain("anything.at.all.", ".")


def _scan_for_delegation(zone, name):
    """The linear scan ``Zone._find_delegation`` used to be: the oracle."""
    name = normalise_name(name)
    best = None
    for child in zone._delegations:
        if is_subdomain(name, child):
            if best is None or len(child) > len(best):
                best = child
    return best


def _delegating_zone(origin, children):
    zone = Zone(origin)
    for index, child in enumerate(children):
        zone.delegate(child, f"ns{index}.nic.", f"10.9.{index // 200}.{index % 200 + 1}")
    return zone


@pytest.mark.parametrize("origin, children, name, expected", [
    # nested delegations: the most specific one wins
    ("example.", ("b.example.", "a.b.example."), "x.a.b.example.", "a.b.example."),
    ("example.", ("a.b.example.", "b.example."), "y.b.example.", "b.example."),
    # the name is itself a delegation point
    ("example.", ("b.example.", "a.b.example."), "b.example.", "b.example."),
    # above (or beside) every delegation
    ("example.", ("b.example.", "a.b.example."), "example.", None),
    ("example.", ("b.example.",), "c.example.", None),
    ("example.", (), "host.example.", None),
    # labels match whole or not at all
    ("example.", ("site1.example.",), "evilsite1.example.", None),
    ("example.", ("site1.example.",), "host.evilsite1.example.", None),
    ("example.", ("site1.example.",), "host.site1.example.", "site1.example."),
    # case and the trailing dot are normalised on both sides
    ("example.", ("Site1.Example",), "Host0.SITE1.example", "site1.example."),
    # a delegation of the origin itself is found (lookup ignores it)
    ("example.", ("example.",), "host.example.", "example."),
    # a root-origin zone, and the root as a delegation
    (".", ("example.", "com."), "host.site.example.", "example."),
    (".", ("example.", "com."), "org.", None),
    (".", ("example.",), ".", None),
    (".", (".",), "anything.at.all.", "."),
    (".", (".", "all."), "anything.at.all.", "all."),
    (".", (".",), ".", "."),
])
def test_find_delegation_hand_cases(origin, children, name, expected):
    zone = _delegating_zone(origin, children)
    assert _scan_for_delegation(zone, name) == expected
    # A zone takes the name normalised, as a Question holds it.
    assert zone._find_delegation(normalise_name(name)) == expected


def test_lookup_ignores_a_delegation_of_the_origin():
    zone = _delegating_zone("example.", ("example.", "b.example."))
    assert zone.lookup("host.example.").rcode == RCODE_NXDOMAIN
    assert not zone.lookup("host.example.").is_referral
    assert zone.lookup("host.b.example.").is_referral


@pytest.mark.parametrize("seed", (3, 17, 101))
def test_find_delegation_matches_the_linear_scan_on_random_zones(seed):
    """200 delegations x 500 names over a few short labels, so names share
    suffixes, nest, and differ by label prefixes (``ab`` vs ``b``)."""
    rng = random.Random(seed)
    labels = ("a", "b", "ab", "ba", "c", "bc", "site1", "evilsite1")

    def random_name(min_depth, max_depth):
        return ".".join([*(rng.choice(labels)
                           for _ in range(rng.randint(min_depth, max_depth))),
                         "example."])

    zone = _delegating_zone("example.",
                            [random_name(2, 4) for _ in range(200)])
    found = set()
    for _ in range(500):
        name = random_name(0, 6)
        if rng.random() < 0.3:
            name = name.upper()
        if rng.random() < 0.3:
            name = name[:-1]
        expected = _scan_for_delegation(zone, name)
        assert zone._find_delegation(normalise_name(name)) == expected, name
        found.add(expected)
    assert None in found and len(found) > 20   # hits and misses both


def test_a_record_coerces_address():
    record = ResourceRecord("h.example.", TYPE_A, 60, "10.0.0.1")
    assert record.data == IPv4Address("10.0.0.1")
    # ... and rejects a TTL the wire's unsigned whole seconds cannot carry.
    for ttl in (0.5, -1, 2**32):
        with pytest.raises(ValueError, match=f"ResourceRecord.ttl .* got {ttl!r}"):
            ResourceRecord("h.example.", TYPE_A, ttl, "10.0.0.1")


def test_name_encoding_roundtrip():
    for name in (".", "example.", "host0.site3.example.", "a.b.c.d.e.f."):
        encoded = encode_name(name)
        decoded, offset = decode_name(encoded, 0)
        assert decoded == name
        assert offset == len(encoded)


def test_label_too_long_rejected():
    with pytest.raises(DnsWireError):
        encode_name("x" * 64 + ".example.")


def test_query_roundtrip():
    query = make_query(1234, "host0.site1.example.", recursion_desired=True)
    decoded = DnsMessage.decode(query.encode())
    assert decoded.ident == 1234
    assert decoded.is_query
    assert decoded.flags & FLAG_RD
    assert decoded.qname == "host0.site1.example."


def test_reply_roundtrip_with_all_sections():
    query = make_query(7, "host0.site1.example.")
    reply = make_reply(
        query,
        answers=[ResourceRecord("host0.site1.example.", TYPE_A, 60, "100.0.1.10")],
        authorities=[ResourceRecord("site1.example.", TYPE_NS, 3600, "ns.site1.example.")],
        additionals=[ResourceRecord("ns.site1.example.", TYPE_A, 3600, "198.18.1.10")],
        authoritative=True,
    )
    decoded = DnsMessage.decode(reply.encode())
    assert decoded.is_reply
    assert decoded.flags & FLAG_AA
    assert decoded.ident == 7
    assert decoded.answer_addresses() == [IPv4Address("100.0.1.10")]
    assert decoded.referral_servers() == [("ns.site1.example.", IPv4Address("198.18.1.10"))]


def test_rcode_roundtrip():
    query = make_query(9, "nope.example.")
    reply = make_reply(query, rcode=RCODE_NXDOMAIN)
    assert DnsMessage.decode(reply.encode()).rcode == RCODE_NXDOMAIN


def test_truncated_data_raises():
    query = make_query(5, "x.example.")
    data = query.encode()
    with pytest.raises(DnsWireError):
        DnsMessage.decode(data[:8])
    with pytest.raises(DnsWireError):
        DnsMessage.decode(data[:-3])


def test_size_bytes_matches_encoding():
    """``size_bytes`` is arithmetic; the codec is its oracle, errors included."""
    query = make_query(1, "host.example.")
    assert query.size_bytes == len(query.encode())
    referral = make_reply(
        make_query(2, "."),  # the root name is one zero byte
        answers=[ResourceRecord("www.example.", TYPE_CNAME, 60, "host.example."),
                 ResourceRecord("host.example.", TYPE_A, 60, "192.0.2.1")],
        authorities=[ResourceRecord(".", TYPE_NS, 60, "a.root-servers.net.")],
        additionals=[ResourceRecord("txt.example.", 16, 60, b"opaque"),
                     ResourceRecord("txt.example.", 16, 60, "text")])
    for message in (DnsMessage(), referral,
                    make_query(3, "a..b.example"),  # empty labels are skipped
                    make_query(4, "x" * 63 + ".example.")):
        assert message.size_bytes == len(message.encode())
    assert DnsMessage().size_bytes == 12 and make_query(2, ".").size_bytes == 17
    for name, error in (("x" * 64 + ".example.", DnsWireError),
                        ("h\u00f4te.example.", UnicodeEncodeError),
                        ("x" * 64 + ".h\u00f4te.", DnsWireError),
                        ("h\u00f4te." + "x" * 64 + ".", UnicodeEncodeError)):
        for message in (make_query(5, name),
                        make_reply(query, answers=[ResourceRecord(name, TYPE_A, 1, 1)]),
                        make_reply(query, answers=[ResourceRecord("a.", TYPE_NS, 1, name)])):
            with pytest.raises(error):
                message.encode()
            with pytest.raises(error):
                _ = message.size_bytes
    text = make_reply(query, answers=[ResourceRecord("a.", 16, 1, "\u00f4")])
    with pytest.raises(UnicodeEncodeError):
        text.encode()
    with pytest.raises(UnicodeEncodeError):
        _ = text.size_bytes


names = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=10),
    min_size=1, max_size=5,
).map(lambda labels: ".".join(labels) + ".")


@given(st.integers(min_value=0, max_value=65535), names,
       st.integers(min_value=0, max_value=(1 << 32) - 1),
       st.integers(min_value=0, max_value=86400))
def test_message_roundtrip_property(ident, name, address, ttl):
    query = make_query(ident, name)
    reply = make_reply(query, answers=[ResourceRecord(name, TYPE_A, ttl, address)],
                       authoritative=True)
    decoded = DnsMessage.decode(reply.encode())
    assert decoded.ident == ident
    assert decoded.qname == name
    assert decoded.answers[0].data == IPv4Address(address)
    assert int(decoded.answers[0].ttl) == ttl


def test_zone_answers_own_records():
    zone = Zone("site1.example.")
    zone.add_a("host0.site1.example.", "100.0.1.10")
    result = zone.lookup("host0.site1.example.")
    assert result.rcode == RCODE_NOERROR
    assert result.answers[0].data == IPv4Address("100.0.1.10")
    assert not result.is_referral


def test_zone_referral():
    zone = Zone("example.")
    zone.delegate("site1.example.", "ns.site1.example.", "198.18.1.10")
    result = zone.lookup("host0.site1.example.")
    assert result.is_referral
    assert result.authorities[0].rtype == TYPE_NS
    assert result.additionals[0].data == IPv4Address("198.18.1.10")


def test_zone_most_specific_delegation():
    zone = Zone("example.")
    zone.delegate("corp.example.", "ns.corp.example.", "192.0.2.1")
    zone.delegate("deep.corp.example.", "ns.deep.corp.example.", "192.0.2.2")
    result = zone.lookup("www.deep.corp.example.")
    assert result.additionals[0].data == IPv4Address("192.0.2.2")


def test_zone_nxdomain():
    zone = Zone("site1.example.")
    zone.add_a("host0.site1.example.", "100.0.1.10")
    assert zone.lookup("missing.site1.example.").rcode == RCODE_NXDOMAIN
    assert zone.lookup("other.domain.").rcode == RCODE_NXDOMAIN


def test_root_zone_covers_everything():
    zone = Zone(".")
    zone.delegate("example.", "a.gtld.", "192.5.6.30")
    result = zone.lookup("host.site.example.")
    assert result.is_referral


# --------------------------------------------------------------------- #
# Messages ride as objects: the codec is the oracle, not a hop
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("control_plane", CONTROL_PLANES)
def test_every_sent_message_equals_its_wire_form(control_plane, monkeypatch):
    """Carrying a message is carrying its bytes: every DNS message a control
    plane sends round-trips through the codec, is sized by it, and is not
    edited after it left."""
    sent = []
    real_send = Node.send

    def capture(node, packet):
        message = packet.payload
        if isinstance(message, EncapsulatedDnsReply):
            message = message.dns_reply
        if isinstance(message, DnsMessage):
            sent.append((message, message.encode()))
        return real_send(node, packet)

    monkeypatch.setattr(Node, "send", capture)
    scenario = build_scenario(ScenarioConfig(control_plane=control_plane, num_sites=3,
                                             seed=17, dns_extra_levels=2))
    sites = scenario.topology.sites
    dns = scenario.dns
    # Two hosts of two sites and a name nobody owns.
    names = [dns.host_name(sites[1], 0), dns.host_name(sites[2], 1),
             f"missing.{dns.site_domain(sites[1])}"]
    stub = scenario.stub_for(sites[0].hosts[0], sites[0])

    def lookups():
        found = []
        for name in names:
            address, _elapsed = yield stub.lookup(name)
            found.append(address)
        return found

    process = Process(scenario.sim, lookups())
    scenario.sim.run(until=20.0)
    assert process.value == [sites[1].hosts[0].address,
                             sites[2].hosts[1].address, None]

    messages = [message for message, _wire in sent]
    assert any(m.is_query for m in messages)
    assert any(m.rcode == RCODE_NXDOMAIN for m in messages)
    assert any(m.referral_servers() for m in messages)
    for message, wire in sent:
        assert message.encode() == wire, f"edited after it was sent: {message}"
        assert DnsMessage.decode(wire) == message
        assert message.size_bytes == len(wire)


@pytest.mark.parametrize("junk", [make_query(1, "host0.site1.example.").encode(),
                                  None, object()],
                         ids=["bytes", "none", "foreign-object"])
def test_non_message_datagrams_on_the_dns_port_are_ignored(junk):
    scenario = build_scenario(ScenarioConfig(control_plane="pce", num_sites=2, seed=17))
    near, far = scenario.topology.sites
    host = near.hosts[0]

    def crossing(node):
        """Bytes links delivered to *node*, bytes *node* offered to links."""
        links = scenario.links
        return (sum(link.stats.bytes_delivered for link in links
                    if link.dst_interface.node is node),
                sum(link.stats.bytes_offered for link in links
                    if link.src_interface.node is node))

    servers = (scenario.dns.root_server.node, near.dns_node, far.dns_node)
    before = [crossing(node) for node in servers]
    # To the local resolver, a remote one (crossing both PCE taps) and an
    # authoritative server, shaped as a query and as a reply (sport 53).
    for dst in (near.dns_address, far.dns_address, ROOT_ADDRESS):
        for sport in (5353, DNS_PORT):
            host.send_udp(host.address, dst, sport, DNS_PORT, payload=junk)
    scenario.sim.run(until=5.0)

    # Each server received the junk and sent nothing: no reply, no walk.
    for node, (received, sent) in zip(servers, before, strict=True):
        now_received, now_sent = crossing(node)
        assert now_received > received and now_sent == sent, node
    # No resolver started a recursion (Step 1) and no PCE saw a message.
    assert scenario.sim.trace.of_kind("pce.step1-ipc", "pce.observe-query",
                                      "pce.observe-reply") == []
