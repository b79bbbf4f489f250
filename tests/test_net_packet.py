"""Tests for the packet model: sizing, encapsulation, copying."""

from repro.net.addresses import IPv4Address
from repro.net.packet import (
    IPV4_HEADER_BYTES,
    TCP_ACK,
    TCP_SYN,
    UDP_HEADER_BYTES,
    IPv4Header,
    Packet,
    tcp_packet,
    udp_packet,
)


def test_udp_packet_size():
    packet = udp_packet("10.0.0.1", "10.0.0.2", 1234, 53, payload_bytes=100)
    assert packet.size_bytes == IPV4_HEADER_BYTES + UDP_HEADER_BYTES + 100


def test_bytes_payload_size():
    packet = udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload=b"x" * 37)
    assert packet.size_bytes == IPV4_HEADER_BYTES + UDP_HEADER_BYTES + 37


def test_object_payload_with_size_attribute():
    class Message:
        size_bytes = 64

    packet = udp_packet("1.1.1.1", "2.2.2.2", 1, 2, payload=Message())
    assert packet.size_bytes == IPV4_HEADER_BYTES + UDP_HEADER_BYTES + 64


def test_header_accessors():
    packet = udp_packet("10.0.0.1", "10.0.0.2", 1111, 53)
    assert packet.ip.src == IPv4Address("10.0.0.1")
    assert packet.udp.dport == 53
    assert packet.tcp is None


def test_encapsulation_size_and_innermost():
    inner = udp_packet("100.0.0.10", "100.1.0.10", 5000, 80, payload_bytes=500)
    outer = Packet(
        headers=[IPv4Header(src="10.1.0.1", dst="12.1.1.1", proto=4)],
        payload=inner,
    )
    assert outer.inner is inner
    assert outer.size_bytes == IPV4_HEADER_BYTES + inner.size_bytes
    # The outer IP header is the one seen by forwarding.
    assert outer.ip.dst == IPv4Address("12.1.1.1")
    assert inner.inner is None


def test_copy_isolates_headers_and_meta():
    packet = udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload_bytes=10, meta={"flow": 7})
    clone = packet.copy()
    clone.ip.ttl -= 5
    clone.meta["flow"] = 8
    assert packet.ip.ttl == 64
    assert packet.meta["flow"] == 7
    assert clone.size_bytes == packet.size_bytes


def test_copy_clones_nested_packet():
    inner = udp_packet("100.0.0.10", "100.1.0.10", 1, 2, payload_bytes=10)
    outer = Packet(headers=[IPv4Header(src="10.0.0.1", dst="11.0.0.1", proto=4)], payload=inner)
    clone = outer.copy()
    clone.inner.ip.ttl = 1
    assert inner.ip.ttl == 64


def test_tcp_flags():
    syn = tcp_packet("1.1.1.1", "2.2.2.2", 1000, 80, flags=TCP_SYN)
    synack = tcp_packet("2.2.2.2", "1.1.1.1", 80, 1000, flags=TCP_SYN | TCP_ACK)
    ack = tcp_packet("1.1.1.1", "2.2.2.2", 1000, 80, flags=TCP_ACK)
    assert syn.tcp.is_syn and not syn.tcp.is_synack
    assert synack.tcp.is_synack and not synack.tcp.is_syn
    assert not ack.tcp.is_syn and not ack.tcp.is_synack


def test_packet_uids_unique():
    a = udp_packet("1.1.1.1", "2.2.2.2", 1, 2)
    b = udp_packet("1.1.1.1", "2.2.2.2", 1, 2)
    assert a.uid != b.uid


def test_str_renders_stack():
    packet = udp_packet("1.1.1.1", "2.2.2.2", 1, 53, payload_bytes=5)
    text = str(packet)
    assert "1.1.1.1" in text and "UDP" in text
