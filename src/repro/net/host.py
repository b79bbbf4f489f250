"""End hosts: the sources and sinks of application traffic.

Hosts expose a tiny socket-like API: :meth:`Host.open_udp` returns a
:class:`UdpSocket` whose :meth:`~UdpSocket.request` method implements the
send-and-await-reply pattern used by DNS lookups, with timeout and retry:
an event the caller hangs a callback on, which succeeds with the reply
packet or, once every attempt went unanswered, with ``None``.
"""

from repro.net.addresses import IPv4Address
from repro.net.node import Node
from repro.net.packet import udp_packet


class UdpSocket:
    """An ephemeral UDP endpoint bound to a host port."""

    def __init__(self, host, port):
        self.host = host
        self.port = port
        #: Outstanding requests, oldest first: completion event -> what a
        #: re-send needs.  The reply takes the entry, so a pending deadline
        #: keeps neither the payload nor anything else of an answered one.
        self._waiters = {}
        self.on_datagram = None
        host.bind_udp(port, self._deliver)

    def _deliver(self, packet, _node):
        if self._waiters:
            done = next(iter(self._waiters))
            del self._waiters[done]
            done.succeed(packet)
        elif self.on_datagram is not None:
            self.on_datagram(packet)

    def send(self, dst, dport, payload=None, payload_bytes=0, meta=None):
        """Fire-and-forget datagram."""
        # The IPv4 header wraps a *dst* that is not yet an IPv4Address.
        packet = udp_packet(self.host.address, dst, self.port, dport,
                            payload=payload, payload_bytes=payload_bytes, meta=meta)
        self.host.send(packet)
        return packet

    def request(self, dst, dport, payload=None, payload_bytes=0, timeout=2.0, retries=2):
        """Send and return an event for the next datagram on this socket.

        The event succeeds with the reply packet.  Every *timeout* without
        one the same payload object is sent again, up to *retries* extra
        times; then the event succeeds with ``None``.  A late reply to an
        earlier attempt satisfies the request like any other.
        """
        done = self.host.sim.event()
        self._waiters[done] = (dst, dport, payload, payload_bytes, timeout)
        self._attempt(done, retries + 1)
        return done

    def _attempt(self, done, sends_left):
        request = self._waiters.get(done)
        if request is None:
            return  # answered: this deadline fires into nothing
        dst, dport, payload, payload_bytes, timeout = request
        if sends_left <= 0:
            del self._waiters[done]
            done.succeed(None)
            return
        self.send(dst, dport, payload=payload, payload_bytes=payload_bytes)
        self.host.sim.call_in(timeout, self._attempt, done, sends_left - 1)

    def close(self):
        self.host.unbind_udp(self.port)


class Host(Node):
    """An end host with a single address and simple socket API."""

    __slots__ = ("address", "_next_ephemeral")

    def __init__(self, sim, name, address):
        super().__init__(sim, name)
        #: The host's one address.
        self.address = (address if type(address) is IPv4Address
                        else IPv4Address(address))
        self.add_address(self.address)
        self._next_ephemeral = 49152

    def ephemeral_port(self):
        """Allocate the next ephemeral port (wraps within the IANA range)."""
        if self._journal is not None:
            self._touch()
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 65535:
            self._next_ephemeral = 49152
        return port

    def open_udp(self):
        """Open a UDP socket on the next ephemeral port."""
        return UdpSocket(self, self.ephemeral_port())

    #: Set once at construction (its address is among the node's wiring).
    _SNAPSHOT_EXEMPT = ("address",)
