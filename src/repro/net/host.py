"""End hosts: the sources and sinks of application traffic.

Hosts expose a tiny socket-like API: :meth:`Host.open_udp` returns a
:class:`UdpSocket` whose :meth:`~UdpSocket.request` method implements the
send-and-await-reply pattern used by DNS lookups, with timeout and retry:
an event the caller hangs a callback on.
"""

from repro.net.addresses import IPv4Address
from repro.net.node import Node
from repro.net.packet import udp_packet


class RequestTimeout(Exception):
    """A :meth:`UdpSocket.request` exceeded its timeout (after retries)."""


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
        packet = udp_packet(self.host.address, IPv4Address(dst), self.port, dport,
                            payload=payload, payload_bytes=payload_bytes, meta=meta)
        self.host.send(packet)
        return packet

    def request(self, dst, dport, payload=None, payload_bytes=0, timeout=2.0, retries=2):
        """Send and return an event for the next datagram on this socket.

        The event succeeds with the reply packet.  Every *timeout* without
        one the same payload object is sent again, up to *retries* extra
        times; then the event fails with :class:`RequestTimeout`, which a
        waiter's callback sees as ``not request.ok``.  A late reply to an
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
            done.fail(RequestTimeout(f"{self.host.name}:{self.port} -> {dst}:{dport}"))
            return
        self.send(dst, dport, payload=payload, payload_bytes=payload_bytes)
        self.host.sim.call_in(timeout, self._attempt, done, sends_left - 1)

    def close(self):
        self.host.unbind_udp(self.port)


class Host(Node):
    """An end host with a single address and simple socket API."""

    def __init__(self, sim, name, address=None):
        super().__init__(sim, name)
        self._address = IPv4Address(address) if address is not None else None
        if self._address is not None:
            self.add_address(self._address)
        self._next_ephemeral = 49152

    @property
    def address(self):
        """The host's primary address."""
        return self._address if self._address is not None else self.primary_address()

    @address.setter
    def address(self, value):
        if self._journal is not None:
            self._touch()
        self._address = IPv4Address(value)
        self.add_address(self._address)

    _counter_attrs = (*Node._counter_attrs, "_next_ephemeral")

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
