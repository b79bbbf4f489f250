"""IP routers: FIB-driven forwarding with TTL handling and forward taps."""

from repro.net.errors import NoRouteError
from repro.net.node import Node
from repro.net.packet import IPv4Header


class Router(Node):
    """A node that forwards packets not addressed to itself.

    Forwarding decrements TTL (dropping at zero), runs any registered
    forward taps (a tap may consume the packet — the PCE's transparent
    interception uses this), then performs an LPM lookup and transmits.
    """

    __slots__ = ()

    def receive(self, packet):
        """Deliver *packet* if it is addressed here, else forward it."""
        headers = packet.headers    # Packet.ip, inline
        ip = headers[0] if headers and type(headers[0]) is IPv4Header else packet.find(IPv4Header)
        if ip is None:
            return
        if ip.dst._value in self._local_values:
            self.deliver_local(packet)
            return
        if ip.ttl <= 1:
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name, "router.ttl-expired",
                                      dst=str(ip.dst), uid=packet.uid)
            return
        ip.ttl -= 1
        for tap in self.forward_taps:
            if tap(packet, self):
                return
        try:
            entry = self.fib.lookup(ip.dst)
        except NoRouteError:
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name, "router.no-route",
                                      dst=str(ip.dst), uid=packet.uid)
            return
        if entry.interface is None or entry.interface.link is None:
            return
        entry.interface.link.send(packet)
