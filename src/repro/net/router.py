"""IP routers: FIB-driven forwarding with TTL handling and forward taps."""

from repro.net.errors import NoRouteError
from repro.net.node import Node


class Router(Node):
    """A node that forwards packets not addressed to itself.

    Forwarding decrements TTL (dropping at zero), runs any registered
    forward taps (a tap may consume the packet — the PCE's transparent
    interception uses this), then performs an LPM lookup and transmits.
    """

    __slots__ = ()

    def forward(self, packet):
        ip = packet.ip
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
