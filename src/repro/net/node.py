"""Nodes and interfaces: the forwarding and demultiplexing machinery.

A :class:`Node` owns interfaces, a FIB, and a registry of protocol and UDP
port handlers.  Higher layers (DNS servers, LISP tunnel routers, PCEs) are
implemented as *services*: objects that bind handlers on a node rather than
subclassing it, so one physical node can host several roles, exactly like
the paper's co-located DNS + PCE.
"""

from types import MappingProxyType

from repro.net.addresses import IPv4Address
from repro.net.errors import NoRouteError, PortInUseError
from repro.net.fib import Fib
from repro.net.packet import PROTO_UDP, udp_packet
from repro.sim.state import Journaled


#: What a node's ``services``, ``_proto_handlers`` and ``_udp_ports`` are
#: until their first registration: most nodes register nothing.
_NOTHING = MappingProxyType({})


class Interface:
    """A network attachment point on a node.

    ``key`` is the interface's key in ``node.interfaces``; :attr:`name`
    qualifies it with the node's name.
    """

    __slots__ = ("node", "key", "address", "link")

    def __init__(self, node, key, address=None):
        self.node = node
        self.key = key
        self.address = (address if address is None or type(address) is IPv4Address
                        else IPv4Address(address))
        self.link = None

    @property
    def name(self):
        return f"{self.node.name}.{self.key}"

    def __str__(self):
        return self.name


class Node(Journaled):
    """A network element with interfaces, a FIB, and protocol handlers.

    A node holds one to three addresses and most register no service,
    handler or tap, so the address collections and ``forward_taps`` are
    tuples and the three registries share one read-only empty mapping
    until their first registration.
    """

    __slots__ = ("sim", "name", "interfaces", "fib", "extra_addresses",
                 "_local_values", "services", "_proto_handlers", "_udp_ports",
                 "forward_taps", "_journal")

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self.interfaces = {}
        self.fib = Fib(owner=self)
        self.extra_addresses = ()
        #: Integer values of the interface and extra addresses — what
        #: :meth:`is_local` and ``Router.receive`` test, once per received
        #: packet.  Kept in step by add_interface/add_address.
        self._local_values = ()
        self.services = _NOTHING
        self._proto_handlers = _NOTHING
        self._udp_ports = _NOTHING
        self.forward_taps = ()
        self._journal = None

    def __str__(self):
        return self.name

    def __repr__(self):
        return f"<{self.__class__.__name__} {self.name}>"

    # ------------------------------------------------------------------ #
    # Interfaces and addressing
    # ------------------------------------------------------------------ #

    def add_interface(self, name, address=None):
        """Create and register an interface; returns it."""
        if name in self.interfaces:
            raise ValueError(f"{self.name} already has interface {name}")
        interface = Interface(self, name, address)
        self.interfaces[name] = interface
        if interface.address is not None:
            if self._journal is not None:
                self._touch()
            self._add_local_value(interface.address._value)
        return interface

    def _add_local_value(self, value):
        if value not in self._local_values:
            # add_interface and add_address touched the journal.
            self._local_values += (value,)  # repro: allow=SNAP03

    def add_address(self, address):
        """Register an additional local address (e.g. a loopback/service IP)."""
        if self._journal is not None:
            self._touch()
        if type(address) is not IPv4Address:
            address = IPv4Address(address)
        if address not in self.extra_addresses:
            self.extra_addresses += (address,)
        self._add_local_value(address._value)

    def is_local(self, address):
        if type(address) is not IPv4Address:
            address = IPv4Address(address)
        return address._value in self._local_values

    # ------------------------------------------------------------------ #
    # Handler registration (services plug in here)
    # ------------------------------------------------------------------ #

    def register_service(self, name, service):
        """Attach a named service object for later lookup."""
        if self._journal is not None:
            self._touch()
        if self.services is _NOTHING:
            self.services = {}
        self.services[name] = service
        return service

    def register_protocol(self, proto, handler):
        """Handle locally-delivered packets of IP protocol *proto*."""
        if self._journal is not None:
            self._touch()
        if self._proto_handlers is _NOTHING:
            self._proto_handlers = {}
        self._proto_handlers[proto] = handler

    def bind_udp(self, port, handler):
        """Handle locally-delivered UDP datagrams to *port*.

        *handler(packet, node)* is called with the full packet.
        """
        if port in self._udp_ports:
            raise PortInUseError(f"{self.name} UDP port {port} already bound")
        if self._journal is not None:
            self._touch()
        if self._udp_ports is _NOTHING:
            self._udp_ports = {}
        self._udp_ports[port] = handler

    def unbind_udp(self, port):
        if self._journal is not None:
            self._touch()
        if self._udp_ports is not _NOTHING:
            self._udp_ports.pop(port, None)

    def add_forward_tap(self, tap):
        """Register *tap(packet, node) -> bool* run on forwarded packets.

        A tap returning True consumes the packet (normal forwarding stops).
        This is how the PCE observes DNS traffic transiting through it
        without being the packet's IP destination (Steps 2-6 of Fig. 1).
        """
        if self._journal is not None:
            self._touch()
        self.forward_taps += (tap,)

    # ------------------------------------------------------------------ #
    # Receive path
    # ------------------------------------------------------------------ #

    def receive(self, packet):
        """Entry point for packets arriving from a link (or injected).

        A base node forwards nothing.  Receiving and delivering change
        nothing the node checkpoints, so a packet crossing a node leaves
        it clean.
        """
        ip = packet.ip
        if ip is None:
            return
        if self.is_local(ip.dst):
            self.deliver_local(packet)
        elif self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "node.no-forward",
                                  dst=str(ip.dst), uid=packet.uid)

    def deliver_local(self, packet):
        """Dispatch a packet addressed to this node."""
        ip = packet.ip
        if ip.proto == PROTO_UDP:
            udp = packet.udp
            handler = self._udp_ports.get(udp.dport) if udp is not None else None
            if handler is not None:
                handler(packet, self)
                return
        handler = self._proto_handlers.get(ip.proto)
        if handler is not None:
            handler(packet, self)
            return
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "node.unclaimed",
                                  proto=ip.proto, dst=str(ip.dst), uid=packet.uid)

    # ------------------------------------------------------------------ #
    # Send path
    # ------------------------------------------------------------------ #

    def send(self, packet):
        """Route *packet* via the FIB and put it on the egress link.

        Returns True if the packet was accepted by a link.
        """
        ip = packet.ip
        if ip is None:
            raise ValueError("packet has no IP header")
        if ip.dst._value in self._local_values:    # is_local, inline
            # Local-to-local delivery without touching the wire.
            self.sim.call_in(0.0, self.deliver_local, packet)
            return True
        try:
            entry = self.fib.lookup(ip.dst)
        except NoRouteError:
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name, "node.no-route",
                                      dst=str(ip.dst), uid=packet.uid)
            return False
        interface = entry.interface
        if interface is None or interface.link is None:
            return False
        return interface.link.send(packet)

    # ------------------------------------------------------------------ #
    # World-reuse checkpointing
    # ------------------------------------------------------------------ #

    #: Construction-time identity and wiring: interfaces are created during
    #: topology build and never change during a run.
    _SNAPSHOT_EXEMPT = ("sim", "name", "interfaces")

    def send_udp(self, src, dst, sport, dport, payload=None, payload_bytes=0, meta=None):
        """Build and send a UDP datagram from this node."""
        packet = udp_packet(src, dst, sport, dport, payload=payload,
                            payload_bytes=payload_bytes, meta=meta)
        self.send(packet)
        return packet
