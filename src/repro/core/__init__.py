"""The paper's contribution: a PCE-based control plane for LISP.

Each site runs a Path Computation Element (PCE) co-located with — and in
the data path of — its DNS server.  The PCE:

- learns, via IPC with the local resolver, which local host started a
  lookup (Step 1) and picks the site's *ingress* locator for the coming
  reverse traffic from its IRC engine's round robin;
- transparently observes the iterative DNS exchange (Steps 2-5);
- acting as the destination-side PCE, intercepts the authoritative reply
  carrying the destination EID and encapsulates it — together with the
  precomputed EID-to-RLOC mapping — toward the querying resolver on a
  dedicated UDP port P (Step 6);
- acting as the source-side PCE, decapsulates port-P messages, forwards
  the original DNS reply to the resolver (Step 7a) and pushes the mapping
  tuple (E_S, E_D, RLOC_S, RLOC_D) to *all* local ITRs (Step 7b),
  supporting two independent one-way tunnels;
- completes two-way resolution when the first data packet reaches the
  chosen ETR, which multicasts the reverse mapping to its sibling ETRs
  and updates the PCE database (§2, closing paragraph).

Public entry point: :class:`repro.core.control_plane.PceControlPlane`.
"""

from repro.core.control_plane import PceControlPlane
from repro.core.irc import IrcEngine
from repro.core.messages import (
    PORT_MAPPING_PUSH,
    PORT_PCE,
    PORT_REVERSE,
    EncapsulatedDnsReply,
    MappingPush,
    ReverseMappingAnnounce,
)
from repro.core.pce import Pce
from repro.core.te import plan_rebalance

__all__ = [
    "EncapsulatedDnsReply",
    "IrcEngine",
    "MappingPush",
    "Pce",
    "PceControlPlane",
    "PORT_MAPPING_PUSH",
    "PORT_PCE",
    "PORT_REVERSE",
    "ReverseMappingAnnounce",
    "plan_rebalance",
]
