"""Destination popularity, flow-size and flow-pacing models."""

import bisect
import math
from dataclasses import dataclass

from repro.net.packet import IPV4_HEADER_BYTES, UDP_HEADER_BYTES


class ZipfSampler:
    """Zipf(s) sampler over ``n`` items (rank 1 most popular).

    The paper's weaknesses show up under realistic skew: popular
    destinations keep caches warm while the tail always misses.
    """

    def __init__(self, n, rng, s=1.0):
        if n < 1:
            raise ValueError("ZipfSampler needs n >= 1")
        if s < 0:
            raise ValueError("Zipf exponent must be non-negative")
        self.n = n
        self.s = s
        self._rng = rng
        weights = [1.0 / (rank ** s) for rank in range(1, n + 1)]
        total = sum(weights)
        self._cumulative = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)
        self._cumulative[-1] = 1.0

    def probability(self, rank):
        """P(item at *rank*), rank counted from 0."""
        if rank == 0:
            return self._cumulative[0]
        return self._cumulative[rank] - self._cumulative[rank - 1]

    def sample(self):
        """Draw an item index in [0, n)."""
        return bisect.bisect_left(self._cumulative, self._rng.random())


#: Supported flow-size distributions.
SIZE_DISTRIBUTIONS = ("constant", "pareto", "lognormal")

#: Tail exponent of ``pareto`` flow sizes.
PARETO_ALPHA = 1.4
#: Shape of ``lognormal`` flow sizes.
LOGNORMAL_SIGMA = 1.0
#: Size cap relative to the distribution scale.
MAX_FACTOR = 50.0
_PARETO_SPAN = 1.0 - MAX_FACTOR ** (-PARETO_ALPHA)
#: Mean of Pareto(PARETO_ALPHA) truncated to [1, MAX_FACTOR].
_PARETO_MEAN = (PARETO_ALPHA / _PARETO_SPAN
                * (1.0 - MAX_FACTOR ** (1.0 - PARETO_ALPHA))
                / (PARETO_ALPHA - 1.0))


class FlowSizeSampler:
    """Flow sizes (in packets) around a target mean: constant or heavy-tailed.

    Internet flow sizes are famously heavy-tailed — most flows are mice, a
    few elephants carry most bytes — and tail behaviour diverges sharply
    from mean behaviour (cf. the scale-free first-passage scaling work in
    PAPERS.md).  Constant sizes keep every cell's cache pressure identical;
    the heavy-tailed variants stress the map-cache tail instead.

    - ``constant``: every flow is exactly ``mean`` packets.  Never draws
      from the RNG, so enabling the sampler with the default distribution
      is byte-identical to not having one.
    - ``pareto``: bounded Pareto(:data:`PARETO_ALPHA`) on
      ``[1, MAX_FACTOR]``, rescaled so the distribution mean equals
      ``mean``.
    - ``lognormal``: lognormal with E[X] = ``mean`` and shape
      :data:`LOGNORMAL_SIGMA`, truncated to ``[1, mean * MAX_FACTOR]``.
    """

    def __init__(self, rng, dist="constant", mean=5):
        if dist not in SIZE_DISTRIBUTIONS:
            raise ValueError(f"unknown size distribution {dist!r}")
        if mean < 1:
            raise ValueError("mean flow size must be >= 1 packet")
        self.dist = dist
        self.mean = float(mean)
        self._rng = rng
        if dist == "lognormal":
            self._mu = math.log(self.mean) - LOGNORMAL_SIGMA ** 2 / 2.0

    def sample(self):
        """Draw one flow size in packets (>= 1)."""
        if self.dist == "constant":
            return max(1, round(self.mean))
        if self.dist == "pareto":
            uniform = self._rng.random()
            raw = (1.0 - uniform * _PARETO_SPAN) ** (-1.0 / PARETO_ALPHA)
            scaled = raw * self.mean / _PARETO_MEAN
        else:
            scaled = self._rng.lognormvariate(self._mu, LOGNORMAL_SIGMA)
            scaled = min(scaled, self.mean * MAX_FACTOR)
        return max(1, round(scaled))


#: Header bytes a flow packet carries on top of its payload un-encapsulated
#: (IPv4 + UDP): the per-packet tax in pacing gaps and fluid chunk sizes.
HEADER_BYTES = IPV4_HEADER_BYTES + UDP_HEADER_BYTES

#: Supported pacing modes: ``constant`` keeps the historical fixed
#: inter-packet spacing for every flow; ``shaped`` sends mice as
#: back-to-back bursts and paces elephants at a target bit rate; ``fluid``
#: additionally advances bulk flows as rate x interval byte chunks posted
#: straight into the link ledgers (no per-packet events).
PACING_MODES = ("constant", "shaped", "fluid")


@dataclass(frozen=True)
class FlowPlan:
    """One flow's byte budget and send schedule.

    ``packets`` datagrams of ``payload_bytes`` each, ``spacing`` seconds
    apart (0.0 means a single back-to-back burst).  ``kind`` records how
    the plan was shaped: ``constant`` (fixed spacing), ``mouse`` (burst),
    ``elephant`` (paced at the shaper's target rate) or ``fluid`` (bulk
    bytes advance as chunks, only the path-discovery packet is real).

    A fluid plan advances ``chunk_packets`` packets' worth of wire bytes
    every ``chunk_interval`` seconds — the chunking of the shaper's pace
    rate, posted by the world's :class:`~repro.traffic.flows.FluidPump` on
    multiples of the interval.  A packet weighs ``payload_bytes`` plus
    :data:`HEADER_BYTES` un-encapsulated; tunnelled hops add what the
    flow's probe measured there.  Both chunk fields are 0 on packet-level
    plans.
    """

    packets: int
    payload_bytes: int
    spacing: float
    kind: str
    chunk_interval: float = 0.0
    chunk_packets: int = 0

    @property
    def byte_budget(self):
        """Application bytes this flow intends to send."""
        return self.packets * self.payload_bytes


class FlowShaper:
    """Turns sampled flow sizes into paced :class:`FlowPlan` objects.

    The size axis (PR 2's :class:`FlowSizeSampler`) decides *how much* a
    flow sends; this decides *when*.  ``constant`` pacing reproduces the
    historical constant-spacing sender exactly — same RNG draws, same
    spacing for every flow — so enabling the shaper with the default mode
    is byte-identical to not having one.  ``shaped`` pacing makes the
    heavy tail temporal: flows at or below ``elephant_threshold`` packets
    are mice and burst back-to-back (spacing 0.0 — their bytes hit the
    first link in one instant), larger flows are
    elephants and space packets so the flow's wire bytes leave at
    ``pace_rate_bps`` (inter-packet gap = wire bytes per packet * 8 /
    rate).

    :data:`HEADER_BYTES` is the per-packet header tax added to
    ``payload_bytes`` when converting the target bit rate into a gap.
    ``elephant_threshold`` defaults to twice the sampler's
    mean, so constant-size workloads never contain elephants and the
    threshold scales with the size axis.

    ``fluid`` pacing classifies exactly like ``shaped`` but flows above
    ``fluid_threshold`` packets (default: the elephant threshold) become
    ``fluid`` plans: one real path-discovery packet, then the remaining
    bytes advance as chunks of ``chunk_interval`` seconds' worth of the
    pace rate.  Mice — and anything at or below the threshold — stay
    packet-level and event-exact.
    """

    def __init__(self, sizes, payload_bytes, pacing, spacing=0.001,
                 pace_rate_bps=2_000_000.0, elephant_threshold=None,
                 fluid_threshold=None, chunk_interval=0.25):
        if pacing not in PACING_MODES:
            raise ValueError(f"unknown pacing mode {pacing!r}")
        if payload_bytes < 1:
            raise ValueError("payload_bytes must be >= 1")
        if pace_rate_bps <= 0:
            raise ValueError("pace_rate_bps must be positive")
        if spacing < 0:
            raise ValueError("packet spacing must be >= 0")
        if chunk_interval <= 0:
            raise ValueError("chunk_interval must be positive")
        self.sizes = sizes
        self.payload_bytes = int(payload_bytes)
        self.pacing = pacing
        self.spacing = float(spacing)
        self.pace_rate_bps = float(pace_rate_bps)
        if elephant_threshold is None:
            elephant_threshold = 2.0 * sizes.mean
        if elephant_threshold < 1:
            raise ValueError("elephant_threshold must be >= 1 packet")
        self.elephant_threshold = elephant_threshold
        if fluid_threshold is None:
            fluid_threshold = elephant_threshold
        if fluid_threshold < 1:
            raise ValueError("fluid_threshold must be >= 1 packet")
        self.fluid_threshold = fluid_threshold
        self.chunk_interval = float(chunk_interval)

    @property
    def pace_spacing(self):
        """The elephant inter-packet gap (seconds) at the target rate."""
        wire_bytes = self.payload_bytes + HEADER_BYTES
        return wire_bytes * 8.0 / self.pace_rate_bps

    @property
    def chunk_packets(self):
        """Packets' worth of bytes per fluid chunk at the pace rate."""
        wire_bytes = self.payload_bytes + HEADER_BYTES
        return max(1, round(self.pace_rate_bps * self.chunk_interval
                            / (8.0 * wire_bytes)))

    def plan(self):
        """Draw one flow: a size from the sampler, shaped into a plan.

        Consumes exactly the RNG draws the size sampler does (none in
        ``constant`` size mode), so swapping pacing modes never shifts the
        random stream other flows see.
        """
        packets = self.sizes.sample()
        if self.pacing == "constant":
            return FlowPlan(packets=packets, payload_bytes=self.payload_bytes,
                            spacing=self.spacing, kind="constant")
        if self.pacing == "fluid" and packets > self.fluid_threshold:
            return FlowPlan(packets=packets, payload_bytes=self.payload_bytes,
                            spacing=self.pace_spacing, kind="fluid",
                            chunk_interval=self.chunk_interval,
                            chunk_packets=self.chunk_packets)
        if packets > self.elephant_threshold:
            return FlowPlan(packets=packets, payload_bytes=self.payload_bytes,
                            spacing=self.pace_spacing, kind="elephant")
        return FlowPlan(packets=packets, payload_bytes=self.payload_bytes,
                        spacing=0.0, kind="mouse")
