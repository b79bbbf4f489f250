"""What a built world costs per site, in bytes the allocator hands out.

Memory, not time, is the first wall of a large world: every worker that
builds a 50k-site world holds all of it.  ``tracemalloc`` counts Python
allocations exactly, so unlike RSS the figure does not depend on the host
or on what ran before; only the interpreter's own object sizes move it,
and the bounds hold on both CI Pythons (3.11 and 3.12).

Measured at 200 sites, after a warm-up build, on CPython 3.11.7 (3.12.1):
flat ``pce`` 33 778 (33 366) bytes per site, tiered ``alt`` 26 483
(26 102).  Each bound is about 10-12% above the larger figure, and well
below what a world costs when every link carries its own empty ledger and
every node its empty containers (47 830 and 41 165 bytes per site).
"""

import tracemalloc

import pytest

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.worldbuild import build_world

SITES = 200

#: (topology family, control plane) -> bytes per site a build may allocate.
BOUNDS = {
    ("flat", "pce"): 38_000,
    ("tiered", "alt"): 29_500,
}


def _built_bytes(config):
    """Bytes still allocated once *config*'s world is built and settled."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        world = build_world(config)
        allocated = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    world.teardown()
    return allocated


@pytest.mark.parametrize(("family", "plane"), BOUNDS)
def test_a_site_costs_under_its_bound(family, plane):
    def config(sites):
        return ScenarioConfig(control_plane=plane, num_sites=sites,
                              topology=family, tracing=False)

    # A small build first: lazy imports and process-wide caches are paid
    # once per process, not per site.
    _built_bytes(config(4))
    per_site = _built_bytes(config(SITES)) / SITES
    assert per_site < BOUNDS[(family, plane)], \
        f"{family} {plane}: {per_site / 1024:.1f} KB per site"
