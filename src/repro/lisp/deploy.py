"""Deploy LISP over a built topology: xTRs on border routers + a mapping system."""

from repro.lisp.mappings import site_mapping
from repro.lisp.xtr import TunnelRouter


def deploy_lisp(sim, topology, mapping_system, miss_policy, gleaning,
                mapping_ttl):
    """Instantiate a :class:`TunnelRouter` on every border router.

    Registers each site's authoritative mapping with *mapping_system*, then
    calls the system's ``finalize`` hook (overlay construction / database
    push).  The single *miss_policy* instance is shared across xTRs so its
    statistics aggregate over the whole deployment.

    Returns ``{site_index: [TunnelRouter, ...]}``.
    """
    xtrs_by_site = {}
    for site in topology.sites:
        mapping = site_mapping(site, ttl=mapping_ttl)
        mapping_system.register_site(site, mapping)
        routers = []
        for node in site.xtrs:
            routers.append(TunnelRouter(sim, node, site, miss_policy=miss_policy,
                                        mapping_system=mapping_system,
                                        gleaning=gleaning))
        xtrs_by_site[site.index] = routers
    mapping_system.finalize()
    return xtrs_by_site
