"""DET02 fixture: set iteration order leaking into ordered work."""


def schedule_all(sim, hosts):
    for host in set(hosts):
        sim.call_in(0.0, host.start)


def digest_names(names):
    return ",".join({name.lower() for name in names})


def materialise(flags):
    pending = {flag for flag in flags}
    return list(pending)
