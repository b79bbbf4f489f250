"""Suite-wide fixtures."""

import gc

import pytest


def _collector_state():
    return {"enabled": gc.isenabled(), "threshold": gc.get_threshold(),
            "frozen": gc.get_freeze_count()}


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Fail the test that leaks process-global collector state.

    ``worldbuild.gc_paused`` disables the collector and splices heaps with
    ``gc.freeze()``/``gc.unfreeze()``; whatever path runs it — or anything
    else that touches the collector — must hand back the enabled flag, the
    thresholds and the freeze count it found.  Autouse fixtures are set up
    first and torn down last, so a fixture that toggles the collector and
    restores it (``collector`` in ``test_worldbuild.py``) composes.  The
    freeze count found is 0 on CPython 3.11 and 3.13 and the interpreter's
    own parked immortal objects on 3.12 (375, steady; a full pass puts them
    back after an ``unfreeze``).
    """
    before = _collector_state()
    yield
    assert _collector_state() == before


@pytest.fixture
def no_world_builds(monkeypatch):
    """Fail the test if anything builds a world: what a rejected sweep must
    not have done by the time it is rejected."""
    from repro.experiments import sweep, worldbuild

    def no_builds(_config):
        raise AssertionError("a world was built before the input was rejected")
    for module in (sweep, worldbuild):
        monkeypatch.setattr(module, "build_world", no_builds)


@pytest.fixture
def dns_queries(monkeypatch):
    """``(sending node, destination)`` of every DNS query a socket sends
    with :meth:`UdpSocket.request`, in order: one per step of a resolver's
    walk and per stub lookup (a request's timed-out re-sends are not new
    requests)."""
    from repro.dns.message import DnsMessage
    from repro.net.host import UdpSocket

    sent = []
    request = UdpSocket.request

    def recording(socket, dst, dport, payload=None, **kwargs):
        if isinstance(payload, DnsMessage):
            sent.append((socket.host, dst))
        return request(socket, dst, dport, payload=payload, **kwargs)

    monkeypatch.setattr(UdpSocket, "request", recording)
    return sent


def sent_by(queries, node):
    """How many of *queries* (the ``dns_queries`` fixture) *node* sent."""
    return sum(sender is node for sender, _dst in queries)


def cache_reads(cache):
    """What each ``get`` on *cache* returns from now on (None: a miss), in
    order: a list the run fills."""
    reads = []
    get = cache.get

    def recording(key):
        reads.append(get(key))
        return reads[-1]
    cache.get = recording
    return reads
