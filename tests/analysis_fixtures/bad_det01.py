"""DET01 fixture: every flavour of unsanctioned entropy."""

import random
import time
import uuid

JITTER = random.random()
STARTED = time.time()
TOKEN = uuid.uuid4()
GENERATOR = random.Random()


def worst_order(items):
    return sorted(items, key=id)


class KeepsItsStream:
    def __init__(self, sim, site):
        self.noise = sim.rng.stream("noise")
        streams = sim.rng
        jitter = streams.stream(f"jitter-{site}")
        self.jitter = jitter
        self.name = f"jitter-{site}"

    def draw(self, sim):
        return sim.rng.stream(self.name).random()
