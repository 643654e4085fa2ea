"""HL001 fixture: wall-clock reads and unseeded randomness (never imported)."""

import datetime as dt
import random
import time
import time as t
from datetime import datetime


def bad_wall_clock():
    start = time.time()                 # finding: wall clock
    time.sleep(0.1)                     # finding: real sleep
    stamp = datetime.now()              # finding: wall clock
    elapsed = time.perf_counter()       # finding: wall clock
    return start, stamp, elapsed


def bad_randomness():
    a = random.random()                 # finding: global RNG
    b = random.randint(0, 10)           # finding: global RNG
    rng = random.Random()               # finding: unseeded instance
    return a, b, rng


def bad_module_aliases():
    tick = t.monotonic()                # finding: time through an alias
    stamp = dt.datetime.now()           # finding: datetime through an alias
    return tick, stamp


def good(actor, seed):
    rng = random.Random(seed)           # ok: explicitly seeded
    actor.sleep(0.1)                    # ok: virtual time
    return rng.random(), actor.time
