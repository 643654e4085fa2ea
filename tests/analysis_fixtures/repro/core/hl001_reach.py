"""HL001 fixture: wall-clock reach through helpers (never imported)."""

import time


def _stamp():
    return time.time()            # finding: the direct call


def _indirection():               # finding: one hop from time.time
    return _stamp()


def bad_transitive(segments):     # finding: two hops from time.time
    started = _indirection()
    return started, len(segments)


def good_virtual(clock, segments):
    started = clock.now()         # ok: virtual clock
    return started, len(segments)
