"""HL001 fixture: helpers that reach the wall clock (never imported)."""

import time


def _stamp():
    return time.time()            # finding: the direct call


def _indirection():               # ok: a helper is not a finding
    return _stamp()


def bad_transitive(segments):     # ok: two hops from time.time
    started = _indirection()
    return started, len(segments)


def good_virtual(clock, segments):
    started = clock.now()         # ok: virtual clock
    return started, len(segments)
