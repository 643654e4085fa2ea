"""HL005 fixture: the bound-series form (never imported).

A call site that binds its series once and keeps them is held to the
same rules at the bind site: literal label names, explicit ``.labels()``
keywords.  (Event types are checked by emit() itself.)
"""

from repro import obs


class BadBoundSite:
    def __init__(self, names, values, device):
        fam = obs.counter("bad_bound_total", "x", tuple(names))  # finding
        self._io = fam.labels(**values)                          # finding
        self._lat = obs.histogram("bad_bound_seconds", "x",
                                  ("device",)).labels(device)    # finding
        self._by_op = {op: obs.gauge("bad_bound_depth", "x", names).labels(
            **{"op": op}) for op in ("read", "write")}           # 2 findings

    def record(self, t):
        self._io.inc()
        obs.event("bound_site_typo", t)                          # not HL005


class GoodBoundSite:
    def __init__(self, device):
        fam = obs.counter("good_bound_total", "x", ("device", "op"))
        self._read = fam.labels(device=device, op="read")   # ok: bound once
        self._hits = obs.counter("good_bound_hits_total", "x").labels()
        self._series = {}

    def record(self, op, t):
        series = self._series.get(op)
        if series is None:                                  # ok: bound lazily
            series = self._series[op] = obs.histogram(
                "good_bound_seconds", "x", ("op",)).labels(op=op)
        series.observe(t)
        self._read.inc()                                    # ok: no lookup
        self._hits.inc()
        obs.event(obs.EV_SEGMENT_FETCH, t, tsegno=1)        # ok: taxonomy
