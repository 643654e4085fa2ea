"""Span tracing from outside ``src/``: patch boundary callables, time them.

``Tracer.install()`` replaces every callable named in the layer table
with a wrapper that records one span per call — host start/end on
``time.perf_counter_ns`` plus the span that caused it — and
``uninstall()`` puts the originals back, so traced and untraced slices
can alternate inside one process.  Aggregates are kept per callable and
per layer as the spans close:

* **self time** of a span is its duration minus the part its child
  spans cover, so the self times of all spans partition the traced time;
* **inclusive time** of a layer counts only its *outermost* spans
  (a ``LFS.lookup`` that calls ``LFS.get_inode`` is one namespace
  interval, not two);
* **busy time** of a background layer charges each instant to the
  innermost enclosing span of the busy group, so cleaner time inside a
  daemon tick is the cleaner's and not counted again for the migrator.

A wrapper costs about as much as the cheapest callables it wraps, and a
``read_hot`` op crosses ~150 of them, so raw span times would credit
call-heavy layers (obs, the buffer cache) with the tracer's own work.
The tracer therefore also counts, per callable, the child spans and the
descendant spans of its spans; :meth:`Tracer.totals` takes a per-span
cost — the driver measures it as the slow-down of traced against
interleaved untraced slices, divided by the spans — and removes from
every span the tracer time that fell inside it.  The corrected self
times then sum to the *untraced* time of the traced ops.
:func:`span_inside_ns` measures, on a no-op, the part of a span's cost
that falls inside its own interval; the rest falls in its parent.

Raw spans ``(layer, name, op_id, parent, host_start_ns, host_end_ns)``
are kept in memory only when a span limit is given and are written out
by :meth:`write_spans` after the run.  Wrappers never touch simulated
state: tracing may cost host time, never virtual time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from typing import Dict, Iterable, List, Tuple

_MISSING = object()
#: A span leaving adds its duration to its parent's accumulator, plus
#: this (one child, or its descendants, counted above the nanoseconds).
_SHIFT = 50
_UNIT = 1 << _SHIFT
_MASK = _UNIT - 1


def _resolve(spec: str):
    """``"module:Class.method"`` -> (owner object, attribute name)."""
    modname, _, qual = spec.partition(":")
    owner = importlib.import_module(modname)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    getattr(owner, attr)  # AttributeError if the callable is gone
    return owner, attr


class Tracer:
    """Wraps the layer table's callables and aggregates their spans."""

    def __init__(self, layers: Dict[str, List[str]],
                 busy_layers: Iterable[str] = (),
                 span_limit: int = 0) -> None:
        self.layer_names: List[str] = list(layers)
        self.names: List[str] = []
        self.layer_of: List[int] = []
        #: layer -> names that did not resolve (metrics are then partial)
        self.unresolved: Dict[str, List[str]] = {}
        self._targets: List[Tuple[object, str, int, int]] = []
        # Per callable: spans, raw self ns, raw inclusive ns, direct
        # child spans, descendant spans.
        self.calls: List[int] = []
        self._self: List[int] = []
        self._incl: List[int] = []
        self._kids: List[int] = []
        self._desc: List[int] = []
        for lidx, layer in enumerate(self.layer_names):
            for spec in layers[layer]:
                try:
                    owner, attr = _resolve(spec)
                except (ImportError, AttributeError):
                    self.unresolved.setdefault(layer, []).append(spec)
                    continue
                self._targets.append((owner, attr, self.slot(spec, lidx),
                                      lidx))
        nl = len(self.layer_names)
        # Per layer: raw ns, descendant spans and number of its outermost
        # spans; raw busy ns and the spans inside them charged to it.
        self._layer_incl = [0] * nl
        self._layer_desc = [0] * nl
        self._layer_outer = [0] * nl
        self._busy_ns = [0] * nl
        self._busy_desc = [0] * nl
        self._busy = [layer in busy_layers for layer in self.layer_names]
        self._depth = [0] * nl
        self._stack: List[int] = []       # per open span: child ns + kids
        self._busy_stack: List[int] = []  # nested busy ns + their spans
        self._count = [0]                 # spans opened so far
        self._ids: List[int] = []         # open span ids (raw spans only)
        self.span_limit = span_limit
        self.spans: List[tuple] = []
        #: The driver writes the current op number here (-1 = background).
        self.op_cell = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    def slot(self, name: str, lidx: int) -> int:
        """A new aggregate slot for callable ``name`` of layer ``lidx``."""
        self.names.append(name)
        self.layer_of.append(lidx)
        for table in (self.calls, self._self, self._incl, self._kids,
                      self._desc):
            table.append(0)
        return len(self.names) - 1

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, idx, lidx in self._targets:
            raw = vars(owner).get(attr, _MISSING)
            inherited = raw is _MISSING
            if inherited:
                raw = getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, idx, lidx))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(raw.__func__, idx, lidx))
            else:
                new = self.wrap(raw, idx, lidx)
            self._patches.append((owner, attr, _MISSING if inherited else raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    # -- span bookkeeping ----------------------------------------------------

    def _enter(self, idx: int, lidx: int) -> Tuple[int, int]:
        self._depth[lidx] += 1
        self._stack.append(0)
        if self._busy[lidx]:
            self._busy_stack.append(0)
        self._count[0] += 1
        if self.span_limit:
            self._ids.append(self._count[0])
        return (self._count[0], time.perf_counter_ns())

    def _leave(self, idx: int, lidx: int, token: Tuple[int, int]) -> None:
        t1 = time.perf_counter_ns()
        opened, t0 = token
        dt = t1 - t0
        inside = self._count[0] - opened    # descendant spans
        stack = self._stack
        below = stack.pop()
        self.calls[idx] += 1
        self._self[idx] += dt - (below & _MASK)
        self._kids[idx] += below >> _SHIFT
        self._incl[idx] += dt
        self._desc[idx] += inside
        if stack:
            stack[-1] += dt + _UNIT
        self._depth[lidx] -= 1
        if not self._depth[lidx]:
            self._layer_incl[lidx] += dt
            self._layer_desc[lidx] += inside
            self._layer_outer[lidx] += 1
        if self._busy[lidx]:
            busy = self._busy_stack
            nested = busy.pop()
            self._busy_ns[lidx] += dt - (nested & _MASK)
            self._busy_desc[lidx] += inside - (nested >> _SHIFT)
            if busy:
                busy[-1] += dt + (inside << _SHIFT)
        if self.span_limit:
            ids = self._ids
            span_id = ids.pop()
            if len(self.spans) < self.span_limit:
                self.spans.append((lidx, idx, self.op_cell[0], span_id,
                                   ids[-1] if ids else -1, t0, t1))

    def wrap(self, fn, idx: int, lidx: int):
        """The span-recording wrapper of ``fn`` (slot ``idx``, layer
        ``lidx``)."""
        enter, leave = self._enter, self._leave
        if inspect.isgeneratorfunction(fn):
            # One span per resume: the time between yields belongs to
            # whoever drives the generator, not to this callable.
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        token = enter(idx, lidx)
                        try:
                            item = next(gen)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            leave(idx, lidx, token)
                        yield item
                finally:
                    gen.close()
        elif self.span_limit or self._busy[lidx]:
            def wrapper(*args, **kwargs):
                token = enter(idx, lidx)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(idx, lidx, token)
        else:
            # The hot form: same arithmetic as _enter/_leave, inlined.
            calls, self_ns, incl_ns = self.calls, self._self, self._incl
            kids, desc = self._kids, self._desc
            layer_incl, layer_desc = self._layer_incl, self._layer_desc
            layer_outer = self._layer_outer
            depth, stack, count = self._depth, self._stack, self._count
            clock = time.perf_counter_ns

            def wrapper(*args, **kwargs):
                outer = depth[lidx]
                depth[lidx] = outer + 1
                stack.append(0)
                opened = count[0] = count[0] + 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    inside = count[0] - opened
                    below = stack.pop()
                    calls[idx] += 1
                    self_ns[idx] += dt - (below & _MASK)
                    kids[idx] += below >> _SHIFT
                    incl_ns[idx] += dt
                    desc[idx] += inside
                    if stack:
                        stack[-1] += dt + _UNIT
                    depth[lidx] = outer
                    if not outer:
                        layer_incl[lidx] += dt
                        layer_desc[lidx] += inside
                        layer_outer[lidx] += 1
        return functools.wraps(fn)(wrapper)

    # -- reading -------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return self._count[0]

    def spans_under(self, layer: str) -> int:
        """Spans at or below the outermost spans of ``layer``."""
        lidx = self.layer_names.index(layer)
        return self._layer_desc[lidx] + self._layer_outer[lidx]

    def totals(self, per_span: float = 0.0, inside: float = 0.0) -> dict:
        """Every aggregate, with the tracer's own time removed.

        ``per_span`` is what one span costs in all, ``inside`` the part
        of it between the span's own two clock reads (the rest falls in
        its parent).  A span's corrected duration is its raw duration
        minus ``per_span`` for each descendant span and ``inside`` for
        itself; self, inclusive and busy times follow from that.
        """
        outside = per_span - inside
        return {
            "calls": list(self.calls),
            "self_ns": [raw - inside * n - outside * kids for raw, n, kids
                        in zip(self._self, self.calls, self._kids)],
            "incl_ns": [raw - inside * n - per_span * desc for raw, n, desc
                        in zip(self._incl, self.calls, self._desc)],
            # The few outermost and busy spans' own inside parts are
            # left in: thousands of ns against seconds.
            "layer_incl_ns": [raw - per_span * desc for raw, desc
                              in zip(self._layer_incl, self._layer_desc)],
            "busy_ns": [raw - per_span * desc for raw, desc
                        in zip(self._busy_ns, self._busy_desc)],
        }

    def by_layer(self, per_name: List[float]) -> Dict[str, float]:
        out = dict.fromkeys(self.layer_names, 0)
        for idx, value in enumerate(per_name):
            out[self.layer_names[self.layer_of[idx]]] += value
        return out

    def of(self, per_name: List[float], spec: str) -> float:
        """One callable's aggregate (0 if it did not resolve)."""
        return per_name[self.names.index(spec)] if spec in self.names else 0

    def write_spans(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            for lidx, idx, op_id, span_id, parent, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "layer": self.layer_names[lidx], "name": self.names[idx],
                    "op_id": op_id, "id": span_id, "parent": parent,
                    "host_start_ns": t0, "host_end_ns": t1}) + "\n")
        return len(self.spans)


def span_inside_ns(calls: int = 20_000, rounds: int = 5) -> int:
    """Tracer ns that fall *inside* a span's own interval, per span.

    What the spans of a wrapped no-op measure is nothing else.  The
    smallest of ``rounds`` tries: noise only ever adds.
    """
    def noop(a, b):
        pass

    best = None
    for _ in range(rounds):
        tracer = Tracer({"probe": []})
        wrapped = tracer.wrap(noop, tracer.slot("noop", 0), 0)
        for _ in range(calls):
            wrapped(1, 2)
        inside = tracer.totals()["self_ns"][0] // calls
        best = inside if best is None else min(best, inside)
    return best
