"""Structured event tracing stamped with the virtual clock.

Where the registry answers "how much", the trace answers "what happened,
in what order".  Hot paths emit typed events — a demand fetch, a staged
segment copied out, a cache line ejected, a robot arm swap — each
stamped with the emitting actor's virtual time.  Events land in a
bounded ring buffer and export losslessly to JSON, which is what
the golden-trace regression tests diff across runs.
"""

from __future__ import annotations

import re
import struct
from collections import deque
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

__all__ = [
    "TraceError",
    "TraceEvent",
    "TraceRecorder",
    "BASE_EVENT_TYPES",
    "EVENT_TYPES",
    "register_event_type",
    "EV_SEGMENT_FETCH",
    "EV_SEGMENT_WRITEOUT",
    "EV_CACHE_EJECT",
    "EV_CLEAN_PASS",
    "EV_MIGRATE_PICK",
    "EV_VOLUME_SWITCH",
]

#: The event taxonomy.  One constant per observable state transition the
#: paper's evaluation cares about.
EV_SEGMENT_FETCH = "segment_fetch"        # tertiary -> disk cache line
EV_SEGMENT_WRITEOUT = "segment_writeout"  # staged line -> tertiary volume
EV_CACHE_EJECT = "cache_eject"            # read-only line dropped
EV_CLEAN_PASS = "clean_pass"              # disk cleaner pass finished
EV_MIGRATE_PICK = "migrate_pick"          # policy chose a migration unit
EV_VOLUME_SWITCH = "volume_switch"        # robot swapped media in a drive

#: The canonical built-in taxonomy.  :meth:`TraceRecorder.emit` treats
#: an event type as known iff it is here or was passed to
#: :func:`register_event_type`.
BASE_EVENT_TYPES: FrozenSet[str] = frozenset({
    EV_SEGMENT_FETCH,
    EV_SEGMENT_WRITEOUT,
    EV_CACHE_EJECT,
    EV_CLEAN_PASS,
    EV_MIGRATE_PICK,
    EV_VOLUME_SWITCH,
})

#: The live taxonomy: the base set plus everything registered at runtime.
EVENT_TYPES: Set[str] = set(BASE_EVENT_TYPES)

#: Event types are snake_case identifiers so they survive JSON round-trips
#: and read unambiguously in golden traces.
_EVENT_TYPE_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def register_event_type(etype: str) -> str:
    """Extend the taxonomy (subsystems added later register here).

    Idempotent: registering an already-known type (including a base type)
    is a no-op, so import-time registrations survive module reloads and
    repeated test setup.
    """
    if not etype or not isinstance(etype, str):
        raise TraceError(f"event type must be a non-empty string: {etype!r}")
    if etype in EVENT_TYPES:
        return etype
    if not _EVENT_TYPE_RE.match(etype):
        raise TraceError(
            f"event type {etype!r} must be a snake_case identifier")
    EVENT_TYPES.add(etype)
    return etype


class TraceError(ValueError):
    """Misuse of the tracing API."""


class TraceEvent:
    """One typed, virtual-clock-stamped event."""

    __slots__ = ("etype", "t", "fields")

    def __init__(self, etype: str, t: float, fields: Dict[str, object]) -> None:
        self.etype = etype
        self.t = t
        self.fields = fields

    def to_dict(self) -> Dict[str, object]:
        return {"type": self.etype, "t": self.t, "fields": self.fields}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return (self.etype == other.etype and self.t == other.t
                and self.fields == other.fields)


#: How a field value is packed, by its exact type: strings as an index
#: into the recorder's string table, None as a pad byte.  A value of any
#: other type (or an int beyond 64 bits) keeps its event as a plain tuple.
_CODES = {str: "I", int: "q", float: "d", bool: "?", type(None): "x"}
_SHAPE_ID = struct.Struct("<H")


class TraceRecorder:
    """A bounded ring buffer of :class:`TraceEvent`."""

    def __init__(self, capacity: int = 65536, enabled: bool = True) -> None:
        if capacity <= 0:
            raise TraceError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        #: One row per event.  A request-per-event ring is the largest
        #: resident item of a long run, so a row is one ``bytes``: the
        #: id of its shape — (etype, field names, field types), with the
        #: ``struct`` that packs it — then ``t`` and the values, strings
        #: replaced by their index in ``_strings`` (80 B for a
        #: frontend_request against ~210 B of tuple, floats and int).
        #: An event that does not pack is the tuple
        #: ``(etype, t, names, *values)``.  :meth:`_event` reads both.
        self._events: deque = deque(maxlen=capacity)
        #: Per shape: etype, names, struct codes, the struct, and the
        #: positions of string and None fields.
        self._shapes: List[tuple] = []
        self._shape_ids: Dict[tuple, int] = {}  # shape key -> id, -1 = none
        self._strings: List[str] = []
        self._string_ids: Dict[str, int] = {}
        #: Events emitted since the last :meth:`clear` (including any the
        #: ring has since evicted).
        self.emitted = 0
        #: Events evicted because the ring was full.
        self.dropped = 0

    # -- recording ---------------------------------------------------------

    def emit(self, etype: str, t: float, **fields: object) -> Optional[TraceEvent]:
        """Record one event; returns it (None when tracing is disabled).

        The type is checked first, so an unregistered type raises on
        every executed call site, traced or not."""
        if etype not in EVENT_TYPES:
            raise TraceError(
                f"unknown event type {etype!r}; register it with "
                "register_event_type() first")
        if not self.enabled:
            return None
        if len(self._events) == self.capacity:
            self.dropped += 1
        event = TraceEvent(etype, float(t), fields)
        self._events.append(self._row(event))
        self.emitted += 1
        return event

    def _row(self, event: TraceEvent) -> object:
        fields = event.fields
        values = list(fields.values())
        key = (event.etype, *fields, *map(type, values))
        shape_id = self._shape_ids.get(key)
        if shape_id is None:
            shape_id = self._shape_ids[key] = self._new_shape(
                event.etype, tuple(fields), [type(v) for v in values])
        if shape_id >= 0:
            _etype, _names, _codes, packer, string_slots, none_slots = \
                self._shapes[shape_id]
            ids = self._string_ids
            # The string table is bounded like the ring it serves.
            if len(ids) + len(string_slots) <= self.capacity:
                for slot in string_slots:
                    index = ids.get(values[slot])
                    if index is None:
                        index = ids[values[slot]] = len(self._strings)
                        self._strings.append(values[slot])
                    values[slot] = index
                for slot in none_slots:  # descending: a pad takes no value
                    del values[slot]
                try:
                    return packer.pack(shape_id, event.t, *values)
                except struct.error:  # an int beyond 64 bits
                    pass
        return (event.etype, event.t, tuple(fields), *fields.values())

    def _new_shape(self, etype: str, names: Tuple[str, ...],
                   types: List[type]) -> int:
        """The id of a new shape — how events of one (type, field names,
        field types) are packed — or -1 if a field's type has no code."""
        codes = "".join([_CODES.get(t, "-") for t in types])
        if "-" in codes or len(self._shapes) > 0xFFFF:
            return -1
        self._shapes.append((
            etype, names, codes, struct.Struct("<Hd" + codes),
            [i for i, code in enumerate(codes) if code == "I"],
            [i for i, code in enumerate(codes) if code == "x"][::-1]))
        return len(self._shapes) - 1

    def _etype(self, row) -> str:
        if type(row) is tuple:
            return row[0]
        return self._shapes[_SHAPE_ID.unpack_from(row)[0]][0]

    def _event(self, row) -> TraceEvent:
        """The event a ring row stands for."""
        if type(row) is tuple:
            return TraceEvent(row[0], row[1], dict(zip(row[2], row[3:])))
        etype, names, codes, packer, _strs, _nones = self._shapes[
            _SHAPE_ID.unpack_from(row)[0]]
        _shape_id, t, *packed = packer.unpack(row)
        values = iter(packed)
        strings = self._strings
        return TraceEvent(etype, t, {
            name: None if code == "x" else
            strings[next(values)] if code == "I" else next(values)
            for name, code in zip(names, codes)})

    def clear(self) -> None:
        self._events.clear()
        self._strings = []
        self._string_ids = {}
        self.emitted = 0
        self.dropped = 0

    # -- reading -----------------------------------------------------------

    def events(self, etype: Optional[str] = None) -> List[TraceEvent]:
        return [self._event(row) for row in self._events
                if etype is None or self._etype(row) == etype]

    def count(self, etype: Optional[str] = None) -> int:
        if etype is None:
            return len(self._events)
        return sum(1 for row in self._events if self._etype(row) == etype)

    def counts_by_type(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for row in self._events:
            etype = self._etype(row)
            out[etype] = out.get(etype, 0) + 1
        return dict(sorted(out.items()))

    # -- export / import ---------------------------------------------------

    def to_list(self) -> List[Dict[str, object]]:
        return [self._event(row).to_dict() for row in self._events]
