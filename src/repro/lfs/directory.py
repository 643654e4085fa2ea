"""Directory content: packed variable-length entries.

Directories are regular files whose data blocks hold (inum, name) records.
BSD filesystems do not update directory access times on normal lookups —
the paper relies on this so the namespace-locality migrator can walk trees
without perturbing the very timestamps it ranks by (§5.3).
"""

from __future__ import annotations

import struct
from typing import Dict, List

from repro.errors import FileExists, FileNotFound, InvalidArgument

_ENTRY_HDR = struct.Struct("<IH")  # inum, namelen
MAX_NAME = 255


def _validate_name(name: str) -> bytes:
    if not name:
        raise InvalidArgument("empty file name")
    raw = name.encode("utf-8")
    if len(raw) > MAX_NAME:
        raise InvalidArgument(f"name too long ({len(raw)} > {MAX_NAME})")
    if "/" in name:
        raise InvalidArgument("name may not contain '/'")
    return raw


def pack_entries(entries: Dict[str, int]) -> bytes:
    """Serialise a name -> inum map into directory file content."""
    out = bytearray()
    for name in sorted(entries):
        raw = _validate_name(name)
        out += _ENTRY_HDR.pack(entries[name], len(raw))
        out += raw
    return bytes(out)


def unpack_entries(data: bytes) -> Dict[str, int]:
    """Parse directory file content back to a name -> inum map."""
    entries: Dict[str, int] = {}
    offset = 0
    while offset + _ENTRY_HDR.size <= len(data):
        inum, namelen = _ENTRY_HDR.unpack_from(data, offset)
        if inum == 0 and namelen == 0:
            break  # zero padding tail
        offset += _ENTRY_HDR.size
        name = data[offset:offset + namelen].decode("utf-8")
        offset += namelen
        entries[name] = inum
    return entries


class Directory:
    """A parsed, mutable directory image."""

    def __init__(self, entries: Dict[str, int] | None = None) -> None:
        self.entries: Dict[str, int] = dict(entries or {})

    @classmethod
    def new(cls, self_inum: int, parent_inum: int) -> "Directory":
        return cls({".": self_inum, "..": parent_inum})

    @classmethod
    def parse(cls, data: bytes) -> "Directory":
        return cls(unpack_entries(data))

    def pack(self) -> bytes:
        return pack_entries(self.entries)

    def lookup(self, name: str) -> int:
        inum = self.entries.get(name)
        if inum is None:
            raise FileNotFound(name)
        return inum

    def add(self, name: str, inum: int) -> None:
        _validate_name(name)
        if name in self.entries:
            raise FileExists(name)
        self.entries[name] = inum

    def remove(self, name: str) -> int:
        inum = self.entries.pop(name, None)
        if inum is None:
            raise FileNotFound(name)
        return inum

    def names(self) -> List[str]:
        """Entries excluding '.' and '..'."""
        return sorted(n for n in self.entries if n not in (".", ".."))

    def is_empty(self) -> bool:
        return not self.names()
