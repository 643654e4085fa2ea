"""The versioned on-disk persistence-checkpoint format.

The LFS superblock checkpoint (``repro.lfs.superblock``) anchors the
*filesystem* image: ifile address and log tail.  HighLight keeps more
state than the log records — the segment-cache directory, the Footprint
volume/health registry, queued scheduler requests, the replica catalog,
the scrub CRC ledger, and operating counters — all of which a process
death would otherwise lose (the CASTOR lesson: a hierarchical storage
manager is only credible once its disk-pool/tape state survives
restarts).  ``repro.persist`` checkpoints that state into a dedicated
area of the reserved boot blocks, anchored from the superblock's
``persist_root`` field.

Layout
------

Two slots alternate (same discipline as the superblock's dual
checkpoint slots) so a crash mid-write always leaves the previous image
intact.  Each slot is :data:`SLOT_BLOCKS` blocks::

    +-----------------------------+  slot base (reserved block 1 or 8)
    | header (32 bytes)           |
    |   magic, version, serial,   |
    |   payload_len, payload_crc, |
    |   header_crc                |
    +-----------------------------+
    | zlib-compressed payload     |
    +-----------------------------+
    | zero padding to slot end    |
    +-----------------------------+

The uncompressed payload is a sequence of named, individually
checksummed sections::

    u8 name_len | name (utf-8) | u32 body_len | u32 body_crc | body

Section bodies are canonical JSON (sorted keys, compact separators) so
identical system states encode to identical bytes — the golden-trace
suite relies on that determinism.  Unknown sections are preserved by
:func:`decode_payload` and ignored by consumers, which is what makes the
format versionable: a newer writer may add sections an older reader
skips.  An incompatible layout change must bump :data:`PERSIST_VERSION`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import CorruptFilesystem
from repro.lfs.constants import BLOCK_SIZE, RESERVED_BLOCKS
from repro.util.checksum import cksum32

#: "HLpc" — HighLight persistence checkpoint.
PERSIST_MAGIC = 0x484C7063
PERSIST_VERSION = 1

#: Blocks per slot.  Two slots plus the superblock (block 0) must fit in
#: the reserved boot area; block 15 stays spare.
SLOT_BLOCKS = 7
SLOT_BASES = (1, 1 + SLOT_BLOCKS)
SLOT_BYTES = SLOT_BLOCKS * BLOCK_SIZE
assert SLOT_BASES[1] + SLOT_BLOCKS <= RESERVED_BLOCKS

# magic, version, serial (u64), payload_len, payload_crc, header_crc
_HEADER = struct.Struct("<IIQIII")

# Section names written by the current code (readers tolerate extras).
SEC_EPOCH = "epoch"
SEC_CACHEMAP = "cachemap"
SEC_HEALTH = "health"
SEC_SCHED = "sched"
SEC_COUNTERS = "counters"
SEC_REPLICAS = "replicas"
SEC_CRC_LEDGER = "crc_ledger"


class PersistFormatError(CorruptFilesystem):
    """A persistence slot failed structural or checksum validation."""


@dataclass
class PersistImage:
    """One decoded (or to-be-encoded) persistence checkpoint."""

    serial: int = 0
    sections: Dict[str, object] = field(default_factory=dict)


def encode_payload(sections: Dict[str, object]) -> bytes:
    """Frame ``sections`` (name -> JSON-encodable body) as payload bytes."""
    out = bytearray()
    for name in sorted(sections):
        raw = name.encode("utf-8")
        if not raw or len(raw) > 255:
            raise PersistFormatError(f"bad section name {name!r}")
        body = json.dumps(sections[name], sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        out += struct.pack("<B", len(raw)) + raw
        out += struct.pack("<II", len(body), cksum32(body))
        out += body
    return bytes(out)


def decode_payload(payload: bytes) -> Dict[str, object]:
    """Parse framed sections; raises :class:`PersistFormatError` on damage."""
    sections: Dict[str, object] = {}
    pos, end = 0, len(payload)
    while pos < end:
        (name_len,) = struct.unpack_from("<B", payload, pos)
        pos += 1
        if pos + name_len + 8 > end:
            raise PersistFormatError("truncated section header")
        name = payload[pos:pos + name_len].decode("utf-8")
        pos += name_len
        body_len, body_crc = struct.unpack_from("<II", payload, pos)
        pos += 8
        if pos + body_len > end:
            raise PersistFormatError(f"truncated section {name!r}")
        body = payload[pos:pos + body_len]
        pos += body_len
        if cksum32(body) != body_crc:
            raise PersistFormatError(f"section {name!r} checksum mismatch")
        sections[name] = json.loads(body.decode("utf-8"))
    return sections


def encode_slot(image: PersistImage) -> bytes:
    """Encode an image as one full slot (``SLOT_BYTES`` bytes)."""
    payload = zlib.compress(encode_payload(image.sections), 6)
    if _HEADER.size + len(payload) > SLOT_BYTES:
        raise PersistFormatError(
            f"persistence payload of {len(payload)} bytes exceeds the "
            f"{SLOT_BYTES - _HEADER.size}-byte slot capacity")
    head = struct.pack("<IIQII", PERSIST_MAGIC, PERSIST_VERSION,
                       image.serial, len(payload), cksum32(payload))
    head += struct.pack("<I", cksum32(head))
    return (head + payload).ljust(SLOT_BYTES, b"\0")


def peek_serial(raw: bytes) -> Optional[int]:
    """Serial of the slot whose first block is ``raw``, without decoding
    the payload; ``None`` for a blank or structurally invalid header."""
    if len(raw) < _HEADER.size:
        return None
    head = raw[:_HEADER.size - 4]
    (stored,) = struct.unpack_from("<I", raw, _HEADER.size - 4)
    magic, version, serial, _payload_len, _payload_crc = struct.unpack(
        "<IIQII", head)
    if magic != PERSIST_MAGIC or version != PERSIST_VERSION \
            or cksum32(head) != stored:
        return None
    return serial


def decode_slot(raw: bytes) -> Optional[PersistImage]:
    """Decode one slot.

    Returns ``None`` for a blank (never-written, all-zero) slot; raises
    :class:`PersistFormatError` when the slot carries damaged data — the
    caller treats that slot as lost and falls back to the other one.
    """
    if len(raw) < _HEADER.size:
        raise PersistFormatError("short persistence slot")
    head = raw[:_HEADER.size - 4]
    (stored,) = struct.unpack_from("<I", raw, _HEADER.size - 4)
    magic, version, serial, payload_len, payload_crc = struct.unpack(
        "<IIQII", head)
    if magic == 0 and not any(raw):
        return None  # blank media: persistence never checkpointed here
    if cksum32(head) != stored:
        raise PersistFormatError("persistence header checksum mismatch")
    if magic != PERSIST_MAGIC:
        raise PersistFormatError(f"bad persistence magic {magic:#x}")
    if version != PERSIST_VERSION:
        raise PersistFormatError(
            f"persistence format v{version} not supported "
            f"(expected v{PERSIST_VERSION})")
    start = _HEADER.size
    if start + payload_len > len(raw):
        raise PersistFormatError("persistence payload overruns the slot")
    payload = raw[start:start + payload_len]
    if cksum32(payload) != payload_crc:
        raise PersistFormatError("persistence payload checksum mismatch")
    try:
        sections = decode_payload(zlib.decompress(payload))
    except zlib.error as exc:
        raise PersistFormatError(f"persistence payload inflate: {exc}") \
            from exc
    return PersistImage(serial=serial, sections=sections)


def check_persist_slots(fs, actor, report) -> None:
    """Validate the dual checkpoint slots of ``fs`` into an fsck
    ``report`` (:class:`repro.lfs.check.CheckReport`), when the
    superblock anchors a persistence area.

    Both slots unreadable is an error, a single corrupt slot only a
    warning (dual slots exist precisely so one may be mid-write at a
    crash), and a serial *ahead* of the superblock's checkpoint serial
    is an error — the LFS checkpoint is always made durable first.
    """
    if not fs.sb.persist_root:
        return
    sb_serial = fs.sb.latest_checkpoint().serial
    invalid = 0
    nonblank = 0
    for slot, base in enumerate(SLOT_BASES):
        raw = fs.dev_read(actor, base, SLOT_BLOCKS)
        try:
            image = decode_slot(bytes(raw))
        except PersistFormatError as exc:
            invalid += 1
            nonblank += 1
            report.warn(f"persist slot {slot}: undecodable ({exc})")
            continue
        if image is None:
            continue  # blank slot: never yet written
        nonblank += 1
        if image.serial > sb_serial:
            report.error(
                f"persist slot {slot}: serial {image.serial} is ahead of "
                f"the superblock checkpoint serial {sb_serial}; the LFS "
                "checkpoint must always be durable first")
    if nonblank and invalid == nonblank:
        report.error("no persistence slot is decodable (persist_root set "
                     "but every written slot is corrupt)")
