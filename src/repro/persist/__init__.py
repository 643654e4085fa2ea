"""Crash-consistent persistence for the HighLight stack.

Three pieces (see docs/RECOVERY.md):

* **format** — the versioned, dual-slot, checksummed on-disk checkpoint
  format anchored from the superblock's ``persist_root`` field;
* **manager** — :class:`PersistManager`: capture and durable commit,
  as one expression, on every ``fs.checkpoint()``,
  and :meth:`~repro.persist.manager.PersistManager.recover` replay after
  a remount;
* **scrub** — :class:`SegmentCRCLedger` + :class:`Scrubber`, the
  background full-image checksum walk across all tiers;

plus **crashsim**, the process-death model (write traps, media imaging)
the crash-point test matrix and the ``--scenario crashes`` gate share.
"""

from __future__ import annotations

from repro.persist.format import (PERSIST_MAGIC, PERSIST_VERSION,
                                  SLOT_BASES, SLOT_BLOCKS,
                                  PersistFormatError, PersistImage,
                                  decode_slot, encode_slot, peek_serial)
from repro.persist.manager import (EV_CHECKPOINT_MARK, EV_CHECKPOINT_WRITE,
                                   EV_RECOVERY_REPLAY, PersistManager,
                                   RecoveryReport)
from repro.persist.scrub import (EV_SCRUB_MISMATCH, EV_SCRUB_PASS,
                                 Scrubber, SegmentCRCLedger, image_crc)

__all__ = [
    "PERSIST_MAGIC", "PERSIST_VERSION", "SLOT_BASES", "SLOT_BLOCKS",
    "PersistFormatError", "PersistImage", "decode_slot", "encode_slot",
    "peek_serial",
    "EV_CHECKPOINT_MARK", "EV_CHECKPOINT_WRITE", "EV_RECOVERY_REPLAY",
    "PersistManager", "RecoveryReport",
    "EV_SCRUB_MISMATCH", "EV_SCRUB_PASS", "Scrubber", "SegmentCRCLedger",
    "image_crc",
]
