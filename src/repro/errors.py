"""Exception hierarchy for the HighLight reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to discriminate between filesystem-level, device-level, and
policy-level faults.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Device layer
# --------------------------------------------------------------------------

class DeviceError(ReproError):
    """Base class for block-device faults.

    Carries structured context so recovery code (``repro.faults``) can
    act — retry, quarantine, re-stage — without parsing message strings:
    ``volume_id`` names the tertiary volume involved (None for plain
    disks), ``blkno`` the first block of the failed transfer, and
    ``attempt`` the retry attempt that raised (stamped by
    :class:`repro.faults.RetryPolicy`).
    """

    def __init__(self, message: str = "", *,
                 volume_id: Optional[int] = None,
                 blkno: Optional[int] = None,
                 attempt: Optional[int] = None) -> None:
        super().__init__(message)
        self.volume_id = volume_id
        self.blkno = blkno
        self.attempt = attempt

    def _context(self) -> str:
        parts = []
        if self.volume_id is not None:
            parts.append(f"volume={self.volume_id}")
        if self.blkno is not None:
            parts.append(f"blkno={self.blkno}")
        if self.attempt is not None:
            parts.append(f"attempt={self.attempt}")
        return " ".join(parts)

    def __str__(self) -> str:
        base = super().__str__()
        ctx = self._context()
        if not ctx:
            return base
        return f"{base} [{ctx}]" if base else f"[{ctx}]"

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({super().__str__()!r}, "
                f"volume_id={self.volume_id!r}, blkno={self.blkno!r}, "
                f"attempt={self.attempt!r})")


class TransientDeviceError(DeviceError):
    """A device fault expected to clear on retry (dirty head, dropped
    SCSI transaction, picker mis-grab).  :class:`repro.faults.RetryPolicy`
    retries these with bounded exponential backoff; every other
    :class:`DeviceError` propagates immediately."""


class PermanentDeviceError(DeviceError):
    """A device fault retries cannot fix (destroyed medium, dead drive).

    Recovery means giving up on the copy: quarantine the volume, serve
    reads from a replica, re-stage write-outs onto a healthy volume.
    """


class AddressError(DeviceError):
    """A block address fell outside every device, or inside the dead zone."""


class EndOfMedium(DeviceError):
    """A write ran past the physical end of a tertiary volume.

    HighLight handles this by marking the volume full and re-writing the
    partially-written segment onto the next volume (paper section 6.3).
    """


class VolumeNotLoaded(DeviceError):
    """An I/O was issued to a jukebox volume that is not in any drive."""


class NoSuchVolume(DeviceError):
    """A volume identifier does not exist in the jukebox."""


class DriveBusy(DeviceError):
    """All drives in a jukebox are pinned and none can be reallocated."""


class MediaFailure(PermanentDeviceError):
    """The medium is unreadable for good (injected or declared after a
    retry policy exhausted itself)."""


class TransientMediaError(TransientDeviceError):
    """A single read/write failed but the medium is believed healthy."""


class MountFailure(TransientDeviceError):
    """The robot failed to seat a volume in a drive (picker slip)."""


class DriveTimeout(TransientDeviceError):
    """A drive stopped responding mid-operation and the request timed out."""


class ReadOnlyMedium(DeviceError):
    """A write was issued to a write-once (WORM) region that already holds data."""


# --------------------------------------------------------------------------
# Filesystem layer
# --------------------------------------------------------------------------

class FilesystemError(ReproError):
    """Base class for filesystem faults."""


class NoSpace(FilesystemError):
    """The log ran out of clean segments (ENOSPC analogue)."""


class FileNotFound(FilesystemError):
    """Path or inode lookup failed (ENOENT analogue)."""


class FileExists(FilesystemError):
    """Attempt to create an entry that already exists (EEXIST analogue)."""


class NotADirectory(FilesystemError):
    """Path component was not a directory (ENOTDIR analogue)."""


class IsADirectory(FilesystemError):
    """File operation applied to a directory (EISDIR analogue)."""


class DirectoryNotEmpty(FilesystemError):
    """rmdir of a non-empty directory (ENOTEMPTY analogue)."""


class InvalidArgument(FilesystemError):
    """Malformed request (EINVAL analogue)."""


class ChecksumError(FilesystemError):
    """A summary or data checksum failed verification during recovery."""


class CorruptFilesystem(FilesystemError):
    """On-media structures are inconsistent beyond recovery."""


# --------------------------------------------------------------------------
# HighLight / migration layer
# --------------------------------------------------------------------------

class MigrationError(ReproError):
    """Base class for migration pipeline faults."""


class StagingFull(MigrationError):
    """No disk segment is available to host a new staging segment."""


class TertiaryExhausted(MigrationError):
    """All tertiary volumes are full and no cleaner has reclaimed space."""


# --------------------------------------------------------------------------
# Client front end (repro.frontend)
# --------------------------------------------------------------------------

class FrontendError(ReproError):
    """Base class for client/session front-end faults."""


class HandleClosed(FrontendError):
    """A closed (or never-opened) handle was used: double close,
    read-after-close, or a stale file descriptor."""


class AdmissionRejected(FrontendError):
    """A tenant request was refused by admission control.

    Raised when a tenant exceeds a hard cap in its
    :class:`~repro.frontend.TenantBudget` — open handles, or queued
    background work of a droppable class.  Rate-limited *data* requests
    are never rejected: the token bucket paces them in virtual time
    instead.
    """


class UnknownTenant(FrontendError):
    """An operation named a tenant the client has not registered."""


# --------------------------------------------------------------------------
# Tertiary request scheduler
# --------------------------------------------------------------------------

class SchedulerError(ReproError):
    """Base class for tertiary request-scheduler faults."""


class AccountingViolation(SchedulerError):
    """A scheduled request's wait + service time failed to land in the
    Table 4 categories.

    The scheduler charges queue wait to ``queuing`` and requires the
    request's execution to charge every remaining virtual second to
    exactly one category, so Table 4's partition invariant holds on the
    scheduled path too.
    """
