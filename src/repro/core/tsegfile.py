"""The tsegfile: tertiary segment summaries, a companion to the ifile.

"To record summary information for each tertiary volume, HighLight adds a
companion file similar to the ifile.  It contains tertiary segment
summaries in the same format as the secondary segment summaries found in
the ifile" (paper §6.4).  It also tracks per-volume allocation state:
which volume migration is currently consuming (media are consumed one at
a time, §6.5) and which volumes have hit end-of-medium.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

from repro.errors import CorruptFilesystem, InvalidArgument, TertiaryExhausted
from repro.lfs.constants import BLOCK_SIZE
from repro.lfs.ifile import SEG_CLEAN, SEG_DIRTY, SegUse, SEGUSE_SIZE

_VOL = struct.Struct("<IIIHH")   # volume_id, nsegs, next_free, full, pad
_HEADER = struct.Struct("<II")   # nvolumes, cur_volume


@dataclass
class VolumeMeta:
    """Allocation state for one tertiary volume."""

    volume_id: int
    nsegs: int                  # fixed segment count (max expected, §6.3)
    next_free: int = 0          # next unallocated segment within the volume
    marked_full: bool = False   # end-of-medium seen before next_free reached

    def pack(self) -> bytes:
        return _VOL.pack(self.volume_id, self.nsegs, self.next_free,
                         1 if self.marked_full else 0, 0)

    @classmethod
    def unpack(cls, data: bytes) -> "VolumeMeta":
        vid, nsegs, nxt, full, _ = _VOL.unpack(data[:_VOL.size])
        return cls(volume_id=vid, nsegs=nsegs, next_free=nxt,
                   marked_full=bool(full))


class TSegFile:
    """Per-tertiary-segment usage plus per-volume allocation state."""

    def __init__(self, volumes: List[VolumeMeta]) -> None:
        self.volumes = list(volumes)
        self.segs: List[List[SegUse]] = [
            [SegUse(bytes_avail=0) for _ in range(vol.nsegs)]
            for vol in self.volumes
        ]
        self.cur_volume = 0

    # -- usage table -----------------------------------------------------------

    def seguse(self, vol: int, seg_in_vol: int) -> SegUse:
        if not 0 <= vol < len(self.volumes):
            raise InvalidArgument(f"no volume {vol}")
        if not 0 <= seg_in_vol < self.volumes[vol].nsegs:
            raise InvalidArgument(
                f"segment {seg_in_vol} out of range for volume {vol}")
        return self.segs[vol][seg_in_vol]

    def seg_counts(self) -> List[int]:
        return [vol.nsegs for vol in self.volumes]

    def live_bytes(self, vol: int) -> int:
        return sum(s.live_bytes for s in self.segs[vol])

    # -- allocation ---------------------------------------------------------------

    def alloc_segment(self) -> tuple:
        """Allocate the next fresh tertiary segment: (vol, seg_in_vol).

        Media are consumed one volume at a time; a volume is left when its
        fixed allocation is exhausted or it was marked full by an
        end-of-medium indication.
        """
        while self.cur_volume < len(self.volumes):
            meta = self.volumes[self.cur_volume]
            if not meta.marked_full and meta.next_free < meta.nsegs:
                seg = meta.next_free
                meta.next_free += 1
                use = self.segs[self.cur_volume][seg]
                use.flags = SEG_DIRTY
                return self.cur_volume, seg
            self.cur_volume += 1
        raise TertiaryExhausted("all tertiary volumes are full")

    def alloc_segment_on(self, vol: int) -> tuple:
        """Allocate a segment from a specific volume (replica placement,
        §5.4: replicas belong on a *different* volume than the primary)."""
        if not 0 <= vol < len(self.volumes):
            raise InvalidArgument(f"no volume {vol}")
        meta = self.volumes[vol]
        if meta.marked_full or meta.next_free >= meta.nsegs:
            raise TertiaryExhausted(f"volume {vol} is full")
        seg = meta.next_free
        meta.next_free += 1
        self.segs[vol][seg].flags = SEG_DIRTY
        return vol, seg

    def mark_volume_full(self, vol: int) -> None:
        """Record an end-of-medium indication (paper §6.3)."""
        self.volumes[vol].marked_full = True
        if vol == self.cur_volume:
            self.cur_volume += 1 if vol + 1 <= len(self.volumes) else 0
            self.cur_volume = min(self.cur_volume, len(self.volumes))

    def release_segment(self, vol: int, seg_in_vol: int) -> None:
        """Mark a tertiary segment reclaimed (tertiary cleaner)."""
        use = self.seguse(vol, seg_in_vol)
        use.flags = SEG_CLEAN
        use.live_bytes = 0

    def reset_volume(self, vol: int) -> None:
        """Make a fully-cleaned volume consumable again."""
        meta = self.volumes[vol]
        if any(s.live_bytes for s in self.segs[vol]):
            raise InvalidArgument(f"volume {vol} still holds live data")
        meta.next_free = 0
        meta.marked_full = False
        for use in self.segs[vol]:
            use.flags = SEG_CLEAN
            use.live_bytes = 0
        self.cur_volume = min(self.cur_volume, vol)

    # -- serialisation ----------------------------------------------------------------

    def serialize(self) -> bytes:
        out = bytearray(_HEADER.pack(len(self.volumes), self.cur_volume))
        for meta in self.volumes:
            out += meta.pack()
        out += bytes((-len(out)) % BLOCK_SIZE)
        for vol_segs in self.segs:
            for use in vol_segs:
                out += use.pack()
        out += bytes((-len(out)) % BLOCK_SIZE)
        return bytes(out)

    @classmethod
    def deserialize(cls, data: bytes) -> "TSegFile":
        if len(data) < _HEADER.size:
            raise CorruptFilesystem("tsegfile content too short")
        nvol, cur = _HEADER.unpack_from(data, 0)
        offset = _HEADER.size
        metas = []
        for _ in range(nvol):
            metas.append(VolumeMeta.unpack(data[offset:offset + _VOL.size]))
            offset += _VOL.size
        tseg = cls(metas)
        tseg.cur_volume = cur
        offset += (-offset) % BLOCK_SIZE
        for vol in range(nvol):
            for seg in range(metas[vol].nsegs):
                tseg.segs[vol][seg] = SegUse.unpack(
                    data[offset:offset + SEGUSE_SIZE])
                offset += SEGUSE_SIZE
        return tseg
