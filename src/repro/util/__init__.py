"""Small shared utilities: units, checksums, bitmaps, LRU bookkeeping."""

from repro.util.units import KB, MB, GB, TB, fmt_rate, fmt_time
from repro.util.checksum import cksum32
from repro.util.bitmap import Bitmap
from repro.util.lru import LRUTracker

__all__ = [
    "KB", "MB", "GB", "TB",
    "fmt_rate", "fmt_time",
    "cksum32", "Bitmap", "LRUTracker",
]
