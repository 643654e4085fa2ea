"""Small shared utilities: units, checksums, bitmaps, LRU bookkeeping."""
