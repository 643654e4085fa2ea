"""A simple growable bitmap used for block/inode allocation maps."""

from __future__ import annotations


class Bitmap:
    """Fixed-size bitmap: the FFS baseline's cylinder-group free map."""

    def __init__(self, nbits: int) -> None:
        if nbits < 0:
            raise ValueError("bitmap size must be non-negative")
        self._nbits = nbits
        self._words = bytearray((nbits + 7) // 8)

    def _check(self, bit: int) -> None:
        if not 0 <= bit < self._nbits:
            raise IndexError(f"bit {bit} out of range [0, {self._nbits})")

    def test(self, bit: int) -> bool:
        """Return True if ``bit`` is set."""
        self._check(bit)
        return bool(self._words[bit >> 3] & (1 << (bit & 7)))

    def set(self, bit: int) -> None:
        """Set ``bit``."""
        self._check(bit)
        self._words[bit >> 3] |= 1 << (bit & 7)

    def clear(self, bit: int) -> None:
        """Clear ``bit``."""
        self._check(bit)
        self._words[bit >> 3] &= ~(1 << (bit & 7)) & 0xFF
