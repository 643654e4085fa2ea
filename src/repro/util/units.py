"""Byte-size units and human-readable formatting.

The paper reports throughput in KB/s (kilobytes of 1024 bytes) and elapsed
times in seconds; the formatters here mirror that presentation so benchmark
output lines up with the published tables.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB
TB = 1024 * GB


def fmt_rate(bytes_per_second: float) -> str:
    """Render a throughput in KB/s, the unit used throughout the paper."""
    return f"{bytes_per_second / KB:.0f}KB/s"


def fmt_time(seconds: float) -> str:
    """Render an elapsed time in seconds with paper-style precision."""
    if seconds < 10:
        return f"{seconds:.2f} s"
    return f"{seconds:.1f} s"
