"""Tertiary request scheduling (the stager between producers and the
I/O server).

HighLight's prototype drained a single FIFO of service requests, so one
migration write-out burst could stall every demand fetch behind a
jukebox media switch (the contention the paper's Table 6 measures).
This package adds the layer production hierarchical storage managers
grew in response: typed request classes with strict priority and aging,
a per-volume mount batcher, and per-class admission control.

:class:`TertiaryScheduler` is the only sanctioned way to reach the
:class:`~repro.core.ioserver.IOServer` (rule HL007); see
``docs/SCHEDULING.md`` for the knobs.
"""

from repro.sched.scheduler import (CLASS_CLEANER, CLASS_DEMAND,
                                   CLASS_PREFETCH, CLASS_WRITEOUT,
                                   MODE_PASSTHROUGH,
                                   MODE_SCHEDULED, PRIORITY,
                                   REQUEST_CLASSES, Request,
                                   TertiaryScheduler)

__all__ = [
    "TertiaryScheduler", "Request",
    "MODE_PASSTHROUGH", "MODE_SCHEDULED",
    "CLASS_DEMAND", "CLASS_PREFETCH", "CLASS_WRITEOUT", "CLASS_CLEANER",
    "PRIORITY", "REQUEST_CLASSES",
]
