"""The SCSI bus as a shared timeline resource.

The paper notes two bus-related artefacts we reproduce:

* the magnetic disk and the MO changer shared one SCSI bus, yet bus
  bandwidth was *not* the limiting factor (section 7.3) — devices
  disconnect during seeks and only hold the bus for data transfer;
* the autochanger's device driver did **not** disconnect, so a media swap
  "hogs" the bus for many seconds (section 7), stalling disk I/O.
"""

from __future__ import annotations

from repro.sim.actor import Actor
from repro.sim.resources import TimelineResource


class SCSIBus(TimelineResource):
    """A SCSI bus: devices occupy it only while moving data, unless hogging."""

    def __init__(self, name: str = "scsi0",
                 bandwidth: float = 4.0 * 1024 * 1024) -> None:
        super().__init__(name)
        #: Raw bus bandwidth (SCSI-I ~4-5 MB/s); transfers cannot beat this.
        self.bandwidth = bandwidth
        self.hog_seconds = 0.0

    def hog(self, actor: Actor, seconds: float) -> None:
        """Hold the bus for ``seconds`` with no data moving (media swap)."""
        self.occupy(actor, seconds)
        self.hog_seconds += seconds
