"""Device-health model: volume health states and the error budget.

The paper treats tertiary media failure with one line ("the volume is
marked full…") plus the §10 remark that replicas answer media-failure
robustness; production tertiary systems (CASTOR, Lustre) model it as a
state machine.  This module is that state machine:

.. code-block:: text

            transient error                consecutive-error budget
            (still serving I/O)            hit / permanent fault
    ONLINE <---------------> DEGRADED ----------------------+
       |     served I/O                                     v
       +------------- permanent fault ---------------> QUARANTINED
                                                            |
                                     repair daemon re-homed |
                                     every live segment     v
                                                         RETIRED

``ONLINE``/``DEGRADED`` volumes serve I/O; ``QUARANTINED``/``RETIRED``
volumes refuse it (the drive raises ``MediaFailure``) — every caller
reads ``volume.health`` directly (the transitional
``RemovableVolume.failed`` bool alias is gone).

This module is deliberately import-light (stdlib + ``repro.obs`` only)
so the blockdev layer can depend on it without cycles.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro import obs

#: Emitted once per quarantine transition.
EV_QUARANTINE = obs.register_event_type("quarantine")


class VolumeHealth(enum.Enum):
    """Health of one removable volume (ordered by degradation)."""

    ONLINE = "online"
    DEGRADED = "degraded"
    QUARANTINED = "quarantined"
    RETIRED = "retired"

    @property
    def serving(self) -> bool:
        """Whether I/O against the volume is still allowed."""
        return self in (VolumeHealth.ONLINE, VolumeHealth.DEGRADED)


class HealthRegistry:
    """Tracks per-volume error counts and drives health transitions.

    One registry watches one jukebox (duck-typed: anything with a
    ``volumes`` dict, so the registry itself stays device-agnostic).
    :meth:`repro.core.highlight.HighLightFS.attach_tertiary` builds the
    stack's only one, ``fs.health``.  Every observed device error
    charges the volume's error budget; a permanent error, or a budget
    overrun, quarantines the volume.
    """

    def __init__(self, jukebox, error_budget: int = 3) -> None:
        if error_budget < 1:
            raise ValueError("error budget must be at least 1")
        self.error_budget = error_budget
        self.errors: Dict[int, int] = {}
        self.quarantine_reasons: Dict[int, str] = {}
        self.jukebox = jukebox

    # -- queries -------------------------------------------------------------

    def _volume(self, volume_id: Optional[int]):
        if volume_id is None:
            return None
        return self.jukebox.volumes.get(volume_id)

    def health_of(self, volume_id: int) -> VolumeHealth:
        vol = self._volume(volume_id)
        return VolumeHealth.ONLINE if vol is None else vol.health

    def quarantined(self) -> List[int]:
        """Volume ids currently quarantined (not yet retired)."""
        return sorted(vid for vid, vol in self.jukebox.volumes.items()
                      if vol.health is VolumeHealth.QUARANTINED)

    # -- transitions ---------------------------------------------------------

    def record_error(self, volume_id: Optional[int], t: float,
                     permanent: bool = False,
                     kind: str = "io_error") -> VolumeHealth:
        """Charge one observed error against ``volume_id``'s budget.

        Returns the volume's resulting health.  Unknown volumes (plain
        disks) are reported as ONLINE and charge nothing.
        """
        vol = self._volume(volume_id)
        if vol is None:
            return VolumeHealth.ONLINE
        count = self.errors.get(volume_id, 0) + 1
        self.errors[volume_id] = count
        if permanent or count >= self.error_budget:
            reason = kind if permanent else "error_budget"
            self.quarantine(volume_id, t, reason=reason)
        elif vol.health is VolumeHealth.ONLINE:
            vol.health = VolumeHealth.DEGRADED
        return vol.health

    def record_success(self, volume_id: Optional[int]) -> None:
        """A served I/O clears the volume's error budget.

        The budget therefore counts *consecutive* failures: scattered
        transient noise that retry keeps absorbing never adds up to a
        quarantine, only a volume that stops serving altogether does.
        A DEGRADED volume that serves again is promoted back to ONLINE.
        """
        vol = self._volume(volume_id)
        if vol is None or not self.errors.get(volume_id):
            return
        self.errors[volume_id] = 0
        if vol.health is VolumeHealth.DEGRADED:
            vol.health = VolumeHealth.ONLINE

    def quarantine(self, volume_id: int, t: float,
                   reason: str = "manual") -> None:
        """Take ``volume_id`` out of service (idempotent)."""
        vol = self._volume(volume_id)
        if vol is None or not vol.health.serving:
            return
        vol.health = VolumeHealth.QUARANTINED
        self.quarantine_reasons[volume_id] = reason
        obs.counter("volume_quarantined_total",
                    "volumes taken out of service by the health registry",
                    ("reason",)).labels(reason=reason).inc()
        obs.event(EV_QUARANTINE, t, volume=volume_id, reason=reason,
                  errors=self.errors.get(volume_id, 0))

    def retire(self, volume_id: int, t: float) -> None:
        """Mark a quarantined volume permanently out of the pool
        (the repair daemon calls this once every live segment on it has
        been re-homed)."""
        vol = self._volume(volume_id)
        if vol is None or vol.health is VolumeHealth.RETIRED:
            return
        vol.health = VolumeHealth.RETIRED
        obs.counter("volume_retired_total",
                    "quarantined volumes retired after repair").inc()
