"""HighLight: the paper's primary contribution.

Extends the LFS substrate with a storage hierarchy (paper §4-§6):

* a uniform 32-bit block address space spanning the disk farm (bottom)
  and every tertiary volume (top, growing downward) — ``addressing``;
* a companion tsegfile tracking tertiary segment usage — ``tsegfile``;
* a disk-resident segment cache of read-only tertiary segments —
  ``segcache``;
* staging segments assembled with tertiary block addresses — ``staging``;
* the service process / I/O server pair that moves whole segments
  between levels via Footprint — ``service``, ``ioserver``;
* the migrator, a second cleaner that implements migration policy —
  ``migrator``, with the policy zoo in ``policies``;
* the assembled filesystem — ``highlight.HighLightFS``.
"""
