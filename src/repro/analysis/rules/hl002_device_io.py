"""HL002: raw block-device I/O is confined to sanctioned choke points.

Paper §6.7: only the I/O server touches the on-disk cache "directly via
a character (raw) pseudo-device"; everything else goes through the
block-map driver so every transfer is charged to the virtual clock and
address-checked in one place.  In this codebase the sanctioned raw
paths are:

* ``repro.blockdev`` — the devices themselves;
* ``repro.core.addressing`` — the block-map driver plus the
  ``line_read_refs``/``line_writev`` helpers (and the ``line_read``
  adapter) that core subsystems (I/O server, migrator, staging,
  cleaners, replicas) must use for cache-line I/O;
* ``repro.lfs.segwriter`` — the segment writer's log append path;
* ``repro.lfs.filesystem`` — the single ``dev_read_refs``/``dev_writev``
  choke point the block map plugs into;
* ``repro.ffs`` — the FFS comparison baseline, which has no block map
  by design;
* ``repro.footprint`` — the Footprint interface, the paper's sanctioned
  tertiary access layer;
* ``repro.lfs.dump`` — the offline log-inspection tool, which decodes
  raw (possibly crashed) images independent of any mounted filesystem.

Any other module calling a device verb — ``read_refs``/``writev`` or
the ``read``/``write``/``write_refs`` adapters — on
``<something>.disk`` (or another device-named attribute) is bypassing
the choke points.
"""

from __future__ import annotations

import ast
from typing import List, Tuple

from repro.analysis.core import Finding, Rule, SourceFile
from repro.analysis.rules.util import terminal_attr, walk_calls

#: Receiver names that denote a block device.
_DEVICE_NAMES = frozenset({"disk", "device", "dev", "tape", "drive"})

#: Every device verb: the two every layer implements and the bytes
#: adapters over them.
_DEVICE_VERBS = frozenset({"read_refs", "writev", "read", "write",
                           "write_refs"})

_DEFAULT_EXEMPT: Tuple[str, ...] = (
    "repro.blockdev",
    "repro.core.addressing",
    "repro.lfs.segwriter",
    "repro.lfs.filesystem",
    "repro.ffs",
    "repro.footprint",
    "repro.lfs.dump",
)


class HL002DeviceIO(Rule):
    code = "HL002"
    name = "device-io-discipline"
    rationale = ("raw device I/O outside the block map / line-I/O choke "
                 "points escapes virtual-clock charging and address "
                 "checking")
    exempt = _DEFAULT_EXEMPT

    def check(self, sf: SourceFile) -> List[Finding]:
        findings: List[Finding] = []
        for call in walk_calls(sf.tree):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in _DEVICE_VERBS:
                continue
            receiver = terminal_attr(func.value)
            if receiver in _DEVICE_NAMES:
                findings.append(self.finding(
                    sf, call,
                    f"direct device I/O '{receiver}.{func.attr}(...)'; "
                    f"route through the block map or the line_read_refs/"
                    f"line_writev helpers in repro.core.addressing"))
        return findings
