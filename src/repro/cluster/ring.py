"""Consistent-hash placement: the cluster's address-space partitioner.

A :class:`HashRing` maps object keys (volume/file extent names) onto
shard ids the way Lustre maps objects onto OSTs and openvstorage maps
vDisks onto storage routers: each shard contributes ``vnodes`` points on
a 64-bit ring, a key belongs to the first shard point at or after its
own hash, and membership changes move only the keys that fall between
the affected points — the minimal-movement property cross-shard
migration depends on (see :mod:`repro.cluster.migrate`).

Hashing is keyed BLAKE2b, so placement is deterministic for a given
``seed`` across processes and Python versions (``hash()`` is salted per
process and would re-shuffle the cluster on every run).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List

from repro.errors import InvalidArgument

__all__ = ["HashRing"]

#: Ring points per shard.  More virtual nodes tighten the balance bound
#: (spread ~ 1/sqrt(vnodes)) at O(vnodes log vnodes) membership cost.
DEFAULT_VNODES = 64


class HashRing:
    """A seeded consistent-hash ring over shard ids.

    Keys and shard ids may be any object with a stable ``str()`` form;
    in practice keys are extent names (``"/path#3"``) and shard ids are
    small ints.
    """

    def __init__(self, seed: int = 0, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise InvalidArgument("a shard needs at least one ring point")
        self.seed = seed
        self.vnodes = vnodes
        self._key = seed.to_bytes(8, "little", signed=True)
        #: Sorted ring points; parallel lists for bisect.
        self._points: List[int] = []
        self._owners: List[object] = []
        self._point_set: set = set()
        self._shards: Dict[object, List[int]] = {}

    # -- hashing -----------------------------------------------------------------

    def _hash(self, text: str) -> int:
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8,
                                 key=self._key).digest()
        return int.from_bytes(digest, "big")

    def point_of(self, key: object) -> int:
        """The ring position a key hashes to (tests and diagnostics)."""
        return self._hash(f"k:{key}")

    # -- membership --------------------------------------------------------------

    def add_shard(self, shard_id: object) -> None:
        """Join ``shard_id``: insert its virtual-node points."""
        if shard_id in self._shards:
            raise InvalidArgument(f"shard {shard_id!r} already on the ring")
        points = []
        for v in range(self.vnodes):
            point = self._hash(f"s:{shard_id}/{v}")
            # 64-bit collisions are ~impossible at this scale, but a
            # deterministic layout must not depend on luck: probe to the
            # next free point rather than silently stacking two owners.
            while point in self._point_set:
                point = (point + 1) % (1 << 64)
            idx = bisect.bisect_left(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, shard_id)
            self._point_set.add(point)
            points.append(point)
        self._shards[shard_id] = points

    def remove_shard(self, shard_id: object) -> None:
        """Leave the ring: drop ``shard_id``'s points."""
        points = self._shards.pop(shard_id, None)
        if points is None:
            raise InvalidArgument(f"shard {shard_id!r} is not on the ring")
        for point in points:
            idx = bisect.bisect_left(self._points, point)
            del self._points[idx]
            del self._owners[idx]
            self._point_set.discard(point)

    # -- placement ---------------------------------------------------------------

    def owner(self, key: object) -> object:
        """The shard owning ``key`` (first point clockwise of its hash)."""
        if not self._points:
            raise InvalidArgument("the ring has no shards")
        idx = bisect.bisect_right(self._points, self.point_of(key))
        if idx == len(self._points):
            idx = 0  # wrap past the top of the ring
        return self._owners[idx]
