"""The one UFS layer LFS and the FFS baseline share (DESIGN.md, "One UFS
layer").

Tables 2–3 compare the layouts by varying only where a block lives, so
the shared verbs exist once, and the cells those tables print are pinned
at exact virtual seconds: the printed tables round to ``%10.1f``, which
hides a charge-order slip in the shared code (FFS's 10 KB first byte
prints as ``0.1``).
"""

import pytest

from repro.bench.tables import run_table2, run_table3
from repro.ffs.filesystem import FFS
from repro.lfs.filesystem import LFS
from repro.lfs.ufs import UFS
from repro.util.units import KB, MB

#: Table 3's FFS column: size -> (first byte, total) in virtual seconds.
TABLE3_FFS = {
    10 * KB: (0.11891538996025552, 0.11971538996025544),
    100 * KB: (0.12217251997265599, 0.2185193560112335),
    1 * MB: (0.12254409689233547, 1.3031061293552657),
    10 * MB: (0.12288632428888668, 12.170452140858327),
}

#: Table 2 at 250 sequential and 50 random frames: per layout, each
#: phase's virtual seconds in phase order.
TABLE2 = {
    "ffs": [1.2050609118583395, 1.071103971846476, 1.127278753027852,
            0.9561804453020102, 0.586210513810066, 0.4119260030375216],
    "lfs": [1.2181691012804805, 1.6545712970556394, 1.1878971761118322,
            0.6939502243890985, 0.6596083212280774, 0.46871211703476945],
}


@pytest.mark.parametrize("layout", [FFS, LFS])
def test_ufs_verbs_are_defined_once(layout):
    shared = {name for name in vars(UFS) if not name.startswith("__")}
    assert issubclass(layout, UFS)
    assert not shared & set(vars(layout))


def test_table3_ffs_cells_hold_their_exact_seconds():
    results, _report = run_table3()
    assert results["ffs"] == TABLE3_FFS


def test_table2_ffs_and_lfs_phases_hold_their_exact_seconds():
    results, _report = run_table2(configs=["ffs", "lfs"], seq_frames=250,
                                  rand_frames=50)
    assert {config: [phase.seconds for phase in phases]
            for config, phases in results.items()} == TABLE2
