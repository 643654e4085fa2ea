"""Workload generators for the evaluation and the examples.

* ``largeobject`` — the Stonebraker/Olson large-object benchmark the
  paper uses for Table 2;
* ``filetree`` — synthetic namespace trees (software-development-like
  units for the namespace policy);
* ``traces`` — skewed archival access traces matching the paper's §5
  assumptions (most archived data never re-read; reactivated data gets
  many accesses);
* ``checkpoints`` — scientific-checkpoint files (written once, later
  read back completely and sequentially, §5.2);
* ``database`` — database-style random, incomplete page access within
  large files (§5.2's motivation for block-range migration).
"""
