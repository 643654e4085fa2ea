"""A 4.4BSD-style log-structured file system over simulated block devices.

This is the substrate HighLight extends (paper §3): a segmented log with
partial-segment summaries (Table 1), an inode map and segment-usage table
kept in the *ifile* (a regular file), a user-level cleaner, periodic
checkpoints, and roll-forward recovery along the threaded log.

All on-media structures are genuinely byte-serialised: recovery really
scans the log, checksums really catch torn partial segments, and file data
round-trips bit-for-bit through the block devices.
"""
