"""Suppression fixture: a noqa inside a compound statement's body covers
only its own line, never the statement's header (never imported)."""

import time


def _stamp():
    return time.time()  # noqa: HL001


def swallows(fs, inum):
    try:
        return fs.get_inode(inum)
    except Exception:  # finding: the noqa below is not here
        return None  # noqa: HL006 -- this line only


def spins(footprint, actor, vol):
    while True:
        try:
            return footprint.read(actor, vol, 0, 1)
        except DriveTimeout:  # finding: the noqa below is not here
            continue  # noqa: HL009 -- this line only


def suppressed_on_the_header(fs, inum):
    try:
        return fs.get_inode(inum)
    except Exception:  # noqa: HL006 -- the header line itself
        return None


def suppressed_on_a_continuation(fs, inum):
    try:
        return fs.get_inode(inum)
    except (KeyError,
            Exception):  # noqa: HL006 -- a header line
        return None
