"""Shared fixtures: small, fast testbed instances, and the one
whole-tree analysis run."""

import time
from pathlib import Path

import pytest

from repro.blockdev import profiles
from repro.core.migrator import Migrator
from repro.core.stack import make_highlight, remount
from repro.lfs.filesystem import LFS, LFSConfig
from repro.sim.actor import Actor
from repro.util.units import MB


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate golden trace/metric files instead of comparing")


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def src_analysis():
    """One timed ``run_paths`` over ``src/repro``, shared by every test
    that judges the tree's result: ``(result, seconds)``."""
    from repro.analysis import run_paths
    t0 = time.monotonic()
    result = run_paths([Path(__file__).parent.parent / "src" / "repro"])
    return result, time.monotonic() - t0


@pytest.fixture(autouse=True)
def _fresh_observability():
    """Every test starts from zeroed metrics and an empty trace."""
    from repro import obs
    obs.reset()
    yield


@pytest.fixture(scope="session")
def session_sanitizer():
    """The one borrow sanitizer the whole session runs under."""
    from repro.analysis.sanitize import BorrowSanitizer
    return BorrowSanitizer()


@pytest.fixture(autouse=True)
def _borrow_sanitizer(session_sanitizer):
    """Every test runs with the runtime borrow sanitizer armed: a lent
    extent ref read after its store released the range raises
    ``BorrowViolation``.  Installed per test, so a test that disarms it
    cannot disarm the ones after it."""
    from repro.analysis import sanitize
    sanitize.install(session_sanitizer)
    yield
    sanitize.uninstall()


@pytest.fixture
def armed():
    """A fresh borrow sanitizer, with an empty ledger, for one test; the
    session one comes back after."""
    from repro.analysis.sanitize import BorrowSanitizer
    from repro.blockdev.datapath import set_sanitizer
    san = BorrowSanitizer()
    session = set_sanitizer(san)
    yield san
    set_sanitizer(session)


@pytest.fixture
def app():
    return Actor("app")


@pytest.fixture
def small_disk():
    return profiles.make_disk(profiles.RZ57, capacity_bytes=64 * MB)


@pytest.fixture
def lfs(small_disk, app):
    return LFS.mkfs(small_disk, LFSConfig(), actor=app)


class HLBed:
    """A compact HighLight testbed for integration tests."""

    def __init__(self, disk_bytes=96 * MB, n_platters=4,
                 platter_bytes=40 * MB, config=None, **migrator_kwargs):
        self.bed = make_highlight(disk_bytes, n_platters=n_platters,
                                  platter_constraint=platter_bytes,
                                  config=config)
        self.disk, self.jukebox = self.bed.disk, self.bed.jukebox
        self.footprint, self.app = self.bed.footprint, self.bed.app
        self.fs, self.migrator = self.bed.fs, self.bed.migrator
        if migrator_kwargs:
            self.migrator = Migrator(self.fs, **migrator_kwargs)

    def remount(self):
        """Crash: rebuild everything reachable from the media."""
        bed = remount(self.bed)
        self.fs, self.migrator = bed.fs, bed.migrator
        return bed.fs


@pytest.fixture
def hl():
    return HLBed()
