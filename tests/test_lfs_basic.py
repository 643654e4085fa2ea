"""Integration tests: basic LFS file and namespace operations; the
namespace cases run on the FFS layout too."""

import os

import pytest

from repro.errors import (DirectoryNotEmpty, FileExists, FileNotFound,
                          IsADirectory, NotADirectory)
from repro.ffs.filesystem import FFS
from repro.lfs.constants import BLOCK_SIZE, IFILE_INUM, ROOT_INUM


class TestFileIO:
    def test_create_and_read_back(self, lfs):
        inum = lfs.create("/hello")
        lfs.write(inum, 0, b"hello world")
        assert lfs.read(inum, 0, 11) == b"hello world"

    def test_write_path_creates(self, lfs):
        lfs.write_path("/auto.txt", b"data")
        assert lfs.read_path("/auto.txt") == b"data"

    def test_offset_write(self, lfs):
        inum = lfs.create("/f")
        lfs.write(inum, 0, b"aaaa")
        lfs.write(inum, 2, b"BB")
        assert lfs.read(inum, 0, 4) == b"aaBB"

    def test_append_extends(self, lfs):
        inum = lfs.create("/f")
        lfs.write(inum, 0, b"1234")
        lfs.write(inum, 4, b"5678")
        assert lfs.get_inode(inum).size == 8
        assert lfs.read(inum, 0, 8) == b"12345678"

    def test_hole_reads_zero(self, lfs):
        inum = lfs.create("/sparse")
        lfs.write(inum, 10 * BLOCK_SIZE, b"end")
        assert lfs.read(inum, 0, 4) == b"\0\0\0\0"
        assert lfs.read(inum, 10 * BLOCK_SIZE, 3) == b"end"

    def test_read_past_eof_truncates(self, lfs):
        inum = lfs.create("/f")
        lfs.write(inum, 0, b"abc")
        assert lfs.read(inum, 0, 100) == b"abc"
        assert lfs.read(inum, 50, 10) == b""

    def test_unaligned_block_spanning_write(self, lfs):
        inum = lfs.create("/f")
        payload = os.urandom(3 * BLOCK_SIZE + 17)
        lfs.write(inum, 100, payload)
        assert lfs.read(inum, 100, len(payload)) == payload

    def test_overwrite_same_block(self, lfs):
        inum = lfs.create("/f")
        lfs.write(inum, 0, b"old" * 100)
        lfs.write(inum, 0, b"new" * 100)
        assert lfs.read(inum, 0, 300) == b"new" * 100

    def test_large_file_roundtrip(self, lfs):
        payload = os.urandom(3 * 1024 * 1024)  # spans indirect blocks
        lfs.write_path("/big", payload)
        assert lfs.read_path("/big") == payload

    def test_mtime_advances(self, lfs, app):
        inum = lfs.create("/f")
        lfs.write(inum, 0, b"x")
        t1 = lfs.get_inode(inum).mtime
        app.sleep(10)
        lfs.write(inum, 0, b"y")
        assert lfs.get_inode(inum).mtime > t1

    def test_atime_on_read(self, lfs, app):
        inum = lfs.create("/f")
        lfs.write(inum, 0, b"x")
        app.sleep(10)
        lfs.read(inum, 0, 1)
        assert lfs.get_inode(inum).atime == pytest.approx(app.time)

    def test_atime_suppressed(self, lfs, app):
        inum = lfs.create("/f")
        lfs.write(inum, 0, b"x")
        before = lfs.get_inode(inum).atime
        app.sleep(10)
        lfs.read(inum, 0, 1, update_atime=False)
        assert lfs.get_inode(inum).atime == before

    def test_truncate_shrinks(self, lfs):
        lfs.write_path("/t", b"z" * (5 * BLOCK_SIZE))
        lfs.truncate("/t", BLOCK_SIZE)
        assert lfs.stat("/t").size == BLOCK_SIZE
        assert lfs.read_path("/t") == b"z" * BLOCK_SIZE

    def test_truncate_grows_sparse(self, lfs):
        lfs.write_path("/t", b"ab")
        lfs.truncate("/t", 100)
        assert lfs.stat("/t").size == 100


class TestNamespace:
    """Namespace operations of the shared UFS layer, on LFS."""

    @pytest.fixture
    def fs(self, lfs):
        return lfs

    def test_mkdir_and_nested_files(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.write_path("/a/b/c.txt", b"deep")
        assert fs.read_path("/a/b/c.txt") == b"deep"
        assert fs.readdir("/a") == ["b"]

    def test_create_duplicate_fails(self, fs):
        fs.create("/x")
        with pytest.raises(FileExists):
            fs.create("/x")

    def test_mkdir_duplicate_fails(self, fs):
        fs.mkdir("/d")
        with pytest.raises(FileExists):
            fs.mkdir("/d")

    def test_lookup_missing(self, fs):
        with pytest.raises(FileNotFound):
            fs.lookup("/nope")

    def test_lookup_through_file_fails(self, fs):
        fs.create("/f")
        with pytest.raises(NotADirectory):
            fs.lookup("/f/child")

    def test_unlink(self, fs):
        fs.write_path("/dead", b"x")
        fs.unlink("/dead")
        with pytest.raises(FileNotFound):
            fs.lookup("/dead")

    def test_unlink_directory_fails(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectory):
            fs.unlink("/d")

    def test_rmdir(self, fs):
        fs.mkdir("/d")
        fs.rmdir("/d")
        with pytest.raises(FileNotFound):
            fs.lookup("/d")

    def test_rmdir_nonempty_fails(self, fs):
        fs.mkdir("/d")
        fs.create("/d/f")
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/d")

    def test_rmdir_file_fails(self, fs):
        fs.create("/f")
        with pytest.raises(NotADirectory):
            fs.rmdir("/f")

    def test_rename_same_dir(self, fs):
        fs.write_path("/old", b"content")
        fs.rename("/old", "/new")
        assert fs.read_path("/new") == b"content"
        with pytest.raises(FileNotFound):
            fs.lookup("/old")

    def test_rename_across_dirs(self, fs):
        fs.mkdir("/src")
        fs.mkdir("/dst")
        fs.write_path("/src/f", b"move me")
        fs.rename("/src/f", "/dst/g")
        assert fs.read_path("/dst/g") == b"move me"
        assert fs.readdir("/src") == []

    def test_rename_target_exists_fails(self, fs):
        fs.create("/a")
        fs.create("/b")
        with pytest.raises(FileExists):
            fs.rename("/a", "/b")

    def test_readdir_sorted(self, fs):
        for name in ("zebra", "apple", "mango"):
            fs.create(f"/{name}")
        assert fs.readdir("/") == ["apple", "mango", "zebra"]

    def test_nlink_accounting(self, fs):
        root = fs.get_inode(ROOT_INUM)
        base = root.nlink
        fs.mkdir("/d1")
        assert root.nlink == base + 1
        fs.rmdir("/d1")
        assert root.nlink == base

    def test_stat(self, fs):
        fs.write_path("/s", b"12345")
        ino = fs.stat("/s")
        assert ino.size == 5
        assert not ino.is_dir()

    def test_deep_tree(self, fs):
        path = ""
        for depth in range(8):
            path += f"/d{depth}"
            fs.mkdir(path)
        fs.write_path(path + "/leaf", b"bottom")
        assert fs.read_path(path + "/leaf") == b"bottom"

    def test_many_files_in_dir(self, fs):
        fs.mkdir("/many")
        for i in range(120):
            fs.create(f"/many/file{i:03d}")
        assert len(fs.readdir("/many")) == 120


class TestFFSNamespace(TestNamespace):
    """The same cases on the FFS layout."""

    @pytest.fixture
    def fs(self, small_disk, app):
        return FFS.mkfs(small_disk, actor=app)


class TestInodeLifecycle:
    def test_inum_reuse_after_unlink(self, lfs):
        lfs.create("/a")
        inum = lfs.lookup("/a")
        lfs.unlink("/a")
        lfs.create("/b")
        assert lfs.lookup("/b") == inum  # free list recycled it

    def test_unlink_releases_blocks(self, lfs):
        lfs.write_path("/fat", b"q" * (2 * 1024 * 1024))
        lfs.checkpoint()
        live_before = sum(s.live_bytes for s in lfs.ifile.segs)
        lfs.unlink("/fat")
        live_after = sum(s.live_bytes for s in lfs.ifile.segs)
        assert live_before - live_after >= 2 * 1024 * 1024

    def test_ifile_inode_special(self, lfs):
        assert lfs.get_inode(IFILE_INUM) is lfs.ifile_inode

    def test_df(self, lfs):
        d = lfs.df()
        assert d["segments"] == lfs.ifile.nsegs
        assert d["clean"] + d["dirty"] <= d["segments"]
