"""Integration tests: basic LFS file and namespace operations."""

import os

import pytest

from repro.errors import (DirectoryNotEmpty, FileExists, FileNotFound,
                          IsADirectory, NotADirectory)
from repro.lfs.constants import BLOCK_SIZE, IFILE_INUM, ROOT_INUM
from repro.lfs.filesystem import LFS
from repro.lfs.inode import S_IFDIR


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
    def test_mkdir_and_nested_files(self, lfs):
        lfs.mkdir("/a")
        lfs.mkdir("/a/b")
        lfs.write_path("/a/b/c.txt", b"deep")
        assert lfs.read_path("/a/b/c.txt") == b"deep"
        assert lfs.readdir("/a") == ["b"]

    def test_create_duplicate_fails(self, lfs):
        lfs.create("/x")
        with pytest.raises(FileExists):
            lfs.create("/x")

    def test_mkdir_duplicate_fails(self, lfs):
        lfs.mkdir("/d")
        with pytest.raises(FileExists):
            lfs.mkdir("/d")

    def test_lookup_missing(self, lfs):
        with pytest.raises(FileNotFound):
            lfs.lookup("/nope")

    def test_lookup_through_file_fails(self, lfs):
        lfs.create("/f")
        with pytest.raises(NotADirectory):
            lfs.lookup("/f/child")

    def test_unlink(self, lfs):
        lfs.write_path("/dead", b"x")
        lfs.unlink("/dead")
        with pytest.raises(FileNotFound):
            lfs.lookup("/dead")

    def test_unlink_directory_fails(self, lfs):
        lfs.mkdir("/d")
        with pytest.raises(IsADirectory):
            lfs.unlink("/d")

    def test_rmdir(self, lfs):
        lfs.mkdir("/d")
        lfs.rmdir("/d")
        with pytest.raises(FileNotFound):
            lfs.lookup("/d")

    def test_rmdir_nonempty_fails(self, lfs):
        lfs.mkdir("/d")
        lfs.create("/d/f")
        with pytest.raises(DirectoryNotEmpty):
            lfs.rmdir("/d")

    def test_rmdir_file_fails(self, lfs):
        lfs.create("/f")
        with pytest.raises(NotADirectory):
            lfs.rmdir("/f")

    def test_rename_same_dir(self, lfs):
        lfs.write_path("/old", b"content")
        lfs.rename("/old", "/new")
        assert lfs.read_path("/new") == b"content"
        with pytest.raises(FileNotFound):
            lfs.lookup("/old")

    def test_rename_across_dirs(self, lfs):
        lfs.mkdir("/src")
        lfs.mkdir("/dst")
        lfs.write_path("/src/f", b"move me")
        lfs.rename("/src/f", "/dst/g")
        assert lfs.read_path("/dst/g") == b"move me"
        assert lfs.readdir("/src") == []

    def test_rename_target_exists_fails(self, lfs):
        lfs.create("/a")
        lfs.create("/b")
        with pytest.raises(FileExists):
            lfs.rename("/a", "/b")

    def test_readdir_sorted(self, lfs):
        for name in ("zebra", "apple", "mango"):
            lfs.create(f"/{name}")
        assert lfs.readdir("/") == ["apple", "mango", "zebra"]

    def test_nlink_accounting(self, lfs):
        root = lfs.get_inode(ROOT_INUM)
        base = root.nlink
        lfs.mkdir("/d1")
        assert root.nlink == base + 1
        lfs.rmdir("/d1")
        assert root.nlink == base

    def test_stat(self, lfs):
        lfs.write_path("/s", b"12345")
        ino = lfs.stat("/s")
        assert ino.size == 5
        assert not ino.is_dir()

    def test_deep_tree(self, lfs):
        path = ""
        for depth in range(8):
            path += f"/d{depth}"
            lfs.mkdir(path)
        lfs.write_path(path + "/leaf", b"bottom")
        assert lfs.read_path(path + "/leaf") == b"bottom"

    def test_many_files_in_dir(self, lfs):
        lfs.mkdir("/many")
        for i in range(120):
            lfs.create(f"/many/file{i:03d}")
        assert len(lfs.readdir("/many")) == 120


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
