"""Remote filesystem: trees, quotas, tar round-trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hpc.filesystem import (FilesystemError, QuotaExceeded,
                                  RemoteFilesystem, extract_tar_to_dict)


@pytest.fixture()
def fs():
    return RemoteFilesystem()


class TestBasics:
    def test_write_read_round_trip(self, fs):
        fs.mkdir("/scratch/amp")
        fs.write("/scratch/amp/input.txt", "mass = 1.0")
        assert fs.read_text("/scratch/amp/input.txt") == "mass = 1.0"

    def test_write_needs_directory(self, fs):
        with pytest.raises(FilesystemError):
            fs.write("/nodir/file.txt", b"x")

    def test_mkdir_parents(self, fs):
        fs.mkdir("/a/b/c")
        assert fs.isdir("/a") and fs.isdir("/a/b") and fs.isdir("/a/b/c")

    def test_mkdir_no_parents_raises(self, fs):
        with pytest.raises(FilesystemError):
            fs.mkdir("/a/b", parents=False)

    def test_read_missing_raises(self, fs):
        with pytest.raises(FilesystemError):
            fs.read("/ghost")

    def test_delete(self, fs):
        fs.mkdir("/d")
        fs.write("/d/f", b"x")
        fs.delete("/d/f")
        assert not fs.exists("/d/f")

    def test_listdir(self, fs):
        fs.mkdir("/run/static")
        fs.write("/run/input.txt", b"")
        fs.write("/run/static/eos.dat", b"")
        assert fs.listdir("/run") == ["input.txt", "static"]

    def test_rmtree_removes_everything_below(self, fs):
        fs.mkdir("/run/ga_0")
        fs.write("/run/ga_0/restart.json", b"{}")
        fs.write("/run/out.txt", b"x")
        fs.rmtree("/run")
        assert not fs.exists("/run/out.txt")
        assert not fs.exists("/run/ga_0/restart.json")
        assert not fs.isdir("/run")

    def test_rmtree_leaves_siblings(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/ab")  # shares a prefix with /a but is not inside it
        fs.write("/ab/keep", b"x")
        fs.rmtree("/a")
        assert fs.exists("/ab/keep")

    def test_glob(self, fs):
        fs.mkdir("/run/ga_0")
        fs.mkdir("/run/ga_1")
        fs.write("/run/ga_0/progress.json", b"{}")
        fs.write("/run/ga_1/progress.json", b"{}")
        assert len(fs.glob("/run/ga_*/progress.json")) == 2

    def test_json_round_trip(self, fs):
        fs.mkdir("/d")
        fs.write_json("/d/cfg.json", {"iterations": 200})
        assert fs.read_json("/d/cfg.json") == {"iterations": 200}


class TestQuota:
    def test_quota_enforced(self):
        fs = RemoteFilesystem(quota_bytes=100)
        fs.mkdir("/d")
        fs.write("/d/ok", b"x" * 90)
        with pytest.raises(QuotaExceeded):
            fs.write("/d/too-big", b"x" * 20)

    def test_overwrite_releases_old_size(self):
        fs = RemoteFilesystem(quota_bytes=100)
        fs.mkdir("/d")
        fs.write("/d/f", b"x" * 90)
        fs.write("/d/f", b"y" * 95)  # replaces, fits
        assert fs.used_bytes() == 95

    def test_lonestar_small_disk_scenario(self):
        """The paper's Lonestar concern: output too big for scratch."""
        fs = RemoteFilesystem(quota_bytes=1024)
        fs.mkdir("/scratch")
        with pytest.raises(QuotaExceeded):
            fs.write("/scratch/huge.tar", b"0" * 4096)


class TestTar:
    def test_tar_round_trip(self, fs):
        fs.mkdir("/run/logs")
        fs.write("/run/output.txt", b"RESULT teff = 5777")
        fs.write("/run/logs/model.log", b"done")
        blob = fs.tar_tree("/run")
        extracted = extract_tar_to_dict(blob)
        assert extracted == {"output.txt": b"RESULT teff = 5777",
                             "logs/model.log": b"done"}

    def test_untar_tree(self, fs):
        fs.mkdir("/src")
        fs.write("/src/a.txt", b"A")
        blob = fs.tar_tree("/src")
        fs.untar_tree("/dst", blob)
        assert fs.read("/dst/a.txt") == b"A"

    @given(files=st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=8),
        st.binary(max_size=200), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_tar_property_round_trip(self, files):
        fs = RemoteFilesystem()
        fs.mkdir("/t")
        for name, data in files.items():
            fs.write(f"/t/{name}", data)
        assert extract_tar_to_dict(fs.tar_tree("/t")) == files


class TestUsedBytesCounter:
    """``used_bytes()`` is a running total kept by every mutation; it
    must always equal the sum it replaced."""

    @staticmethod
    def recomputed(fs):
        return sum(len(fs.read(p)) for p in fs.walk_files("/"))

    def test_counter_tracks_mixed_operations(self):
        fs = RemoteFilesystem(quota_bytes=10_000)
        fs.mkdir("/run/a/deep")
        fs.mkdir("/keep")
        steps = [
            lambda: fs.write("/run/a/x", b"1" * 100),
            lambda: fs.write("/run/a/deep/y", "é" * 50),    # 100 bytes
            lambda: fs.write("/keep/z", b"2" * 30),
            lambda: fs.write("/run/a/x", b"3" * 10),        # overwrite
            lambda: fs.write_json("/run/a/j", {"b": 1, "a": [1, 2]}),
            lambda: fs.delete("/run/a/deep/y"),
            lambda: fs.untar_tree("/run/b", fs.tar_tree("/run/a")),
            lambda: fs.rmtree("/run/a"),
            lambda: fs.write("/run/b/x", b""),              # shrink to 0
            lambda: fs.rmtree("/run"),
        ]
        for step in steps:
            step()
            assert fs.used_bytes() == self.recomputed(fs)
        assert fs.used_bytes() == 30

    def test_refused_write_leaves_counter_unchanged(self):
        fs = RemoteFilesystem(quota_bytes=100)
        fs.mkdir("/d")
        fs.write("/d/f", b"x" * 60)
        with pytest.raises(QuotaExceeded):
            fs.write("/d/g", b"x" * 41)
        with pytest.raises(QuotaExceeded):
            fs.write("/d/f", b"x" * 101)
        with pytest.raises(FilesystemError):
            fs.delete("/d/missing")
        assert fs.used_bytes() == 60 == self.recomputed(fs)
        fs.write("/d/g", b"x" * 40)                 # exactly at quota
        assert fs.used_bytes() == 100

    @given(st.lists(st.tuples(st.sampled_from(["w", "d", "r"]),
                              st.sampled_from(["/a/f", "/a/b/g", "/c/h"]),
                              st.integers(0, 40)), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_counter_property(self, ops):
        fs = RemoteFilesystem(quota_bytes=200)
        for op, path, size in ops:
            directory = path.rsplit("/", 1)[0]
            try:
                if op == "w":
                    fs.mkdir(directory)
                    fs.write(path, b"z" * size)
                elif op == "d":
                    fs.delete(path)
                else:
                    fs.rmtree(directory)
            except FilesystemError:
                pass
            assert fs.used_bytes() == self.recomputed(fs)
