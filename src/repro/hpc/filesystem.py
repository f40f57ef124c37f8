"""Remote filesystem simulation.

Each compute resource exposes a scratch filesystem the pre-job/post-job
scripts and GridFTP operate on.  Files are in-memory ``bytes``; paths are
POSIX-style.  The quota models the paper's Lonestar disk-space concern
and the cleanup stage's guarantee that run directories are removed.
"""

from __future__ import annotations

import fnmatch
import io
import json
import posixpath
import tarfile


class FilesystemError(Exception):
    pass


class QuotaExceeded(FilesystemError):
    pass


class RemoteFilesystem:
    """A path → bytes store with directory semantics and a quota."""

    def __init__(self, quota_bytes=None):
        self._files = {}
        self._dirs = {"/"}
        self.quota_bytes = quota_bytes
        # Running total of every file's size, kept by each mutation, so
        # a write's quota check does not re-sum the whole store.
        self._used = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _norm(path):
        path = posixpath.normpath("/" + path.lstrip("/"))
        return path

    def used_bytes(self):
        return self._used

    # ------------------------------------------------------------------
    def mkdir(self, path, parents=True):
        path = self._norm(path)
        parent = posixpath.dirname(path)
        if parent not in self._dirs:
            if not parents:
                raise FilesystemError(f"Parent {parent} does not exist")
            self.mkdir(parent, parents=True)
        self._dirs.add(path)

    def isdir(self, path):
        return self._norm(path) in self._dirs

    def exists(self, path):
        path = self._norm(path)
        return path in self._files or path in self._dirs

    def write(self, path, data):
        path = self._norm(path)
        if isinstance(data, str):
            data = data.encode("utf-8")
        parent = posixpath.dirname(path)
        if parent not in self._dirs:
            raise FilesystemError(f"Directory {parent} does not exist")
        projected = self._used - len(self._files.get(path, b"")) \
            + len(data)
        if self.quota_bytes is not None and projected > self.quota_bytes:
            raise QuotaExceeded(
                f"Write of {len(data)} bytes exceeds quota "
                f"{self.quota_bytes}")
        self._files[path] = bytes(data)
        self._used = projected

    def read(self, path):
        path = self._norm(path)
        try:
            return self._files[path]
        except KeyError:
            raise FilesystemError(f"No such file: {path}")

    def read_text(self, path):
        return self.read(path).decode("utf-8")

    def write_json(self, path, payload):
        self.write(path, json.dumps(payload, sort_keys=True))

    def read_json(self, path):
        return json.loads(self.read_text(path))

    def delete(self, path):
        path = self._norm(path)
        if path in self._files:
            self._used -= len(self._files.pop(path))
        else:
            raise FilesystemError(f"No such file: {path}")

    def rmtree(self, path):
        """Remove a directory and everything beneath it (cleanup stage)."""
        path = self._norm(path)
        prefix = path.rstrip("/") + "/"
        for doomed in [p for p in self._files
                       if p.startswith(prefix) or p == path]:
            self._used -= len(self._files.pop(doomed))
        self._dirs = {d for d in self._dirs
                      if not d.startswith(prefix) and d != path}

    def listdir(self, path):
        path = self._norm(path)
        if path not in self._dirs:
            raise FilesystemError(f"No such directory: {path}")
        prefix = path.rstrip("/") + "/" if path != "/" else "/"
        names = set()
        for p in list(self._files) + list(self._dirs):
            if p != path and p.startswith(prefix):
                names.add(p[len(prefix):].split("/")[0])
        return sorted(names)

    def walk_files(self, path="/"):
        path = self._norm(path)
        prefix = path.rstrip("/") + "/" if path != "/" else "/"
        return sorted(p for p in self._files
                      if p.startswith(prefix) or p == path)

    def glob(self, pattern):
        return sorted(p for p in self._files
                      if fnmatch.fnmatch(p, self._norm(pattern)))

    # ------------------------------------------------------------------
    def tar_tree(self, path):
        """Pack a directory into a tar archive (the post-job stage)."""
        path = self._norm(path)
        buffer = io.BytesIO()
        with tarfile.open(fileobj=buffer, mode="w") as archive:
            for file_path in self.walk_files(path):
                data = self._files[file_path]
                info = tarfile.TarInfo(
                    name=posixpath.relpath(file_path, path))
                info.size = len(data)
                archive.addfile(info, io.BytesIO(data))
        return buffer.getvalue()

    def untar_tree(self, path, blob):
        """Unpack a tar archive under *path*."""
        path = self._norm(path)
        self.mkdir(path)
        with tarfile.open(fileobj=io.BytesIO(blob), mode="r") as archive:
            for member in archive.getmembers():
                if not member.isfile():
                    continue
                target = posixpath.join(path, member.name)
                self.mkdir(posixpath.dirname(target))
                self.write(target, archive.extractfile(member).read())


def extract_tar_to_dict(blob):
    """Unpack a tar blob into ``{relative_path: bytes}`` (daemon side)."""
    result = {}
    with tarfile.open(fileobj=io.BytesIO(blob), mode="r") as archive:
        for member in archive.getmembers():
            if member.isfile():
                result[member.name] = archive.extractfile(member).read()
    return result
