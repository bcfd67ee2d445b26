"""Content-addressed blob storage for the campaign store.

Large immutable payloads — golden records, canonical circuit
serializations — live outside SQLite as loose objects under
``objects/<aa>/<rest>`` (git-style fan-out), addressed by the SHA-256
of their content.  Writes are atomic *and durable*: the temp file is
fsynced before the rename and the parent directory after it (the
``durable`` knob, default on), so neither a crash nor a lost page
flush can leave a torn object under its final name; reads re-hash
the payload and raise :class:`CorruptBlobError` on mismatch, which
callers treat as a cache miss (re-derive, re-store), never as a
crash.  ``ENOSPC``/``EIO`` surface as coded :class:`StoreIOError`
diagnostics (E413/E414) instead of tracebacks.

Every step of the write protocol passes through a named failpoint
(:mod:`repro.chaos.failpoints`) so the crash-consistency harness can
kill or tear the write at each instruction and verify the invariants
hold.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from ..chaos.failpoints import fail_at
from .errors import StoreIOError, raise_for_io

__all__ = ["BlobStore", "CorruptBlobError", "StoreIOError"]


class CorruptBlobError(Exception):
    """A stored object no longer matches its content address."""

    def __init__(self, digest: str, actual: str):
        super().__init__(
            f"blob {digest[:12]} is corrupt (content hashes to "
            f"{actual[:12]})")
        self.digest = digest
        self.actual = actual


class BlobStore:
    """A directory of immutable, checksummed, content-addressed blobs."""

    def __init__(self, root: str | Path, durable: bool = True):
        self.root = Path(root)
        self.durable = durable
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        return self.objects / digest[:2] / digest[2:]

    def put(self, data: bytes, durable: bool | None = None) -> str:
        """Write one blob: temp file → fsync → rename → dir fsync.

        Without the fsyncs a crash *after* the rename could still
        tear the object (the rename is durable before the data), a
        failure mode checksum-on-read only catches later; ``durable``
        (default: the store-level knob, itself default on) closes it
        at the cost of two fsyncs per new object.
        """
        durable = self.durable if durable is None else durable
        digest = hashlib.sha256(data).hexdigest()
        path = self.path_for(digest)
        if path.exists():
            return digest
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = None
        try:
            fail_at("store.blob.pre-temp-write")
            fd, tmp = tempfile.mkstemp(dir=path.parent,
                                       prefix=".tmp-")
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                fail_at("store.blob.post-temp-write", path=tmp)
                if durable:
                    handle.flush()
                    os.fsync(handle.fileno())
            fail_at("store.blob.pre-rename", path=tmp)
            os.replace(tmp, path)   # atomic: readers never see partials
            tmp = None
            fail_at("store.blob.post-rename", path=str(path))
            if durable:
                self._fsync_dir(path.parent)
        except BaseException as err:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            if isinstance(err, OSError):
                raise_for_io(err, str(path))   # E413/E414 or re-raise
            raise
        return digest

    @staticmethod
    def _fsync_dir(path: Path) -> None:
        """Make a rename durable by fsyncing its directory (no-op on
        platforms that refuse to open directories)."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def get(self, digest: str, verify: bool = True) -> bytes:
        try:
            data = self.path_for(digest).read_bytes()
        except FileNotFoundError:
            raise KeyError(digest) from None
        if verify:
            actual = hashlib.sha256(data).hexdigest()
            if actual != digest:
                raise CorruptBlobError(digest, actual)
        return data

    def has(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def delete(self, digest: str) -> bool:
        try:
            self.path_for(digest).unlink()
            return True
        except FileNotFoundError:
            return False

    # ------------------------------------------------------------------
    def digests(self) -> list[str]:
        out = []
        for shard in self.objects.iterdir():
            if not shard.is_dir():
                continue
            for obj in shard.iterdir():
                if not obj.name.startswith("."):
                    out.append(shard.name + obj.name)
        return sorted(out)

    def __len__(self) -> int:
        return len(self.digests())

    def total_bytes(self) -> int:
        return sum(self.path_for(d).stat().st_size
                   for d in self.digests())
