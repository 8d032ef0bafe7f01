"""On-disk cache of exact integer vectors (the generating functions of a scan).

One record per (key, n), stored as ``<dir>/<key>_<n>.rec``:

    magic  b"PSRC"
    version u16 LE         (bumping it invalidates every record)
    key     u16 LE length + utf-8 bytes
    n       u32 LE
    offset  i64 LE         (lowest exponent for generating functions)
    count   u32 LE
    digest  32-byte sha256 of every field above it and the payload
    payload count * i64 LE

Loads verify every field and the checksum; anything off raises
:class:`CacheCorrupt` internally and callers recompute, never trust.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from pathlib import Path
from typing import Optional

from .errors import CacheCorrupt

MAGIC = b"PSRC"
VERSION = 2
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


class RecordCache:
    """Read-through store of integer vectors keyed by (name, n).

    The directory is made at the first store, so a run that stops before
    storing anything leaves none behind; a path that could never be one (it,
    or the nearest part of it that exists, is a file) is rejected at once.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        existing = next(p for p in (self.directory, *self.directory.parents) if p.exists())
        if not existing.is_dir():
            raise NotADirectoryError(f"cannot use {self.directory} as a cache directory: "
                                     f"{existing} is not a directory")

    def _path(self, key: str, n: int) -> Path:
        safe = "".join(ch if ch.isalnum() or ch in "_-" else "-" for ch in key)
        return self.directory / f"{safe}_{n}.rec"

    def store_vector(self, key: str, n: int, offset: int, values: tuple[int, ...]) -> None:
        if any(not _I64_MIN <= v <= _I64_MAX for v in values) or not (
            _I64_MIN <= offset <= _I64_MAX
        ):
            raise OverflowError("cache records store 64-bit integers")
        payload = b"".join(struct.pack("<q", v) for v in values)
        key_bytes = key.encode("utf-8")
        header = (
            MAGIC
            + struct.pack("<H", VERSION)
            + struct.pack("<H", len(key_bytes))
            + key_bytes
            + struct.pack("<I", n)
            + struct.pack("<q", offset)
            + struct.pack("<I", len(values))
        )
        path = self._path(key, n)
        self.directory.mkdir(parents=True, exist_ok=True)
        # A temp file of its own per writer: concurrent stores of one record
        # each replace it whole, and the last replace wins.
        fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(header + hashlib.sha256(header + payload).digest() + payload)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def load_vector(self, key: str, n: int) -> Optional[tuple[int, tuple[int, ...]]]:
        """Return (offset, values) or None when absent or corrupt."""
        try:
            return self._parse(self._path(key, n).read_bytes(), key, n)
        except (CacheCorrupt, OSError):
            return None

    @staticmethod
    def _parse(blob: bytes, key: str, n: int) -> tuple[int, tuple[int, ...]]:
        try:
            if blob[:4] != MAGIC:
                raise CacheCorrupt("bad magic")
            (version,) = struct.unpack_from("<H", blob, 4)
            if version != VERSION:
                raise CacheCorrupt("stale version")
            (key_len,) = struct.unpack_from("<H", blob, 6)
            stored_key = blob[8 : 8 + key_len].decode("utf-8")
            pos = 8 + key_len
            (stored_n,) = struct.unpack_from("<I", blob, pos)
            (offset,) = struct.unpack_from("<q", blob, pos + 4)
            (count,) = struct.unpack_from("<I", blob, pos + 12)
            digest = blob[pos + 16 : pos + 48]
            payload = blob[pos + 48 :]
            if stored_key != key or stored_n != n:
                raise CacheCorrupt("record key mismatch")
            if len(payload) != 8 * count or hashlib.sha256(blob[: pos + 16] + payload).digest() != digest:
                raise CacheCorrupt("checksum failure")
            values = struct.unpack(f"<{count}q", payload) if count else ()
            return offset, tuple(values)
        except (struct.error, UnicodeDecodeError, IndexError) as exc:
            raise CacheCorrupt(str(exc)) from exc
