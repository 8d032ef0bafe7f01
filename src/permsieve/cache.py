"""On-disk cache of exact integer vectors (the generating functions of a scan).

One record per (key, n), stored as ``<dir>/<key>_<n>.rec`` in two lines:

    <hex sha256 of the body>
    <body>    json.dumps([VERSION, key, n, offset, values])

``offset`` is the lowest exponent of a generating function and ``values`` its
coefficients.  A load compares the digest before it parses the body, then
accepts only a five-element list that starts ``[VERSION, key, n]`` and whose
offset and values are integers; anything else loads as None, and callers
recompute, never trust.  Bumping VERSION invalidates every record.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

VERSION = 3


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
        body = json.dumps([VERSION, key, n, offset, values]).encode()
        path = self._path(key, n)
        self.directory.mkdir(parents=True, exist_ok=True)
        # A temp file of its own per writer: concurrent stores of one record
        # each replace it whole, and the last replace wins.
        fd, tmp = tempfile.mkstemp(prefix=path.stem + ".", suffix=".tmp", dir=self.directory)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def load_vector(self, key: str, n: int) -> Optional[tuple[int, tuple[int, ...]]]:
        """Return (offset, values) or None when absent or corrupt."""
        try:
            digest, _, body = self._path(key, n).read_bytes().partition(b"\n")
            if digest != hashlib.sha256(body).hexdigest().encode():
                return None
            record = json.loads(body)  # ValueError: bad UTF-8, bad JSON, too many digits
        except (OSError, ValueError):
            return None
        if type(record) is list and len(record) == 5 and record[:3] == [VERSION, key, n]:
            offset, values = record[3:]
            # not bool, which JSON true parses to, nor a float or string: each counts permutations
            if type(offset) is int and type(values) is list and set(map(type, values)) <= {int}:
                return offset, tuple(values)
        return None
