"""On-disk cache of the generating functions of a scan.

One record per (key, n), stored as ``<dir>/<key>_<n>.rec`` in two lines:

    <hex sha256 of the body>
    <body>    json.dumps([code_digest(), key, n, offset, coeffs])

``offset`` is the lowest exponent of the generating function and ``coeffs``
its coefficients.  :func:`code_digest` names the code that made the record: a
sha256 over the package's ``.py`` files.  A load compares the digest line
before it parses the body, then accepts only a five-element list that starts
``[code_digest(), key, n]`` and whose offset and coefficients are integers.
The coefficients must also be a value on S_n: trimmed at both ends, none
negative, summing to n!, since each counts permutations.  Anything else loads
as None, and callers recompute, never trust.  So any edit to the package
invalidates every record, and two checkouts of different code that share a
cache directory overwrite each other's records and never read them.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import cache
from math import factorial
from pathlib import Path
from typing import Optional

from .polynomials import IntPolynomial


@cache
def code_digest() -> str:
    """Hex sha256 over the package's ``.py`` files, each as its path relative
    to the package, a NUL, its length, a NUL and its bytes, in path order;
    computed once per process."""
    package = Path(__file__).parent
    h = hashlib.sha256()
    for rel in sorted(path.relative_to(package).as_posix() for path in package.rglob("*.py")):
        data = (package / rel).read_bytes()
        h.update(b"%s\0%d\0%s" % (rel.encode(), len(data), data))
    return h.hexdigest()


class RecordCache:
    """Read-through store of generating functions on S_n, keyed by (name, n).

    Every record is checked here, digest, header and value on S_n, so a load
    hands out a generating function or None.  The directory is made at the
    first store, so a run that stops before storing anything leaves none
    behind; a path that could never be one (it, or the nearest part of it
    that exists, is a file) is rejected at once.
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

    def store_vector(self, key: str, n: int, gf: IntPolynomial) -> None:
        body = json.dumps([code_digest(), key, n, gf.offset, gf.coeffs]).encode()
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

    def load_vector(self, key: str, n: int) -> Optional[IntPolynomial]:
        """The generating function stored for (key, n), or None when absent, corrupt or no value on S_n."""
        try:
            digest, _, body = self._path(key, n).read_bytes().partition(b"\n")
            if digest != hashlib.sha256(body).hexdigest().encode():
                return None
            record = json.loads(body)  # ValueError: bad UTF-8, bad JSON, too many digits
        except (OSError, ValueError):
            return None
        if type(record) is list and len(record) == 5 and record[:3] == [code_digest(), key, n]:
            offset, coeffs = record[3:]
            # not bool, which JSON true parses to, nor a float or string: each counts permutations
            if (type(offset) is int and type(coeffs) is list and set(map(type, coeffs)) <= {int}
                    and sum(coeffs) == factorial(n) and min(coeffs) >= 0 and coeffs[0] and coeffs[-1]):
                return IntPolynomial(tuple(coeffs), offset)
        return None
