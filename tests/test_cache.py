"""Record cache: round trips, corruption handling, invalidation."""

import hashlib
import json
import multiprocessing
import struct

import pytest

from permsieve.cache import VERSION, RecordCache
from permsieve.cli import main
from permsieve.polynomials import IntPolynomial
from permsieve.statistics import mahonian_gf

RACE_STORES = 300
GF4 = mahonian_gf(4)  # 1 + 3q + 5q^2 + 6q^3 + 5q^4 + 3q^5 + q^6, a value on S_4


class TestRoundTrip:
    def test_store_and_load(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("gf_st018", 6, mahonian_gf(6))
        assert cache.load_vector("gf_st018", 6) == mahonian_gf(6)

    def test_negative_offset(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("gf_st1377", 4, GF4.shift(-6))
        assert cache.load_vector("gf_st1377", 4) == GF4.shift(-6)

    def test_empty_vector(self, tmp_path):
        """The zero polynomial is no value on S_n: it is stored, and loads as None."""
        cache = RecordCache(tmp_path)
        cache.store_vector("gf_zero", 3, IntPolynomial.zero())
        assert cache._path("gf_zero", 3).exists()
        assert cache.load_vector("gf_zero", 3) is None

    def test_missing_returns_none(self, tmp_path):
        assert RecordCache(tmp_path).load_vector("gf_st018", 6) is None

    def test_overwrite(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("k", 2, IntPolynomial((2,)))
        cache.store_vector("k", 2, IntPolynomial((1, 1)))
        assert cache.load_vector("k", 2) == IntPolynomial((1, 1))

    def test_key_sanitization(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("gf:odd/key", 2, IntPolynomial((1, 1)))
        assert cache.load_vector("gf:odd/key", 2) == IntPolynomial((1, 1))


class TestCorruption:
    def _record_path(self, cache, key, n):
        return cache._path(key, n)

    def test_truncated_record(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("k", 4, GF4)
        path = self._record_path(cache, "k", 4)
        path.write_bytes(path.read_bytes()[:-5])
        assert cache.load_vector("k", 4) is None

    def test_flipped_payload_byte(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("k", 4, GF4)
        path = self._record_path(cache, "k", 4)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.load_vector("k", 4) is None

    def test_flipped_offset_byte(self, tmp_path):
        """The checksum covers key, n and offset too, so an altered offset is caught."""
        cache = RecordCache(tmp_path)
        cache.store_vector("k", 4, GF4)
        path = self._record_path(cache, "k", 4)
        blob = path.read_bytes()
        assert blob.count(b", 0, [") == 1
        path.write_bytes(blob.replace(b", 0, [", b", 1, ["))
        assert cache.load_vector("k", 4) is None

    def test_bad_magic(self, tmp_path):
        """A record whose digest line is overwritten is rejected."""
        cache = RecordCache(tmp_path)
        cache.store_vector("k", 4, GF4)
        path = self._record_path(cache, "k", 4)
        _, _, body = path.read_bytes().partition(b"\n")
        path.write_bytes(b"0" * 64 + b"\n" + body)
        assert cache.load_vector("k", 4) is None

    def test_version_bump_invalidates(self, tmp_path):
        """A record of another version is rejected even under a valid digest."""
        cache = RecordCache(tmp_path)
        cache.store_vector("k", 4, GF4)
        _write_signed(self._record_path(cache, "k", 4), [VERSION + 1, "k", 4, 0, list(GF4.coeffs)])
        assert cache.load_vector("k", 4) is None

    def test_key_mismatch_rejected(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("aaa", 4, GF4)
        # copy the record onto another key's filename
        other = self._record_path(cache, "bbb", 4)
        other.write_bytes(self._record_path(cache, "aaa", 4).read_bytes())
        assert cache.load_vector("bbb", 4) is None

    def test_garbage_file(self, tmp_path):
        cache = RecordCache(tmp_path)
        self._record_path(cache, "k", 4).write_bytes(b"\x00" * 3)
        assert cache.load_vector("k", 4) is None

    def test_binary_record_of_version_2_recomputed(self, capsys, tmp_path):
        """A record in the version-2 binary layout loads as None, and a scan over it gives the cold report."""
        args = ["scan", "--min-n", "4", "--max-n", "4", "--stats", "st018", "--maps", "reverse"]
        assert main([*args, "--cache-dir", str(tmp_path / "cold")]) == 0
        cold = capsys.readouterr().out
        cache = RecordCache(tmp_path / "old")
        cache.directory.mkdir()
        key, n, offset, values = "gf_st018", 4, 0, (1, 3, 5, 6, 5, 3, 1)
        header = (b"PSRC" + struct.pack("<HH", 2, len(key)) + key.encode()
                  + struct.pack("<IqI", n, offset, len(values)))
        payload = struct.pack(f"<{len(values)}q", *values)
        cache._path(key, n).write_bytes(header + hashlib.sha256(header + payload).digest() + payload)
        assert cache.load_vector(key, n) is None
        assert main([*args, "--cache-dir", str(cache.directory)]) == 0
        assert capsys.readouterr().out == cold
        assert cache.load_vector(key, n) == IntPolynomial(values, offset)

    def test_valid_body_under_a_valid_digest(self, tmp_path):
        """The control of the forged bodies below: each differs from this one in one place."""
        cache = RecordCache(tmp_path)
        _write_signed(self._record_path(cache, "k", 4), [VERSION, "k", 4, 0, [23, 1]])
        assert cache.load_vector("k", 4) == IntPolynomial((23, 1))

    @pytest.mark.parametrize("body", [
        [VERSION, "k", 4, 0, [23, True]],
        [VERSION, "k", 4, 0, [23, 1.0]],
        [VERSION, "k", 4, 0, [23, "1"]],
        [VERSION, "k", 4, 0, [23, [1]]],
        [VERSION, "k", 4, 0],
        [VERSION, "other", 4, 0, [23, 1]],
        [VERSION, "k", 4, 0.5, [23, 1]],
        [VERSION, "k", 4, 0, 24],
        [VERSION, "k", 4, 0, [0, 24]],
        [VERSION, "k", 4, 0, [2, 5]],
        [VERSION, "k", 4, 0, [24, 0]],
        [VERSION, "k", 4, 0, [25, -1]],
    ], ids=["bool", "float", "string", "nested", "four-elements", "other-key", "float-offset", "scalar-values",
            "untrimmed-bottom", "wrong-sum", "untrimmed-top", "negative"])
    def test_forged_body_under_a_valid_digest(self, tmp_path, body):
        """Each body passes its digest and fails one check: the last four are no value on S_4."""
        cache = RecordCache(tmp_path)
        _write_signed(self._record_path(cache, "k", 4), body)
        assert cache.load_vector("k", 4) is None


def _write_signed(path, body):
    """Write ``body`` as a record with a valid digest, so only the body's own checks can reject it."""
    text = json.dumps(body).encode()
    path.write_bytes(hashlib.sha256(text).hexdigest().encode() + b"\n" + text)


def _race_gf(value):
    """A value on S_7 with 512 coefficients, 511 of them ``value``: a long record, so a torn write would show."""
    return IntPolynomial((5040 - 511 * value,) + (value,) * 511)


def _store_repeatedly(directory, value, barrier):
    cache = RecordCache(directory)
    barrier.wait(timeout=60)
    for _ in range(RACE_STORES):
        cache.store_vector("gf_shared", 7, _race_gf(value))


class TestConcurrentWriters:
    def test_two_processes_store_one_record(self, tmp_path):
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(2)
        writers = [
            ctx.Process(target=_store_repeatedly, args=(str(tmp_path), value, barrier))
            for value in (1, 2)
        ]
        for w in writers:
            w.start()
        for w in writers:
            w.join(timeout=120)
        assert not any(w.is_alive() for w in writers)
        assert [w.exitcode for w in writers] == [0, 0]
        record = RecordCache(tmp_path).load_vector("gf_shared", 7)
        assert record in (_race_gf(1), _race_gf(2))
        assert [p.name for p in tmp_path.iterdir()] == ["gf_shared_7.rec"]
