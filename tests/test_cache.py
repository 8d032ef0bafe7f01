"""Binary record cache: round trips, corruption handling, invalidation."""

import multiprocessing
import struct

from permsieve.cache import MAGIC, RecordCache

RACE_STORES = 300


class TestRoundTrip:
    def test_store_and_load(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("gf_st018", 6, 0, (1, 2, -3, 4))
        assert cache.load_vector("gf_st018", 6) == (0, (1, 2, -3, 4))

    def test_negative_offset(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("gf_st1377", 4, -6, (1, 1, 2))
        assert cache.load_vector("gf_st1377", 4) == (-6, (1, 1, 2))

    def test_empty_vector(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("gf_zero", 3, 0, ())
        assert cache.load_vector("gf_zero", 3) == (0, ())

    def test_missing_returns_none(self, tmp_path):
        assert RecordCache(tmp_path).load_vector("gf_st018", 6) is None

    def test_overwrite(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("k", 2, 0, (1,))
        cache.store_vector("k", 2, 0, (2, 3))
        assert cache.load_vector("k", 2) == (0, (2, 3))

    def test_key_sanitization(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("gf:odd/key", 2, 0, (7,))
        assert cache.load_vector("gf:odd/key", 2) == (0, (7,))


class TestCorruption:
    def _record_path(self, cache, key, n):
        return cache._path(key, n)

    def test_truncated_record(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("k", 4, 0, (1, 2, 3))
        path = self._record_path(cache, "k", 4)
        path.write_bytes(path.read_bytes()[:-5])
        assert cache.load_vector("k", 4) is None

    def test_flipped_payload_byte(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("k", 4, 0, (1, 2, 3))
        path = self._record_path(cache, "k", 4)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert cache.load_vector("k", 4) is None

    def test_bad_magic(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("k", 4, 0, (1,))
        path = self._record_path(cache, "k", 4)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"JUNK"
        path.write_bytes(bytes(blob))
        assert cache.load_vector("k", 4) is None

    def test_version_bump_invalidates(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("k", 4, 0, (1,))
        path = self._record_path(cache, "k", 4)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 99)
        path.write_bytes(bytes(blob))
        assert cache.load_vector("k", 4) is None

    def test_key_mismatch_rejected(self, tmp_path):
        cache = RecordCache(tmp_path)
        cache.store_vector("aaa", 4, 0, (1,))
        # copy the record onto another key's filename
        other = self._record_path(cache, "bbb", 4)
        other.write_bytes(self._record_path(cache, "aaa", 4).read_bytes())
        assert cache.load_vector("bbb", 4) is None

    def test_garbage_file(self, tmp_path):
        cache = RecordCache(tmp_path)
        self._record_path(cache, "k", 4).write_bytes(b"\x00" * 3)
        assert cache.load_vector("k", 4) is None

    def test_magic_constant(self):
        assert MAGIC == b"PSRC"


def _store_repeatedly(directory, value, barrier):
    cache = RecordCache(directory)
    barrier.wait(timeout=60)
    for _ in range(RACE_STORES):
        cache.store_vector("gf_shared", 7, 0, (value,) * 512)


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
        assert record in ((0, (1,) * 512), (0, (2,) * 512))
        assert [p.name for p in tmp_path.iterdir()] == ["gf_shared_7.rec"]
