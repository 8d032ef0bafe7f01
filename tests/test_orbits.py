"""Orbit decomposition, fixed-point counting by power, signatures."""

from math import factorial, gcd

import pytest

from permsieve.bijections import MapDescriptor, get_map, map_keys
from permsieve.errors import NotABijection
from permsieve.orbits import (
    decompose,
    decompose_cached,
    fixed_counts,
    fixed_counts_from_sizes,
    orbit_signature,
    signature_from_sizes,
)
from permsieve.permutations import perm_rank, perm_unrank


def rank_based_orbits(desc, n):
    """Reference decomposition: seeds unranked and images ranked one at a time."""
    visited = bytearray(factorial(n))
    orbits = []
    for seed in range(factorial(n)):
        if visited[seed]:
            continue
        orbit = [seed]
        visited[seed] = 1
        current = perm_unrank(seed, n)
        while True:
            current = desc(current)
            r = perm_rank(current)
            if r == seed:
                break
            assert not visited[r]
            visited[r] = 1
            orbit.append(r)
        orbits.append(tuple(orbit))
    return tuple(orbits)


class TestDecompose:
    def test_reverse_s4_12_two_orbits(self):
        dec = decompose("reverse", 4)
        assert dec.size_multiset() == {2: 12}
        assert dec.order == 2

    def test_corteel_s5_fixed_points(self):
        dec = decompose("corteel", 5)
        assert dec.fixed_point_count() == 16

    def test_lehmer_s4(self):
        dec = decompose("lehmer_code_rotation", 4)
        assert dec.size_multiset() == {12: 2}

    def test_orbits_partition_sn(self):
        for key in map_keys():
            dec = decompose(key, 5)
            ranks = sorted(r for o in dec.orbits for r in o)
            assert ranks == list(range(factorial(5))), key

    def test_lex_least_representative_first(self):
        dec = decompose("rotation", 4)
        assert all(o[0] == min(o) for o in dec.orbits)
        assert [o[0] for o in dec.orbits] == sorted(o[0] for o in dec.orbits)

    def test_determinism(self):
        a = decompose("toric_promotion", 5)
        b = decompose("toric_promotion", 5)
        assert a == b
        assert orbit_signature(a) == orbit_signature(b)

    def test_orbit_of_perms(self):
        dec = decompose("rotation", 3)
        orbit = dec.orbit_of_perms(0)
        assert orbit[0] == (1, 2, 3)
        assert len(orbit) == 3

    def test_not_a_bijection_detected(self):
        collapse = MapDescriptor(
            "collapse", "sorts everything", lambda p: tuple(sorted(p))
        )
        with pytest.raises(NotABijection):
            decompose(collapse, 3)
        shift_down = MapDescriptor(
            "shift_down", "leaves [n]", lambda p: tuple(v - 1 for v in p)
        )
        with pytest.raises(NotABijection):
            decompose(shift_down, 3)
        append = MapDescriptor("append", "grows the word", lambda p: p + (len(p) + 1,))
        with pytest.raises(NotABijection):
            decompose(append, 3)

    @pytest.mark.parametrize("key", map_keys())
    def test_matches_rank_based_reference(self, key):
        desc = get_map(key)
        for n in range(desc.min_n, 7):
            assert decompose(desc, n).orbits == rank_based_orbits(desc, n), n

    def test_cached_variant(self):
        assert decompose_cached("reverse", 4) == decompose("reverse", 4)


class TestFixedCounts:
    def test_entry_zero_is_factorial(self):
        for key in ("reverse", "rotation", "corteel"):
            dec = decompose(key, 4)
            assert fixed_counts(dec)[0] == 24

    def test_fixed_point_free_involution(self):
        assert fixed_counts(decompose("reverse", 4)) == (24, 0)

    def test_alexandersson_kebede_s6(self):
        assert fixed_counts(decompose("alexandersson_kebede", 6)) == (720, 8)

    def test_gcd_property(self):
        for key in map_keys():
            for n in (4, 5, 6):
                dec = decompose_cached(key, n)
                counts = fixed_counts(dec)
                c = dec.order
                for d in range(c):
                    assert counts[d] == counts[gcd(d, c) % c]


class TestSignatures:
    def test_serialization(self):
        assert signature_from_sizes({2: 4, 1: 16}) == "1^16 2^4"

    def test_reverse_equals_complement(self):
        assert orbit_signature(decompose("reverse", 5)) == orbit_signature(
            decompose("complement", 5)
        )

    def test_corteel_equals_laguerre(self):
        assert orbit_signature(decompose("corteel", 5)) == orbit_signature(
            decompose("invert_laguerre_heap", 5)
        )

    def test_rotation_differs_from_toric(self):
        assert orbit_signature(decompose("rotation", 4)) != orbit_signature(
            decompose("toric_promotion", 4)
        )

    def test_fixed_counts_from_sizes_matches(self):
        dec = decompose("corteel", 4)
        assert fixed_counts_from_sizes(dec.size_multiset()) == fixed_counts(dec)
