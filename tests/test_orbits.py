"""Orbit size multisets, fixed-point counting by power, signatures."""

from collections import Counter
from math import factorial, gcd, lcm

import pytest

from permsieve.bijections import MapDescriptor, get_map, map_keys
from permsieve.errors import PermsieveError
from permsieve.orbits import decompose, fixed_counts, orbit_signature, orbit_sizes
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
        sizes = decompose("reverse", 4)
        assert sizes == {2: 12}
        assert lcm(*sizes) == 2

    def test_corteel_s5_fixed_points(self):
        assert decompose("corteel", 5)[1] == 16

    def test_lehmer_s4(self):
        assert decompose("lehmer_code_rotation", 4) == {12: 2}

    def test_orbits_partition_sn(self):
        for key in map_keys():
            sizes = decompose(key, 5)
            assert sum(size * count for size, count in sizes.items()) == factorial(5), key

    def test_determinism(self):
        a = decompose("toric_promotion", 5)
        b = decompose("toric_promotion", 5)
        assert list(a.items()) == list(b.items())
        assert orbit_signature(a) == orbit_signature(b)

    def test_not_a_bijection_detected(self):
        def involution(n):
            return {1: 2 ** (n - 1), 2: (factorial(n) - 2 ** (n - 1)) // 2}

        collapse = MapDescriptor(
            "collapse", "sorts everything", lambda p: tuple(sorted(p)), sizes=involution
        )
        with pytest.raises(PermsieveError, match="merged two trajectories"):
            decompose(collapse, 3)
        shift_down = MapDescriptor(
            "shift_down", "leaves [n]", lambda p: tuple(v - 1 for v in p), sizes=involution
        )
        with pytest.raises(PermsieveError, match="not in S_3"):
            decompose(shift_down, 3)
        append = MapDescriptor("append", "grows the word", lambda p: p + (len(p) + 1,),
                               sizes=involution)
        with pytest.raises(PermsieveError, match="not in S_3"):
            decompose(append, 3)

    @pytest.mark.parametrize("key", map_keys())
    def test_matches_rank_based_reference(self, key):
        desc = get_map(key)
        for n in range(desc.min_n, 8):
            reference = Counter(map(len, rank_based_orbits(desc, n)))
            assert list(decompose(desc, n).items()) == list(reference.items()), n
            assert orbit_sizes(key, n) == reference, n

    def test_orbit_sizes_matches_decompose(self):
        assert orbit_sizes("reverse", 4) == decompose("reverse", 4)

    def test_orbit_sizes_hands_out_fresh_dicts(self):
        orbit_sizes("reverse", 4)[2] = 0
        assert orbit_sizes("reverse", 4) == {2: 12}

    @pytest.mark.parametrize("key", ["inverse", "conj_long_cycle", "corteel", "invert_laguerre_heap",
                                     "alexandersson_kebede", "psi_3star", "psi_32_1", "psi_block"])
    def test_declared_structure_matches_the_walk_at_n8(self, key):
        """The structures declared with more than one orbit size, one n past criterion 8's range."""
        assert orbit_sizes(key, 8) == decompose(key, 8)


class TestFixedCounts:
    def test_entry_zero_is_factorial(self):
        for key in ("reverse", "rotation", "corteel"):
            assert fixed_counts(decompose(key, 4))[0] == 24

    def test_fixed_point_free_involution(self):
        assert fixed_counts(decompose("reverse", 4)) == (24, 0)

    def test_alexandersson_kebede_s6(self):
        assert fixed_counts(decompose("alexandersson_kebede", 6)) == (720, 8)

    def test_gcd_property(self):
        for key in map_keys():
            for n in (4, 5, 6):
                sizes = orbit_sizes(key, n)
                counts = fixed_counts(sizes)
                c = lcm(*sizes)
                for d in range(c):
                    assert counts[d] == counts[gcd(d, c) % c]


class TestSignatures:
    def test_serialization(self):
        assert orbit_signature({2: 4, 1: 16}) == "1^16 2^4"

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
