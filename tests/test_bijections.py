"""Registered maps: worked examples, bijectivity, involutions, orbit orders."""

from itertools import permutations
from math import factorial

import pytest

from permsieve.bijections import MAPS, MapDescriptor, get_map, map_keys
from permsieve.bijections.basic import (
    complement,
    conjugate_by_long_cycle,
    lehmer_code_rotation,
    reverse,
    rotation,
    toric_promotion,
)
from permsieve.bijections.involutions import (
    alexandersson_kebede,
    psi_32_1,
    psi_3star,
    psi_block,
)
from permsieve.errors import UsageError
from permsieve.permutations import identity, parse_permutation, swap_positions
from permsieve.statistics import get_statistic
from permsieve.statistics.extrema import r2l_min_positions


def S(n):
    return permutations(range(1, n + 1))


def r2l_min_values(p):
    return frozenset(p[i - 1] for i in r2l_min_positions(p))


class TestSymmetries:
    def test_reverse_complement(self):
        assert reverse((1, 2, 3, 4, 5)) == (5, 4, 3, 2, 1)
        assert complement((1, 2, 3, 4, 5)) == (5, 4, 3, 2, 1)

    def test_rotation(self):
        assert rotation((2, 4, 3, 1)) == (4, 3, 1, 2)

    def test_involutions_on_s6(self):
        for p in S(6):
            assert reverse(reverse(p)) == p
            assert complement(complement(p)) == p

    def test_conjugation(self):
        # c maps i to i+1 (mod n); conjugation relabels every cycle entry
        p = (2, 1, 3)
        assert conjugate_by_long_cycle(p) == (1, 3, 2)


class TestLehmerCodeRotation:
    def test_identity_maps_to_231(self):
        assert lehmer_code_rotation(identity(3)) == (2, 3, 1)

    def test_orbit_size_s3(self):
        p = identity(3)
        seen = set()
        for _ in range(6):
            seen.add(p)
            p = lehmer_code_rotation(p)
        assert p == identity(3) and len(seen) == 6

    def test_orbits_s4_all_size_12(self):
        from permsieve.orbits import decompose

        assert decompose("lehmer_code_rotation", 4) == {12: 2}


class TestToricPromotion:
    def test_orbit_sizes(self):
        from permsieve.orbits import decompose

        for n in range(4, 7):
            assert set(decompose("toric_promotion", n)) == {n - 1}
        assert decompose("toric_promotion", 4) == {3: 8}

    def test_guard_no_op(self):
        # on (1,) and (1, 2) every value pair sits adjacent, so every stage is skipped
        assert toric_promotion((1,)) == (1,)
        assert toric_promotion((1, 2)) == (1, 2)
        assert toric_promotion((2, 1)) == (2, 1)


class TestAlexanderssonKebede:
    def test_worked_example(self):
        assert alexandersson_kebede(parse_permutation("2134756")) == parse_permutation("2134576")

    def test_fixed_points_are_decisive(self):
        for n in (4, 5, 6):
            count = 0
            for p in S(n):
                if alexandersson_kebede(p) == p:
                    count += 1
                    assert all(
                        {p[i - 1], p[i]} == {i, i + 1} for i in range(1, n, 2)
                    )
            assert count == 2 ** (n // 2)

    def test_preserves_r2l_minima_on_s7(self):
        for p in S(7):
            assert r2l_min_values(alexandersson_kebede(p)) == r2l_min_values(p)

    def test_involution_s7(self):
        for p in S(7):
            assert alexandersson_kebede(alexandersson_kebede(p)) == p

    @pytest.mark.parametrize("n", range(1, 8))
    def test_kernel_matches_swap_search_oracle(self, n):
        """The suffix-minimum test picks the same swap as trying each odd pair in turn."""

        def oracle(p):
            minima = r2l_min_values(p)
            for i in range(1, len(p), 2):
                candidate = swap_positions(p, i, i + 1)
                if r2l_min_values(candidate) == minima:
                    return candidate
            return p

        for p in S(n):
            assert alexandersson_kebede(p) == oracle(p)


class TestPsi3Star:
    def test_worked_examples(self):
        assert psi_3star((2, 5, 1, 3, 4, 6)) == (2, 5, 1, 4, 3, 6)
        assert psi_3star((3, 5, 2, 4, 6, 1)) == (3, 5, 2, 1, 6, 4)

    def test_fixed_points_avoid_321_and_312(self):
        from permsieve.statistics.patterns import pattern_count

        for n in range(4, 7):
            count = 0
            for p in S(n):
                if psi_3star(p) == p:
                    count += 1
                    assert pattern_count(p, "321") == 0 and pattern_count(p, "312") == 0
            assert count == 2 ** (n - 1)

    def test_changes_371_by_one(self):
        st = get_statistic("st371")
        for p in S(6):
            q = psi_3star(p)
            if q != p:
                assert abs(st(p) - st(q)) == 1


class TestPsi321:
    def test_worked_examples(self):
        assert psi_32_1((1, 4, 3, 2)) == (1, 4, 2, 3)
        assert psi_32_1((1, 3, 4, 2)) == (1, 3, 4, 2)

    def test_fixed_count_and_statistic_step(self):
        st = get_statistic("st360")
        for n in range(2, 8):
            fixed = 0
            for p in S(n):
                q = psi_32_1(p)
                if q == p:
                    fixed += 1
                else:
                    assert abs(st(p) - st(q)) == 1
            assert fixed == 2 ** (n - 1)


class TestPsiBlock:
    def test_worked_examples(self):
        assert psi_block(parse_permutation("21534687")) == parse_permutation("21634587")
        assert psi_block(parse_permutation("215346879")) == parse_permutation("215346978")
        assert psi_block(parse_permutation("132456789")) == parse_permutation("132456789")

    def test_fixed_counts(self):
        for n in range(2, 8):
            assert sum(1 for p in S(n) if psi_block(p) == p) == 2 ** (n // 2)


class TestPositionSwaps:
    def test_lookup_aliases(self):
        assert get_map("last-two").key == "swap_last_two"
        assert get_map("prefix-reverse-3").key == "prefix_reverse_3"
        with pytest.raises(UsageError, match="unknown map 'nope'"):
            get_map("nope")

    def test_example(self):
        mp = get_map("last-two")
        assert mp(parse_permutation("21534687")) == parse_permutation("21534678")

    @pytest.mark.parametrize(
        "spec", ["last-two", "first-third", "prefix-reverse-3", "first-last",
                 "first-two", "second-third"]
    )
    def test_fixed_point_free_involutions_s6(self, spec):
        mp = get_map(spec)
        for p in S(6):
            q = mp(p)
            assert q != p
            assert mp(q) == p

    def test_parity_ledger_483(self):
        st = get_statistic("st483")
        mp = get_map("last-two")
        for p in S(6):
            assert (st(p) - st(mp(p))) % 2 == 1


class TestRegistry:
    def test_every_map_is_a_bijection_on_s5(self):
        full = set(S(5))
        for key in map_keys():
            mp = get_map(key)
            image = {mp(p) for p in full}
            assert image == full, key

    def test_declared_involutions_square_to_identity_s5(self):
        for key, desc in MAPS.items():
            if desc.sizes(5).keys() <= {1, 2}:
                for p in S(5):
                    assert desc(desc(p)) == p, key

    def test_declared_orbit_sizes_s5(self):
        from permsieve.orbits import decompose

        for key, desc in MAPS.items():
            if desc.min_n <= 5:
                assert decompose(key, 5) == desc.sizes(5), key

    def test_instance_families_match_declared_sizes(self):
        """Each catalog family's maps declare the orbit structure the family is named for."""
        from permsieve.scan import INSTANCE_FAMILIES, MAX_SCAN_N

        def declared(family, n):
            return {mp: MAPS[mp].sizes(n) for _, maps, _ in INSTANCE_FAMILIES[family] for mp in maps}

        for n in range(4, MAX_SCAN_N + 1):
            for family, fixed in (("involutions with 2^(n-1) fixed points", 2 ** (n - 1)),
                                  ("involutions with 2^(floor(n/2)) fixed points", 2 ** (n // 2))):
                assert all(sizes.keys() == {1, 2} and sizes[1] == fixed
                           for sizes in declared(family, n).values()), (family, n)
            assert all(sizes.keys() == {2} for sizes in
                       declared("involutions without fixed points", n).values()), n
            assert all(len(sizes) == 1 for sizes in
                       declared("maps with constant orbit size", n).values()), n

    def test_get_map_returns_a_descriptor_as_it_is(self):
        registered = get_map("reverse")
        unregistered = MapDescriptor("unregistered", "not in the registry", lambda p: p,
                                     sizes=lambda n: {1: factorial(n)})
        assert get_map(registered) is registered
        assert get_map(unregistered) is unregistered

    def test_n1_everything_is_identity(self):
        for key in map_keys():
            desc = get_map(key)
            if desc.min_n <= 1:
                assert desc((1,)) == (1,)
