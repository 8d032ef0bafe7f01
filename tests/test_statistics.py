"""Statistic evaluators against independent oracles and the stated identities."""

from collections import deque
from itertools import combinations, permutations
from math import factorial

import pytest

from permsieve.errors import IndexOutOfRange, ParityViolation, WidthOutOfRange
from permsieve.permutations import identity, inverse, perm_rank
from permsieve.polynomials import IntPolynomial
from permsieve.sieving import equidistribution, generating_function, q_minus_one
from permsieve.statistics import get_statistic, mahonian_gf
from permsieve.statistics.basic import (
    bialternating,
    bialternating_inversion_raw,
    width_k_descents,
)
from permsieve.statistics.distances import _distance_table, depth, reduced_reflection_length
from permsieve.statistics.entries import inversions_of_ith_entry, ith_entry


def S(n):
    return permutations(range(1, n + 1))


class TestClassicalStatistics:
    def test_identity_all_zero(self):
        for key in ("st018", "st004", "st833", "st021"):
            assert get_statistic(key)(identity(6)) == 0

    def test_53142(self):
        p = (5, 3, 1, 4, 2)
        assert get_statistic("st018")(p) == 7
        assert get_statistic("st021")(p) == 3
        assert get_statistic("st004")(p) == 7
        # comaj = sum of n - i over descents {1, 2, 4}
        assert get_statistic("st833")(p) == 4 + 3 + 1

    def test_descent_gf_s3(self):
        assert generating_function("st021", 3) == IntPolynomial((1, 4, 1), 0)

    def test_inv_gf_is_mahonian(self):
        for n in range(1, 7):
            assert generating_function("st018", n) == mahonian_gf(n)


class TestCrossingsNestings:
    def test_identity_zero(self):
        assert get_statistic("st039")(identity(6)) == 0
        assert get_statistic("st223")(identity(6)) == 0

    def test_crossing_231(self):
        assert get_statistic("st039")((2, 3, 1)) == 1

    def test_nesting_figure_example(self):
        sigma = (1, 7, 6, 3, 8, 10, 9, 12, 2, 11, 4, 5)
        assert get_statistic("st223")(sigma) == sum((0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0))

    def test_crossing_bound(self):
        for p in S(5):
            assert 0 <= get_statistic("st039")(p) <= 10


class TestCycleStats:
    def test_cdes_identity(self):
        assert get_statistic("st317")(identity(6)) == 0

    def test_cdes_five_cycle(self):
        # the cycle (1 4 2 5 3) in one-line notation
        assert get_statistic("st317")((4, 5, 1, 2, 3)) == 2

    def test_cdes_alternating_sum(self):
        for n in range(2, 9):
            assert q_minus_one("st317", n) == 2 ** (n - 1)

    def test_arrow12_example(self):
        assert get_statistic("st1744")((7, 2, 3, 5, 8, 1, 6, 4)) == 3

    def test_arrow12_identity(self):
        for n in range(2, 7):
            assert get_statistic("st1744")(identity(n)) == 0

    def test_arrow12_equidistributed_with_cdes(self):
        for n in range(1, 8):
            assert equidistribution("st1744", "st317", n)


class TestMidpoints:
    def brute_dec_midpoints(self, p):
        n = len(p)
        return len(
            {
                j
                for i, j, k in combinations(range(1, n + 1), 3)
                if p[i - 1] > p[j - 1] > p[k - 1]
            }
        )

    def test_worked_examples(self):
        st371 = get_statistic("st371")
        assert st371((2, 5, 1, 3, 4, 6)) == 0
        assert st371((2, 5, 1, 4, 3, 6)) == 1
        assert st371((3, 5, 2, 4, 6, 1)) == 2
        assert st371((3, 5, 2, 1, 6, 4)) == 1

    def test_identity_zero(self):
        for key in ("st371", "st1683", "st1687", "st373"):
            assert get_statistic(key)(identity(6)) == 0

    def test_371_against_oracle(self):
        st371 = get_statistic("st371")
        for p in S(6):
            assert st371(p) == self.brute_dec_midpoints(p)

    def test_1683_1687_against_oracle(self):
        st1683, st1687 = get_statistic("st1683"), get_statistic("st1687")
        for p in S(6):
            pos3 = {
                j
                for i, j, k in combinations(range(1, 7), 3)
                if p[i - 1] < p[k - 1] < p[j - 1]
            }
            pos2 = {
                i
                for i, j, k in combinations(range(1, 7), 3)
                if p[j - 1] < p[i - 1] < p[k - 1]
            }
            assert st1683(p) == len(pos3)
            assert st1687(p) == len(pos2)

    def test_373_against_oracle(self):
        st373 = get_statistic("st373")
        for p in S(6):
            mids = {
                j
                for i, j, k in combinations(range(1, 7), 3)
                if p[i - 1] > p[j - 1] > p[k - 1]
            }
            assert st373(p) == sum(1 for j in mids if p[j - 1] >= j)

    def test_family_equidistributed(self):
        for n in range(1, 8):
            for other in ("st372", "st1683", "st1687"):
                assert equidistribution("st371", other, n)


class TestExtrema:
    def test_2134756(self):
        p = (2, 1, 3, 4, 7, 5, 6)
        assert get_statistic("st314")(p) == 4
        assert get_statistic("st991")(p) == 5
        assert get_statistic("extrema_sum")(p) == 9

    def test_53142_union_and_complement(self):
        p = (5, 3, 1, 4, 2)
        assert get_statistic("st1004")(p) == 3
        assert get_statistic("st371")(p) == 2
        # indices counted by neither statistic do not exist
        assert get_statistic("st1004")(p) + get_statistic("st371")(p) == 5

    def test_1004_complements_371_on_gf(self):
        for n in range(2, 8):
            f, g = generating_function("st1004", n), generating_function("st371", n)
            assert all(
                f.coefficient(m) == g.coefficient(n - m) for m in range(0, n + 1)
            )

    def test_identity_values(self):
        n = 6
        p = identity(n)
        assert get_statistic("st031")(p) == n
        assert get_statistic("st216")(p) == 0
        assert get_statistic("st314")(p) == n
        assert get_statistic("st316")(p) == n - get_statistic("st314")(p)

    def test_541_is_l2r_minima_minus_one(self):
        for p in S(6):
            assert get_statistic("st541")(p) == get_statistic("st542")(p) - 1

    def test_541_gf_shift(self):
        for n in range(2, 8):
            f = generating_function("st541", n)
            g = generating_function("st542", n)
            assert f.shift(1) == g

    def test_absolute_length_and_non_l2r_gfs_reverse_cycles(self):
        for n in range(2, 8):
            cyc = generating_function("st031", n)
            reversed_cyc = IntPolynomial.from_terms(
                {n - e: c for e, c in cyc.terms().items()}
            )
            assert generating_function("st216", n) == reversed_cyc
            assert generating_function("st316", n) == reversed_cyc

    def test_extrema_class_equidistribution(self):
        for n in range(1, 8):
            for other in ("st007", "st314", "st542", "st991"):
                assert equidistribution("st031", other, n)


class TestInversionVariants:
    def test_invisible_example(self):
        p = (2, 1, 5, 3, 4, 6, 8, 7)
        assert get_statistic("st1727")(p) == 1

    def test_visible_example(self):
        st = get_statistic("st1726")
        p = (2, 4, 3, 1)
        # (1, 4) is visible, (2, 3) is an inversion but not visible
        assert st(p) == sum(
            1
            for i in range(1, 5)
            for j in range(i + 1, 5)
            if p[j - 1] <= min(i, p[i - 1])
        )
        assert p[3] <= min(1, p[0])
        assert not p[2] <= min(2, p[1])

    def test_identity_zero(self):
        for key in ("st495", "st494", "st538", "st539", "st1726", "st1727"):
            assert get_statistic(key)(identity(7)) == 0

    def test_even_odd_split(self):
        for p in S(6):
            assert get_statistic("st538")(p) + get_statistic("st539")(p) == get_statistic("st018")(p)

    def test_distance_bounded_against_oracle(self):
        for p in S(6):
            for key, k in (("st495", 2), ("st494", 3)):
                expected = sum(
                    1
                    for i in range(6)
                    for j in range(i + 1, min(i + k + 1, 6))
                    if p[j] < p[i]
                )
                assert get_statistic(key)(p) == expected


class TestDescentVariants:
    def test_up_down_runs_example(self):
        assert get_statistic("st638")((5, 3, 1, 4, 2)) == 4

    def test_switches_example(self):
        assert get_statistic("st483")((5, 3, 1, 4, 2)) == 2

    def test_483_gf_n3(self):
        assert generating_function("st483", 3) == IntPolynomial((2, 4), 0)

    def test_width_k_against_oracle(self):
        for p in S(6):
            for k in (1, 2, 3):
                expected = sum(1 for i in range(6 - k) if p[i] > p[i + k])
                assert width_k_descents(p, k) == expected

    def test_width_out_of_range(self):
        with pytest.raises(WidthOutOfRange):
            width_k_descents((2, 1, 3), 3)

    def test_odd_even_descents_split(self):
        for p in S(6):
            assert (
                get_statistic("st1114")(p) + get_statistic("st1115")(p)
                == get_statistic("st021")(p)
            )


class TestBialternating:
    def brute(self, p):
        n = len(p)
        j = sum(
            (-1) ** (x + y) * (1 if p[x - 1] > p[y - 1] else -1)
            for y in range(1, n + 1)
            for x in range(y + 1, n + 1)
        )
        return (j + (n // 2) ** 2) // 2

    def test_identity_n2(self):
        assert bialternating_inversion_raw((1, 2)) == -1
        assert bialternating((1, 2)) == 0

    def test_against_oracle_n4(self):
        st = get_statistic("st677")
        for p in S(4):
            assert st(p) == self.brute(p)

    def test_gf_alternating_sum_vanishes(self):
        assert q_minus_one("st677", 4) == 0

    def test_parity_guard(self, monkeypatch):
        # a raw value of the wrong parity is impossible for honest input,
        # so feed the guard directly: 2 + floor(2/2)^2 = 3 is odd
        from permsieve.statistics import basic

        monkeypatch.setattr(basic, "bialternating_inversion_raw", lambda p: 2)
        with pytest.raises(ParityViolation):
            bialternating((1, 2))


class TestSortingDistances:
    def test_1579_example(self):
        assert get_statistic("st1579")((2, 4, 3, 1)) == 4

    def test_1076_1077_examples(self):
        assert get_statistic("st1076")((2, 4, 3, 1)) == 2
        assert get_statistic("st1077")((2, 4, 3, 1)) == 2

    def test_identity_zero(self):
        for key in ("st809", "st1579", "st1076", "st1077"):
            assert get_statistic(key)(identity(5)) == 0

    def test_809_against_reflection_bfs(self):
        """Oracle: shortest reflection factorization with additive Coxeter length."""

        def inv_count(p):
            return sum(
                1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[j] < p[i]
            )

        for n in range(2, 6):
            transpositions = []
            for a in range(1, n + 1):
                for b in range(a + 1, n + 1):
                    t = list(range(1, n + 1))
                    t[a - 1], t[b - 1] = t[b - 1], t[a - 1]
                    transpositions.append(tuple(t))
            dist = {identity(n): 0}
            queue = deque([identity(n)])
            while queue:
                cur = queue.popleft()
                for t in transpositions:
                    nxt = tuple(cur[t[i] - 1] for i in range(n))
                    if nxt not in dist and inv_count(nxt) == inv_count(cur) + inv_count(t):
                        dist[nxt] = dist[cur] + 1
                        queue.append(nxt)
            for p in S(n):
                assert reduced_reflection_length(p) == dist[p]

    def test_distance_table_against_rank_indexed_bfs(self):
        """Oracle: the same BFS over a table indexed by perm_rank."""

        def reference(n, generators):
            table = [-1] * factorial(n)
            table[perm_rank(identity(n))] = 0
            queue = deque([identity(n)])
            while queue:
                cur = queue.popleft()
                for a, b in generators:
                    nxt = list(cur)
                    nxt[a], nxt[b] = nxt[b], nxt[a]
                    nxt = tuple(nxt)
                    if table[perm_rank(nxt)] < 0:
                        table[perm_rank(nxt)] = table[perm_rank(cur)] + 1
                        queue.append(nxt)
            return tuple(table)

        for n in range(2, 7):
            cyclic = tuple((a, a + 1) for a in range(n - 1)) + (((0, n - 1),) if n > 2 else ())
            prefix = tuple((0, a) for a in range(1, n))
            for gens in (cyclic, prefix):
                assert _distance_table(n, gens) == reference(n, gens)

    def test_depth(self):
        assert depth((2, 4, 3, 1)) == 1 + 2 + 0 + 0


class TestEntriesAndRank:
    def test_rank_identity(self):
        assert get_statistic("st020")(identity(6)) == 1

    def test_rank_example(self):
        assert get_statistic("st020")((2, 4, 3, 1)) == 12

    def test_rank_is_lex_position(self):
        for n in (3, 4):
            ordered = sorted(S(n))
            for idx, p in enumerate(ordered, start=1):
                assert get_statistic("st020")(p) == idx

    def test_inversions_of_entry(self):
        assert inversions_of_ith_entry((5, 3, 1, 4, 2), 2) == 2

    def test_entry_errors(self):
        with pytest.raises(IndexOutOfRange):
            ith_entry((1, 2, 3), 4)
        with pytest.raises(IndexOutOfRange):
            inversions_of_ith_entry((1, 2, 3), 0)

    def test_middle_entries(self):
        assert get_statistic("st1806")((4, 1, 3, 2)) == 3
        assert get_statistic("st1807")((4, 1, 3, 2)) == 1
        assert get_statistic("st1806")((2, 3, 1)) == get_statistic("st1807")((2, 3, 1)) == 3


class TestLongCycleStats:
    def test_identity_zero(self):
        for key in ("st825", "st1379", "st1377", "maj_minus_imaj", "st462",
                    "st463", "st866", "st961"):
            assert get_statistic(key)(identity(5)) == 0

    def test_tiny_example(self):
        assert get_statistic("st825")((2, 1)) == 2

    def test_combinations_consistent(self):
        maj, inv_stat = get_statistic("st004"), get_statistic("st018")
        for p in S(5):
            imaj = maj(inverse(p))
            assert get_statistic("st825")(p) == maj(p) + imaj
            assert get_statistic("st1379")(p) == maj(p) + inv_stat(p)
            assert get_statistic("st1377")(p) == maj(p) - inv_stat(p)
            assert get_statistic("maj_minus_imaj")(p) == maj(p) - imaj

    def test_shifted_major_against_oracle(self):
        st = get_statistic("st961")
        for p in S(5):
            assert st(p) == sum(i for i in range(1, 5) if p[i - 1] > p[i] + 1)

    def test_equidistribution_chain(self):
        for n in range(1, 8):
            for other in ("st463", "st866", "st961"):
                assert equidistribution("st462", other, n)

    def test_signed_gf_normalization(self):
        import math

        for key in ("st1377", "maj_minus_imaj", "st462", "st1911"):
            for n in (3, 4, 5):
                f = generating_function(key, n)
                assert f.evaluate(1) == math.factorial(n)

    def test_negative_values_exist(self):
        assert any(get_statistic("st1377")(p) < 0 for p in S(4))


class TestRegistryInvariants:
    def test_signed_flags(self):
        from permsieve.statistics import REGISTRY

        signed = {key for key, d in REGISTRY.items() if d.signed}
        assert signed == {"st1377", "maj_minus_imaj", "st462", "st1911"}

    def test_unsigned_statistics_are_nonnegative(self):
        from permsieve.statistics import REGISTRY

        for key, desc in REGISTRY.items():
            if desc.signed or desc.evaluator is None or desc.min_n > 5:
                continue
            assert all(desc(p) >= 0 for p in S(5)), key

    def test_all_evaluators_total_on_small_n(self):
        from permsieve.statistics import REGISTRY

        for key, desc in REGISTRY.items():
            if desc.evaluator is None:
                continue
            for n in range(desc.min_n, 5):
                for p in S(n):
                    assert isinstance(desc(p), int), key


class TestPatternClassEquidistribution:
    def test_crossing_class(self):
        for n in range(1, 8):
            for other in ("st223", "st356", "st358"):
                assert equidistribution("st039", other, n)

    def test_pattern_pair_class(self):
        for n in range(1, 8):
            for other in ("st423", "st428", "st437"):
                assert equidistribution("st436", other, n)

    def test_mahonian_class(self):
        for n in range(1, 8):
            assert generating_function("st004", n) == mahonian_gf(n)
            assert generating_function("st833", n) == mahonian_gf(n)
