"""Core permutation operations: parsing, algebra, codes, transforms."""

from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permsieve.errors import UsageError
from permsieve.permutations import (
    check_permutation,
    compose,
    cycle_form,
    format_permutation,
    from_cycles,
    fundamental_inverse,
    fundamental_transform,
    identity,
    inverse,
    lehmer_code,
    lehmer_decode,
    left_to_right_maxima_positions,
    parse_permutation,
    perm_rank,
    perm_unrank,
)

def random_perm(rng, n):
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return tuple(vals)


class TestParse:
    def test_digit_word(self):
        assert parse_permutation("2431") == (2, 4, 3, 1)

    def test_comma_separated_identity(self):
        assert parse_permutation("1,2,3,4,5,6,7,8,9,10") == identity(10)

    def test_duplicate_rejected(self):
        with pytest.raises(UsageError):
            parse_permutation("2231")

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            parse_permutation("   ")

    def test_out_of_range_rejected(self):
        with pytest.raises(UsageError):
            parse_permutation("1,2,9")

    def test_n_zero_rejected(self):
        with pytest.raises(UsageError):
            check_permutation(())

    def test_long_digit_word_rejected(self):
        with pytest.raises(UsageError):
            parse_permutation("1234567891")

    @pytest.mark.parametrize("n", [1, 5, 9, 10, 14])
    def test_format_round_trip(self, n):
        import random

        p = random_perm(random.Random(n), n)
        assert parse_permutation(format_permutation(p)) == p
        if n <= 9:
            assert "," not in format_permutation(p)
        else:
            assert "," in format_permutation(p)


class TestAlgebra:
    def test_inverse_example(self):
        assert inverse((2, 4, 3, 1)) == (4, 1, 3, 2)

    def test_inverse_identity(self):
        assert inverse(identity(6)) == identity(6)

    def test_inverse_involutive_exhaustive(self):
        for p in permutations(range(1, 6)):
            assert inverse(inverse(p)) == p

    def test_compose_pointwise(self):
        assert compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)

    def test_compose_identity_and_inverse(self):
        for p in permutations(range(1, 5)):
            assert compose(p, identity(4)) == p
            assert compose(p, inverse(p)) == identity(4)
            assert compose(inverse(p), p) == identity(4)

    def test_compose_size_mismatch(self):
        with pytest.raises(UsageError):
            compose((1, 2), (1, 2, 3))

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(2, 9))
    def test_compose_associative_sampled(self, a, b, c, n):
        import math

        p = perm_unrank(a % math.factorial(n), n)
        q = perm_unrank(b % math.factorial(n), n)
        r = perm_unrank(c % math.factorial(n), n)
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


class TestCycles:
    def test_identity(self):
        assert cycle_form(identity(3)) == ((1,), (2,), (3,))

    def test_examples(self):
        assert cycle_form((2, 4, 3, 1)) == ((1, 2, 4), (3,))
        assert cycle_form((3, 2, 4, 1, 6, 5)) == ((1, 3, 4), (2,), (5, 6))

    def test_partition_property(self):
        for p in permutations(range(1, 7)):
            cycles = cycle_form(p)
            flat = sorted(v for c in cycles for v in c)
            assert flat == list(range(1, 7))

    def test_from_cycles_round_trip(self):
        for p in permutations(range(1, 6)):
            assert from_cycles(cycle_form(p), 5) == p


class TestLehmer:
    def test_identity_code(self):
        assert lehmer_code(identity(5)) == (0, 0, 0, 0, 0)

    def test_example(self):
        assert lehmer_code((2, 3, 1)) == (1, 1, 0)

    def test_decode_example(self):
        assert lehmer_decode((1, 2, 1, 0)) == (2, 4, 3, 1)

    def test_code_out_of_range(self):
        with pytest.raises(UsageError):
            lehmer_decode((4, 0, 0, 0))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_round_trip_exhaustive(self, n):
        for p in permutations(range(1, n + 1)):
            assert lehmer_decode(lehmer_code(p)) == p

    @pytest.mark.parametrize("n", range(9))
    def test_bitmask_pass_matches_counting_oracle(self, n):
        """The one right-to-left pass gives each entry's count of smaller later entries."""

        def oracle(p):
            n = len(p)
            return tuple(
                sum(1 for j in range(i + 1, n) if p[j] < p[i]) for i in range(n)
            )

        for p in permutations(range(1, n + 1)):
            assert lehmer_code(p) == oracle(p)

    @given(st.integers(10, 30), st.randoms(use_true_random=False))
    def test_round_trip_large(self, n, rng):
        p = random_perm(rng, n)
        assert lehmer_decode(lehmer_code(p)) == p

    def test_rank_unrank(self):
        import math

        for n in range(1, 6):
            ranks = [perm_rank(p) for p in permutations(range(1, n + 1))]
            assert ranks == list(range(math.factorial(n)))
            for r in ranks:
                assert perm_rank(perm_unrank(r, n)) == r


class TestFundamentalTransform:
    def test_paper_example(self):
        # 241365 splits as (2)(413)(65) at its left-to-right maxima
        assert fundamental_transform((2, 4, 1, 3, 6, 5)) == (3, 2, 4, 1, 6, 5)

    def test_second_example(self):
        assert fundamental_transform((7, 2, 3, 5, 8, 1, 6, 4)) == (6, 3, 5, 8, 7, 4, 2, 1)

    def test_identity(self):
        assert fundamental_transform(identity(5)) == identity(5)
        assert fundamental_inverse(identity(5)) == identity(5)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_round_trip_exhaustive(self, n):
        for p in permutations(range(1, n + 1)):
            assert fundamental_inverse(fundamental_transform(p)) == p

    def test_cycle_count_matches_l2r_maxima(self):
        for p in permutations(range(1, 7)):
            image = fundamental_inverse(p)
            assert len(cycle_form(p)) == len(left_to_right_maxima_positions(image))
