"""Colored Motzkin encoding, complement, decoding, and the crossing/nesting swap."""

from itertools import permutations

import pytest

from permsieve.bijections.motzkin import (
    ColoredMotzkinPath,
    corteel,
    fz_decode,
    fz_encode,
    motzkin_complement,
)
from permsieve.errors import UsageError
from permsieve.permutations import identity, parse_permutation
from permsieve.statistics.cycles import crossings, nestings

FIG_SIGMA = parse_permutation("1,7,6,3,8,10,9,12,2,11,4,5")
FIG_IMAGE = parse_permutation("1,10,12,2,7,6,9,8,5,11,4,3")


class TestEncode:
    def test_figure_word_and_weights(self):
        path = fz_encode(FIG_SIGMA)
        assert path.word == tuple("buurubbbdbdd")
        assert path.weights == (0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0)

    def test_figure_heights(self):
        assert fz_encode(FIG_SIGMA).heights == (0, 0, 1, 2, 2, 3, 3, 3, 2, 2, 1, 0)

    def test_identity_all_level(self):
        path = fz_encode(identity(5))
        assert path.word == ("b",) * 5
        assert path.weights == (0,) * 5

    def test_nesting_number_sum(self):
        for p in permutations(range(1, 7)):
            assert sum(fz_encode(p).weights) == nestings(p)


class TestComplement:
    def test_figure_complement(self):
        comp = motzkin_complement(fz_encode(FIG_SIGMA))
        assert comp.weights == (0, 0, 0, 0, 2, 3, 2, 3, 2, 1, 1, 0)

    def test_involution_on_s6(self):
        for p in permutations(range(1, 7)):
            path = fz_encode(p)
            assert motzkin_complement(motzkin_complement(path)) == path

    def test_zero_height_path_self_complementary(self):
        path = ColoredMotzkinPath(tuple("urd"), (0, 0, 0))
        assert motzkin_complement(path) == path

    def test_weight_bound_enforced(self):
        with pytest.raises(UsageError):
            ColoredMotzkinPath(tuple("ud"), (2, 0))
        with pytest.raises(UsageError):
            ColoredMotzkinPath(tuple("urd"), (0, 1, 0))  # r at height 1 allows only 0

    def test_path_shape_enforced(self):
        with pytest.raises(UsageError):
            ColoredMotzkinPath(tuple("du"), (0, 0))
        with pytest.raises(UsageError):
            ColoredMotzkinPath(tuple("uu"), (0, 0))


class TestDecode:
    def test_figure_decode(self):
        comp = motzkin_complement(fz_encode(FIG_SIGMA))
        assert fz_decode(comp) == FIG_IMAGE

    def test_all_level_decodes_to_identity(self):
        path = ColoredMotzkinPath(("b",) * 4, (0,) * 4)
        assert fz_decode(path) == identity(4)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_round_trip_exhaustive(self, n):
        for p in permutations(range(1, n + 1)):
            assert fz_decode(fz_encode(p)) == p

    @pytest.mark.parametrize("n", range(1, 6))
    def test_decode_total_on_valid_paths(self, n):
        """Every weight-valid path is the encoding of exactly one permutation."""
        from itertools import product
        from math import factorial

        def words(length):
            def extend(word, h):
                if len(word) == length:
                    if h == 0:
                        yield tuple(word)
                    return
                for step in "udrb":
                    nh = h + (step == "u") - (step == "d")
                    if nh < 0 or (step == "r" and h == 0):
                        continue
                    if nh > length - len(word) - 1:
                        continue
                    word.append(step)
                    yield from extend(word, nh)
                    word.pop()

            yield from extend([], 0)

        total = 0
        for word in words(n):
            heights = ColoredMotzkinPath(word, (0,) * n).heights
            bounds = [h - 1 if w == "r" else h for w, h in zip(word, heights)]
            for weights in product(*[range(b + 1) for b in bounds]):
                path = ColoredMotzkinPath(word, weights)
                assert fz_encode(fz_decode(path)) == path
                total += 1
        assert total == factorial(n)


class TestCorteel:
    def test_worked_example(self):
        assert corteel(FIG_SIGMA) == FIG_IMAGE

    def test_involution_s6(self):
        for p in permutations(range(1, 7)):
            assert corteel(corteel(p)) == p

    @pytest.mark.parametrize("n", range(1, 8))
    def test_kernel_matches_encoding_oracle(self, n):
        for p in permutations(range(1, n + 1)):
            assert corteel(p) == fz_decode(motzkin_complement(fz_encode(p)))

    def test_swaps_crossings_and_nestings(self):
        for p in permutations(range(1, 7)):
            q = corteel(p)
            assert crossings(q) == nestings(p)
            assert nestings(q) == crossings(p)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_fixed_point_count(self, n):
        count = sum(1 for p in permutations(range(1, n + 1)) if corteel(p) == p)
        assert count == 2 ** (n - 1)

    def test_fixed_points_have_flat_encodings(self):
        # fixed encodings are squares, stairs, and fixed points: all weights 0,
        # heights never above 1, and positive height only on r steps
        for p in permutations(range(1, 7)):
            if corteel(p) == p:
                path = fz_encode(p)
                assert set(path.weights) <= {0}
                assert max(path.heights) <= 1
                for w, h in zip(path.word, path.heights):
                    if h == 1:
                        assert w == "r"
