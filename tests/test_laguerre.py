"""Arc diagrams, reflection, and reconstruction against a brute-force inverse."""

from itertools import permutations

import pytest

from permsieve.bijections.laguerre import (
    ArcDiagram,
    invert_laguerre_heap,
    laguerre_decode,
    laguerre_encode,
    laguerre_reflect,
)
from permsieve.errors import UsageError
from permsieve.permutations import identity, parse_permutation


def diagram_key(d: ArcDiagram):
    return (d.n, tuple(sorted((arc, tuple(sorted(left))) for arc, left in d.left_sides.items())))


class TestEncode:
    def test_identity_has_no_arcs(self):
        assert laguerre_encode(identity(6)).left_sides == {}

    def test_single_descent(self):
        d = laguerre_encode((3, 1, 2))
        assert set(d.left_sides) == {(3, 1)}
        assert d.left_sides[(3, 1)] == frozenset()  # 2 sits right of the arc

    def test_side_data(self):
        d = laguerre_encode((2, 3, 1))
        assert d.left_sides[(3, 1)] == frozenset({2})  # 2 sits left of the arc

    def test_figure_arcs(self):
        d = laguerre_encode(parse_permutation("1,10,12,2,7,6,9,8,5,11,4,3"))
        assert set(d.left_sides) == {(12, 2), (7, 6), (9, 8), (8, 5), (11, 4), (4, 3)}
        assert d.left_sides[(12, 2)] == frozenset({10})
        assert d.left_sides[(11, 4)] == frozenset({5, 6, 7, 8, 9, 10})


class TestReflect:
    def test_flips_sides(self):
        d = laguerre_encode((2, 3, 1))
        r = laguerre_reflect(d)
        assert r.left_sides[(3, 1)] == frozenset()
        assert laguerre_reflect(r).left_sides == d.left_sides


class TestDecode:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_exhaustive(self, n):
        for p in permutations(range(1, n + 1)):
            assert laguerre_decode(laguerre_encode(p)) == p

    def test_brute_force_inverse_oracle(self):
        """Reflecting and decoding must agree with a lookup in the full encoding table."""
        for n in range(1, 6):
            table = {}
            for p in permutations(range(1, n + 1)):
                table[diagram_key(laguerre_encode(p))] = p
            for p in permutations(range(1, n + 1)):
                reflected = laguerre_reflect(laguerre_encode(p))
                assert invert_laguerre_heap(p) == table[diagram_key(reflected)]

    def test_inconsistent_sides_rejected(self):
        # 2 cannot be left of (4,1) while 3 is right of it if 2, 3 chain together;
        # here a flat contradiction: the same value on both sides of nested arcs
        with pytest.raises(UsageError):
            laguerre_decode(
                ArcDiagram(4, {(4, 1): frozenset({2}), (3, 2): frozenset()})
            )

    def test_bad_arc_data_rejected(self):
        with pytest.raises(UsageError):
            ArcDiagram(3, {(1, 3): frozenset()})
        with pytest.raises(UsageError):
            ArcDiagram(3, {(3, 1): frozenset({3})})


class TestInvertLaguerreHeap:
    def test_worked_example(self):
        assert invert_laguerre_heap(parse_permutation("1,10,12,2,7,6,9,8,5,11,4,3")) == \
            parse_permutation("1,11,4,3,9,8,5,7,6,12,2,10")

    def test_involution_s7(self):
        for p in permutations(range(1, 8)):
            assert invert_laguerre_heap(invert_laguerre_heap(p)) == p

    @pytest.mark.parametrize("n", range(1, 8))
    def test_kernel_matches_encoding_oracle(self, n):
        for p in permutations(range(1, n + 1)):
            assert invert_laguerre_heap(p) == laguerre_decode(laguerre_reflect(laguerre_encode(p)))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_fixed_point_count_and_shape(self, n):
        count = 0
        for p in permutations(range(1, n + 1)):
            if invert_laguerre_heap(p) == p:
                count += 1
                arcs = laguerre_encode(p).left_sides
                assert all(a - b == 1 for a, b in arcs)
        assert count == 2 ** (n - 1)

    def test_differs_from_corteel(self):
        from permsieve.bijections.motzkin import corteel

        assert any(
            invert_laguerre_heap(p) != corteel(p) for p in permutations(range(1, 5))
        )
