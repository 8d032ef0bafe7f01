"""Exact polynomial arithmetic, including Laurent offsets and folding."""

import pytest

from permsieve.errors import UsageError
from permsieve.polynomials import IntPolynomial


def poly(terms):
    return IntPolynomial.from_terms(terms)


class TestConstruction:
    def test_trimming(self):
        assert poly({0: 0, 1: 2, 5: 0}) == IntPolynomial((2,), 1)

    def test_zero(self):
        assert poly({}) == IntPolynomial.zero()
        assert IntPolynomial.zero().is_zero()

    def test_untrimmed_rejected(self):
        with pytest.raises(ValueError):
            IntPolynomial((0, 1), 0)

    def test_monomial(self):
        assert IntPolynomial.monomial(-3, 5) == poly({-3: 5})

    def test_q_int(self):
        assert IntPolynomial.q_int(4) == poly({0: 1, 1: 1, 2: 1, 3: 1})

    def test_q_factorial(self):
        assert IntPolynomial.q_factorial(3) == poly({0: 1, 1: 2, 2: 2, 3: 1})


class TestArithmetic:
    def test_add_cancel(self):
        assert poly({2: 3}) + poly({2: -3}) == IntPolynomial.zero()

    def test_mul_laurent(self):
        f = poly({-2: 1, 0: 1})
        g = poly({1: 2})
        assert f * g == poly({-1: 2, 1: 2})

    def test_scalar_mul(self):
        assert 3 * poly({0: 1, 2: 2}) == poly({0: 3, 2: 6})

    def test_shift(self):
        assert poly({0: 1, 1: 1}).shift(-1) == poly({-1: 1, 0: 1})

    def test_ring_axioms_small(self):
        a, b, c = poly({0: 1, 1: 2}), poly({-1: 3}), poly({0: -1, 2: 5})
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == IntPolynomial.zero()


class TestEvaluate:
    def test_at_one_and_minus_one(self):
        f = poly({0: 1, 1: 4, 2: 1})
        assert f.evaluate(1) == 6
        assert f.evaluate(-1) == -2

    def test_negative_offset_at_minus_one(self):
        f = poly({-3: 2, 1: 5})
        assert f.evaluate(-1) == -2 + -5

    def test_negative_offset_is_an_exact_int_at_plus_minus_one(self):
        f = IntPolynomial((2**60 + 1,), -1)
        assert f.evaluate(-1) == -(2**60 + 1)
        assert type(f.evaluate(-1)) is int
        assert type(poly({-3: 2, 1: 5}).evaluate(1)) is int

    @pytest.mark.parametrize("x", [0, 2, -3])
    def test_negative_offset_elsewhere_refused(self, x):
        with pytest.raises(UsageError, match="no integer value"):
            poly({-1: 1}).evaluate(x)

    def test_complex(self):
        f = poly({0: 1, 2: 1})
        assert abs(f.evaluate(1j)) < 1e-12
        assert poly({-1: 1}).evaluate(2j) == -0.5j
        assert type(IntPolynomial.zero().evaluate(1j)) is complex


class TestFold:
    def test_example(self):
        assert poly({3: 1, 1: 1}).fold(2) == poly({1: 2})

    def test_constant_fold(self):
        f = poly({0: 1, 1: 4, 2: 1})
        assert f.fold(1) == poly({0: 6})

    def test_negative_exponents(self):
        assert poly({-1: 1}).fold(3) == poly({2: 1})

    def test_mahonian_fold(self):
        assert IntPolynomial.q_factorial(4).fold(4) == poly({0: 6, 1: 6, 2: 6, 3: 6})

    def test_fold_respects_roots_of_unity(self):
        import cmath

        f = poly({-2: 3, 0: 1, 5: 2, 7: -1})
        for c in (2, 3, 4, 6):
            g = f.fold(c)
            for d in range(c):
                z = cmath.exp(2j * cmath.pi * d / c)
                assert abs(f.evaluate(z) - g.evaluate(z)) < 1e-9


class TestAccessors:
    def test_coefficient_and_dense(self):
        f = poly({1: 4, 3: -2})
        assert f.coefficient(1) == 4
        assert f.coefficient(2) == 0
        assert f.dense(0, 4) == (0, 4, 0, -2, 0)

    def test_degree_bounds(self):
        f = poly({-2: 1, 5: 7})
        assert f.min_exponent == -2
        assert IntPolynomial.zero().min_exponent == 0

    def test_str(self):
        assert str(poly({0: 1, 1: 4, 2: 1})) == "1 + 4*q + q^2"
        assert str(IntPolynomial.zero()) == "0"
