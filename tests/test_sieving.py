"""Generating functions, folding, orbit polynomials, and sieving verdicts."""

import cmath
from itertools import permutations
from math import factorial

import pytest

from permsieve.bijections import get_map
from permsieve.errors import NotAnInvolution
from permsieve.orbits import decompose
from permsieve.permutations import fundamental_transform, inverse
from permsieve.polynomials import IntPolynomial
from permsieve.sieving import (
    csp_check,
    equidistribution,
    fold_mod_cyclic,
    generating_function,
    orbit_polynomial,
    parity_pairing_check,
    q_minus_one,
    transport_check,
)
from permsieve.statistics import get_statistic, mahonian_gf


def poly(terms):
    return IntPolynomial.from_terms(terms)


class TestGeneratingFunction:
    def test_descents_s3(self):
        assert generating_function("st021", 3) == poly({0: 1, 1: 4, 2: 1})

    def test_inversions_s3_mahonian(self):
        assert generating_function("st018", 3) == mahonian_gf(3)

    def test_value_at_one_is_factorial(self):
        for key in ("st021", "st039", "st317", "st1377", "st864"):
            for n in (3, 4, 5):
                assert generating_function(key, n).evaluate(1) == factorial(n)

    def test_gf_only_statistic(self):
        with pytest.raises(ValueError):
            get_statistic("st864")((1, 2, 3))


class TestFold:
    def test_example(self):
        assert fold_mod_cyclic(poly({3: 1, 1: 1}), 2) == poly({1: 2})

    def test_constant(self):
        f = generating_function("st021", 4)
        assert fold_mod_cyclic(f, 1) == poly({0: 24})

    def test_mahonian_fold_uniform(self):
        assert fold_mod_cyclic(mahonian_gf(4), 4) == poly({0: 6, 1: 6, 2: 6, 3: 6})


class TestOrbitPolynomial:
    def test_single_orbit(self):
        dec = decompose("rotation", 3)
        # S_3 under rotation: two orbits of size 3; value at 1 equals 3!
        f = orbit_polynomial(dec)
        assert f == poly({0: 2, 1: 2, 2: 2})

    def test_fixed_point_free_involution(self):
        assert orbit_polynomial(decompose("reverse", 4)) == poly({0: 12, 1: 12})

    def test_corteel_s4(self):
        assert orbit_polynomial(decompose("corteel", 4)) == poly({0: 16, 1: 8})

    def test_evaluates_to_fixed_counts(self):
        from permsieve.orbits import fixed_counts

        for key in ("rotation", "toric_promotion", "conj_long_cycle", "corteel"):
            dec = decompose(key, 5)
            f = orbit_polynomial(dec)
            counts = fixed_counts(dec)
            c = dec.order
            for d in range(c):
                z = cmath.exp(2j * cmath.pi * d / c)
                assert abs(f.evaluate(z) - counts[d]) < 1e-9


class TestCspCheck:
    def test_crossings_corteel(self):
        v = csp_check("st039", "corteel", 5)
        assert v.holds
        assert v.fixed == (120, 16)
        assert q_minus_one("st039", 5) == 16

    def test_inv_rotation(self):
        v = csp_check("st018", "rotation", 4)
        assert v.holds
        assert v.fixed == (24, 0, 0, 0)

    def test_odd_inversions_fail(self):
        v = csp_check("st539", "reverse", 4)
        assert not v.holds
        assert v.witnesses == (1,)

    def test_holding_verdict_has_no_witnesses_at_order_840(self):
        # The float diagnostics miss the fixed-point counts by ~3e-9 here.
        v = csp_check("st020", "lehmer_code_rotation", 8)
        assert v.holds and v.order == 840
        assert v.witnesses == ()

    @pytest.mark.parametrize("stat", ["st004", "st021", "st836"])
    def test_exact_witnesses_agree_with_float_evaluation(self, stat):
        v = csp_check(stat, "lehmer_code_rotation", 5)
        assert not v.holds
        separating = tuple(
            d for d, z in enumerate(v.float_evals) if abs(z - v.fixed[d]) > 1e-6
        )
        assert v.witnesses == separating

    def test_float_diagnostics_match_on_holds(self):
        v = csp_check("st317", "corteel", 5)
        assert v.holds and v.witnesses == ()
        for d, z in enumerate(v.float_evals):
            assert abs(z - v.fixed[d]) < 1e-9

    def test_signed_statistic_shift_reporting(self):
        for n in (4, 5, 6):
            v = csp_check("st1377", "conj_long_cycle", n)
            assert v.holds
            assert v.shift_used == generating_function("st1377", n).min_exponent
            assert v.shift_preserves_residue == (v.shift_used % v.order == 0)

    def test_verdict_residue_equality_definition(self):
        v = csp_check("st004", "rotation", 5)
        assert v.holds == (v.residue_f == v.residue_t)


class TestQMinusOne:
    def test_crossings_n6(self):
        assert q_minus_one("st039", 6) == 32

    def test_extrema_sum_n6(self):
        assert q_minus_one("extrema_sum", 6) == 8

    def test_descents_n4(self):
        assert q_minus_one("st021", 4) == 0


class TestEquidistribution:
    def test_crossings_nestings(self):
        assert equidistribution("st039", "st223", 6)

    def test_cdes_arrow(self):
        assert equidistribution("st317", "st1744", 6)

    def test_even_odd_inversions_differ(self):
        assert not equidistribution("st538", "st539", 4)


class TestTransport:
    def test_arrow_to_cdes(self):
        phi = lambda p: inverse(fundamental_transform(p))
        for n in range(1, 7):
            assert transport_check("st1744", "st317", phi, n)

    def test_13_2_to_31_2_by_complement(self):
        comp = get_map("complement")
        for n in range(1, 7):
            assert transport_check("st356", "st358", comp, n)

    def test_trivial(self):
        assert transport_check("st018", "st018", lambda p: p, 5)


class TestParityPairing:
    @pytest.mark.parametrize(
        "stat,inv_key",
        [("st371", "psi_3star"), ("st360", "psi_32_1"), ("st1727", "psi_block")],
    )
    def test_proof_involutions(self, stat, inv_key):
        mp = get_map(inv_key)
        for n in range(1, 7):
            assert parity_pairing_check(stat, mp, 0, n)

    def test_rejects_non_involution(self):
        with pytest.raises(NotAnInvolution):
            parity_pairing_check("st018", get_map("rotation"), 0, 4)

    def test_detects_bad_pairing(self):
        # the last-two swap changes inv by exactly 1, so pairing works for inv,
        # but fails for a statistic of constant parity
        assert parity_pairing_check("st018", get_map("swap_last_two"), 1, 4)
        assert not parity_pairing_check("st538", get_map("swap_first_two"), 0, 4)
