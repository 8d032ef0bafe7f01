"""Generating functions, folding, orbit polynomials, and sieving verdicts."""

import cmath
from itertools import permutations
from math import factorial, gcd, lcm

import pytest

from permsieve.bijections import get_map
from permsieve.bijections.basic import complement, reverse
from permsieve.errors import PermsieveError
from permsieve.orbits import decompose
from permsieve.permutations import fundamental_transform, inverse
from permsieve.polynomials import IntPolynomial
from permsieve.sieving import (
    _enumerated_gf,
    _generating_function_cached,
    csp_check,
    equidistribution,
    generating_function,
    orbit_polynomial,
    parity_pairing_check,
    q_minus_one,
    transport_check,
)
from permsieve.statistics import REGISTRY, StatDescriptor, get_statistic, mahonian_gf, walk


def poly(terms):
    return IntPolynomial.from_terms(terms)


def reverse_complement(p):
    return reverse(complement(p))


def to_front(position):
    """The bijection that moves the entry at ``position(n)`` (1-based) to the front."""

    def move(p):
        i = position(len(p)) - 1
        return (p[i],) + p[:i] + p[i + 1:]

    return move


def foata(p):
    """Foata's second fundamental transformation, one letter x at a time: cut the
    word so far after every letter on the same side of x as its last letter,
    move each block's last letter to its front, then append x."""
    gamma = []
    for x in p:
        if gamma:
            above = gamma[-1] > x
            word, block = [], []
            for a in gamma:
                block.append(a)
                if (a > x) == above:
                    word += block[-1:] + block[:-1]
                    block = []
            gamma = word
        gamma.append(x)
    return tuple(gamma)


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


@pytest.mark.parametrize("key", [key for key, desc in REGISTRY.items()
                                 if desc.gf is not None and desc.evaluator is not None])
def test_closed_form_matches_enumeration(key):
    """Every registered ``gf`` with an evaluator (a closed form or an equidistributed
    statistic's walk) equals enumeration of S_n from the statistic's ``min_n`` on
    (below it the statistic is undefined)."""
    desc = REGISTRY[key]
    for n in range(desc.min_n, 8):
        assert generating_function(key, n) == _enumerated_gf(desc, n), n


BORROWED = {"st039": "st223", "st317": "st1744", "st1687": "st1683", "st825": "st1379",
            "maj_minus_imaj": "st1377", "st463": "st462", "st866": "st462",
            "st004": "st018", "st833": "st018", "st007": "st031", "st314": "st031", "st542": "st031",
            "st991": "st031", "st316": "st216", "st740": "st054", "st1806": "st054", "st1807": "st054"}


def test_borrowed_gf_is_the_lenders():
    """A statistic whose ``gf`` names an equidistributed statistic reads the lender's
    generating function itself, so the lender's walk runs once per n."""
    assert {key: desc.gf_key for key, desc in REGISTRY.items() if desc.gf_key != key} == BORROWED
    for borrower, lender in BORROWED.items():
        for n in range(1, 7):
            assert generating_function(borrower, n) is generating_function(lender, n), (borrower, n)


def test_each_callable_gf_is_registered_once():
    """A distribution has one definition: an equidistributed statistic borrows its
    definer's key rather than registering the same function again."""
    owners = {}
    for key, desc in REGISTRY.items():
        if callable(desc.gf):
            owners.setdefault(desc.gf, []).append(key)
    assert {keys[0]: keys for keys in owners.values() if len(keys) > 1} == {}


def test_borrowed_gf_names_a_defining_statistic():
    """Every lender carries its own definition (a step or a callable ``gf``) and the same ``min_n``."""
    for key, desc in REGISTRY.items():
        if isinstance(desc.gf, str):
            lender = REGISTRY[desc.gf]
            assert lender.step is not None or callable(lender.gf), key
            assert lender.min_n == desc.min_n, key


@pytest.mark.parametrize("key", [key for key, desc in REGISTRY.items() if desc.step is not None])
def test_transfer_matrix_matches_enumeration(key):
    """Every statistic with a step: its left-to-right walk equals enumeration of S_n,
    as a generating function and on each permutation (equidistributed statistics,
    such as left-to-right and right-to-left maxima, share a generating function)."""
    desc = REGISTRY[key]
    for n in range(desc.min_n, 8):
        assert _generating_function_cached.__wrapped__(key, n) == _enumerated_gf(desc, n), n
        for p in permutations(range(1, n + 1)):
            assert walk(desc.step, p) == desc.evaluator(p), p


def test_a_statistic_without_a_fast_definition_is_refused():
    """A statistic with neither a ``gf`` nor a step is refused, so no generating
    function enumerates S_n; and st373 keeps its own step: criterion 10 observes
    st373 ~ st317 without a proof, and a borrowed ``gf`` would compare one
    definition with itself."""
    with pytest.raises(ValueError, match="neither a closed form nor a step"):
        StatDescriptor("neither", "no fast definition", len)
    assert REGISTRY["st373"].step is not None and REGISTRY["st373"].gf is None


class TestFold:
    def test_example(self):
        assert poly({3: 1, 1: 1}).fold(2) == poly({1: 2})

    def test_constant(self):
        f = generating_function("st021", 4)
        assert f.fold(1) == poly({0: 24})

    def test_mahonian_fold_uniform(self):
        assert mahonian_gf(4).fold(4) == poly({0: 6, 1: 6, 2: 6, 3: 6})


class TestOrbitPolynomial:
    def test_single_orbit(self):
        sizes = decompose("rotation", 3)
        # S_3 under rotation: two orbits of size 3; value at 1 equals 3!
        f = orbit_polynomial(sizes)
        assert f == poly({0: 2, 1: 2, 2: 2})

    def test_fixed_point_free_involution(self):
        assert orbit_polynomial(decompose("reverse", 4)) == poly({0: 12, 1: 12})

    def test_corteel_s4(self):
        assert orbit_polynomial(decompose("corteel", 4)) == poly({0: 16, 1: 8})

    def test_evaluates_to_fixed_counts(self):
        from permsieve.orbits import fixed_counts

        for key in ("rotation", "toric_promotion", "conj_long_cycle", "corteel"):
            sizes = decompose(key, 5)
            f = orbit_polynomial(sizes)
            counts = fixed_counts(sizes)
            c = lcm(*sizes)
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

    def test_shift_preserves_a_periodic_residue_the_order_does_not_divide(self):
        v = csp_check("st638", "reverse", 4)
        assert (v.shift_used, v.order) == (1, 2)
        assert v.residue_f == poly({0: 12, 1: 12})
        assert v.shift_preserves_residue
        for stat in ("st638", "st1377"):
            for key in ("reverse", "rotation", "corteel"):
                v = csp_check(stat, key, 5)
                coeffs = v.residue_f.dense(0, v.order - 1)
                period = gcd(v.shift_used, v.order)
                periodic = all(coeffs[i] == coeffs[i % period] for i in range(v.order))
                assert v.shift_preserves_residue == periodic, (stat, key)

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

    def test_is_an_int_for_every_statistic(self):
        """A negative offset (st1377 and its borrowers) must not turn the value into a float."""
        assert q_minus_one("st1377", 5) == 8
        for key, desc in REGISTRY.items():
            for n in range(desc.min_n, 8):
                assert type(q_minus_one(key, n)) is int, (key, n)
                assert type(generating_function(key, n).evaluate(1)) is int, (key, n)


class TestEquidistribution:
    # st039 reads st223's walk and st317 reads st1744's, so their generating
    # functions agree by registration; enumeration compares the statistics
    def test_crossings_nestings(self):
        assert _enumerated_gf(get_statistic("st039"), 6) == _enumerated_gf(get_statistic("st223"), 6)

    def test_cdes_arrow(self):
        assert _enumerated_gf(get_statistic("st317"), 6) == _enumerated_gf(get_statistic("st1744"), 6)

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

    # Each statistic that borrows another's generating function, carried onto
    # it pointwise by the bijection that justifies the borrowing.

    def test_l2r_maxima_to_cycles_by_fundamental_transform(self):
        for n in range(1, 8):
            assert transport_check("st314", "st031", fundamental_transform, n)

    @pytest.mark.parametrize("key,phi", [("st007", reverse), ("st542", complement), ("st991", reverse_complement)])
    def test_extrema_to_l2r_maxima(self, key, phi):
        for n in range(1, 8):
            assert transport_check(key, "st314", phi, n)

    def test_crossings_nestings_by_corteel(self):
        corteel = get_map("corteel")
        for n in range(1, 8):
            assert transport_check("st039", "st223", corteel, n)
            assert transport_check("st223", "st039", corteel, n)

    def test_sw_to_lz_admissible_inversions_by_reverse_complement(self):
        for n in range(1, 8):
            assert transport_check("st866", "st463", reverse_complement, n)

    def test_213_to_132_by_reverse_complement_of_inverse(self):
        # v plays the 2 of a 213 in p exactly when position n + 1 - v of
        # rc(p^-1) plays the 3 of a 132
        for n in range(1, 8):
            assert transport_check("st1687", "st1683", lambda p: reverse_complement(inverse(p)), n)

    def test_foata_transform_takes_maj_to_inv_and_keeps_imaj(self):
        maj, inv = get_statistic("st004"), get_statistic("st018")
        for n in range(1, 8):
            images = set()
            for p in permutations(range(1, n + 1)):
                q = foata(p)
                images.add(q)
                assert (inv(q), maj(inverse(q))) == (maj(p), maj(inverse(p))), p
            assert len(images) == factorial(n)

    def test_maj_plus_and_minus_imaj_by_foata_transform(self):
        for n in range(1, 8):
            assert transport_check("st825", "st1379", lambda p: inverse(foata(p)), n)
            assert transport_check("maj_minus_imaj", "st1377", lambda p: inverse(foata(inverse(p))), n)

    def test_comaj_to_inv_by_foata_of_reverse_complement(self):
        # reverse-complement takes comaj to maj, and Foata's transform maj to inv
        for n in range(1, 8):
            assert transport_check("st833", "st018", lambda p: foata(reverse_complement(p)), n)

    def test_non_l2r_maxima_to_absolute_length_by_fundamental_transform(self):
        for n in range(1, 8):
            assert transport_check("st316", "st216", fundamental_transform, n)

    @pytest.mark.parametrize("key,phi", [
        ("st740", reverse),
        ("st1806", to_front(lambda n: n // 2 + 1)),
        ("st1807", to_front(lambda n: (n + 1) // 2)),
    ])
    def test_entries_to_the_first_entry(self, key, phi):
        for n in range(1, 8):
            assert transport_check(key, "st054", phi, n)

    def test_shifted_and_complementary_extrema(self):
        st314, st316 = get_statistic("st314"), get_statistic("st316")
        st541, st542 = get_statistic("st541"), get_statistic("st542")
        for n in range(1, 8):
            for p in permutations(range(1, n + 1)):
                assert st316(p) == n - st314(p) and st541(p) == st542(p) - 1, p


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
        with pytest.raises(PermsieveError, match="not an involution"):
            parity_pairing_check("st018", get_map("rotation"), 0, 4)

    def test_rejects_a_second_preimage_of_a_paired_permutation(self):
        # 123 and 132 pair up first; 321 comes last and is sent onto 132 as well
        psi = {(1, 2, 3): (1, 3, 2), (1, 3, 2): (1, 2, 3), (2, 1, 3): (2, 3, 1),
               (2, 3, 1): (2, 1, 3), (3, 1, 2): (3, 1, 2), (3, 2, 1): (1, 3, 2)}
        with pytest.raises(PermsieveError, match=r"\(3, 2, 1\)"):
            parity_pairing_check("st018", psi.__getitem__, 0, 3)

    def test_detects_bad_pairing(self):
        # the last-two swap changes inv by exactly 1, so pairing works for inv,
        # but fails for a statistic of constant parity
        assert parity_pairing_check("st018", get_map("swap_last_two"), 1, 4)
        assert not parity_pairing_check("st538", get_map("swap_first_two"), 0, 4)
