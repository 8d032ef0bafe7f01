"""Generating functions, root-of-unity sieving verdicts, and pairing checks.

A statistic sieves with respect to a map when the statistic generating
function, evaluated at every power of a primitive c-th root of unity for c
the map order, counts the elements fixed by the corresponding power of the
map.  Two polynomials of degree below c that agree at all c of those roots
are equal, so the verdict reduces to an exact comparison of the generating
function folded modulo q^c - 1 against the orbit polynomial, which by
construction evaluates at each root power to the fixed-point count.  The
witness roots of a failing verdict come from exact cyclotomic remainders.  A
floating-point cross-evaluation is computed on demand for display and never
decides anything.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations as iter_permutations
from math import gcd, lcm
from typing import Callable

from .bijections import get_map
from .errors import NotAnInvolution
from .orbits import (
    OrbitDecomposition,
    decompose_cached,
    fixed_counts_from_sizes,
)
from .permutations import Perm
from .polynomials import IntPolynomial
from .statistics import StatDescriptor, get_statistic


def generating_function(stat: StatDescriptor | str, n: int) -> IntPolynomial:
    """sum over S_n of q**stat(sigma); exact, with f(1) = n!."""
    desc = get_statistic(stat) if isinstance(stat, str) else stat
    return _generating_function_cached(desc.key, n)


@lru_cache(maxsize=None)
def _generating_function_cached(stat_key: str, n: int) -> IntPolynomial:
    desc = get_statistic(stat_key)
    if desc.evaluator is None:
        if desc.gf is None:
            raise ValueError(f"{desc.key} has neither evaluator nor closed form")
        return desc.gf(n)
    counts: dict[int, int] = {}
    for p in iter_permutations(range(1, n + 1)):
        e = desc.evaluator(p)
        counts[e] = counts.get(e, 0) + 1
    return IntPolynomial.from_terms(counts)


def fold_mod_cyclic(f: IntPolynomial, c: int) -> IntPolynomial:
    """Exponents reduced modulo c, honoring the offset; degree < c."""
    return f.fold(c)


def orbit_polynomial_from_sizes(sizes: dict[int, int]) -> IntPolynomial:
    """sum over orbits O of sum_{i < |O|} q^(i * c / |O|), c the map order.

    Evaluating at the d-th power of a primitive c-th root of unity yields
    exactly the number of elements fixed by the d-th power of the map.
    """
    c = lcm(*sizes)
    counts: dict[int, int] = {}
    for size, mult in sizes.items():
        step = c // size
        for i in range(size):
            e = i * step
            counts[e] = counts.get(e, 0) + mult
    return IntPolynomial.from_terms(counts)


def orbit_polynomial(dec: OrbitDecomposition) -> IntPolynomial:
    return orbit_polynomial_from_sizes(dec.size_multiset())


@dataclass(frozen=True)
class CspVerdict:
    """Outcome of one sieving check, decided by exact residue equality."""

    stat_key: str
    map_key: str
    n: int
    holds: bool
    order: int
    fixed: tuple[int, ...]
    residue_f: IntPolynomial
    residue_t: IntPolynomial
    shift_used: int
    shift_preserves_residue: bool

    @cached_property
    def float_evals(self) -> tuple[complex, ...]:
        """residue_f at each power of a primitive c-th root; display only, lazy."""
        c = self.order
        return tuple(
            complex(self.residue_f.evaluate(cmath.exp(2j * cmath.pi * d / c)))
            for d in range(c)
        )

    @cached_property
    def witnesses(self) -> tuple[int, ...]:
        """The d whose root zeta^d separates the residues, ascending; exact.

        With g = residue_f - residue_t and c the order, zeta^d has order
        e = c / gcd(c, d) and g(zeta^d) = 0 exactly when the cyclotomic
        polynomial Phi_e divides g, decided on g mod q^e - 1, once per
        divisor e of c.  Lazy: only a failing verdict's reader pays for it.
        """
        if self.holds:
            return ()
        c = self.order
        g = self.residue_f - self.residue_t
        separating = set()
        for e in range(1, c + 1):
            if c % e:
                continue
            folded = list(g.fold(e).dense(0, e - 1))
            if any(_divmod_monic(folded, _cyclotomic(e))[1]):
                separating.add(e)
        return tuple(d for d in range(c) if c // gcd(c, d) in separating)


def _divmod_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic den, coefficients constant first."""
    rem = list(num)
    k = len(den) - 1
    quot = [0] * max(len(rem) - k, 0)
    for top in range(len(rem) - 1, k - 1, -1):
        lead = rem[top]
        if lead:
            quot[top - k] = lead
            for j, coeff in enumerate(den):
                rem[top - k + j] -= lead * coeff
    return quot, rem[:k]


@lru_cache(maxsize=None)
def _cyclotomic(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, constant first: q^e - 1 over every Phi_d, d | e, d < e.

    >>> _cyclotomic(6)
    (1, -1, 1)
    """
    quot = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            quot = _divmod_monic(quot, _cyclotomic(d))[0]
    return tuple(quot)


def verdict_from_parts(
    stat_key: str, map_key: str, n: int, f: IntPolynomial, sizes: dict[int, int]
) -> CspVerdict:
    """Assemble the exact verdict from a generating function and orbit sizes.

    For statistics taking negative values the folding reduces the true signed
    exponents modulo the order; the verdict records the minimum exponent and
    whether shifting it away would leave the residue unchanged (it does
    exactly when that minimum is divisible by the order).
    """
    c = lcm(*sizes)
    residue_f = fold_mod_cyclic(f, c)
    residue_t = orbit_polynomial_from_sizes(sizes)
    holds = residue_f == residue_t
    fixed = fixed_counts_from_sizes(sizes)
    shift = f.min_exponent
    shifted_residue = fold_mod_cyclic(f.shift(-shift), c)
    return CspVerdict(
        stat_key=stat_key,
        map_key=map_key,
        n=n,
        holds=holds,
        order=c,
        fixed=fixed,
        residue_f=residue_f,
        residue_t=residue_t,
        shift_used=shift,
        shift_preserves_residue=shifted_residue == residue_f,
    )


def csp_check(stat: StatDescriptor | str, map_desc, n: int) -> CspVerdict:
    """Exact sieving verdict for (statistic, map) on S_n."""
    stat_desc = get_statistic(stat) if isinstance(stat, str) else stat
    map_key = map_desc if isinstance(map_desc, str) else map_desc.key
    dec = decompose_cached(get_map(map_key).key, n)
    f = generating_function(stat_desc, n)
    return verdict_from_parts(stat_desc.key, map_key, n, f, dec.size_multiset())


def q_minus_one(stat: StatDescriptor | str, n: int) -> int:
    """Exact alternating sum f(-1) of the statistic generating function."""
    return generating_function(stat, n).evaluate(-1)


def equidistribution(stat_a, stat_b, n: int) -> bool:
    """Exact equality of the two statistic generating functions on S_n."""
    return generating_function(stat_a, n) == generating_function(stat_b, n)


def transport_check(stat_a, stat_b, bijection: Callable[[Perm], Perm], n: int) -> bool:
    """Whether stat_b(phi(sigma)) = stat_a(sigma) for every sigma in S_n."""
    eval_a = (get_statistic(stat_a) if isinstance(stat_a, str) else stat_a).evaluator
    eval_b = (get_statistic(stat_b) if isinstance(stat_b, str) else stat_b).evaluator
    return all(
        eval_b(bijection(p)) == eval_a(p)
        for p in iter_permutations(range(1, n + 1))
    )


def parity_pairing_check(
    stat, involution: Callable[[Perm], Perm], expected_fixed_value: int, n: int
) -> bool:
    """Verify the pairing argument behind a q = -1 evaluation.

    Every fixed point of the involution must carry a statistic value of the
    same parity as ``expected_fixed_value``, and the two members of every
    2-orbit must carry values of opposite parity.  Raises
    :class:`NotAnInvolution` if the map fails psi(psi(x)) = x anywhere.
    """
    evaluator = (get_statistic(stat) if isinstance(stat, str) else stat).evaluator
    want = expected_fixed_value % 2
    for p in iter_permutations(range(1, n + 1)):
        q = involution(p)
        if involution(q) != p:
            raise NotAnInvolution(f"map is not an involution at {p}")
        if q == p:
            if evaluator(p) % 2 != want:
                return False
        elif (evaluator(p) + evaluator(q)) % 2 != 1:
            return False
    return True
