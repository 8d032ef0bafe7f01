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
from math import gcd, lcm
from typing import Callable

from .bijections import get_map
from .errors import PermsieveError, UsageError
from .orbits import fixed_counts, orbit_signature, orbit_sizes
from .permutations import Perm, symmetric_group
from .polynomials import IntPolynomial
from .statistics import StatDescriptor, get_statistic
from .statistics.basic import walk_gf


def generating_function(stat: StatDescriptor | str, n: int) -> IntPolynomial:
    """sum over S_n of q**stat(sigma); exact, with f(1) = n!.

    Raises :class:`UsageError` when n is below the statistic's ``min_n``.  A
    statistic whose ``gf`` is another statistic's key reads that statistic's
    generating function, the same object, memoized under its ``gf_key``.
    """
    desc = get_statistic(stat)
    if n < desc.min_n:
        raise UsageError(f"statistic {desc.key} is defined for n >= {desc.min_n}, got n={n}")
    return _generating_function_cached(desc.gf_key, n)


@lru_cache(maxsize=None)
def _generating_function_cached(stat_key: str, n: int) -> IntPolynomial:
    """The statistic's registered ``gf``, else the walk of its step; a
    :class:`StatDescriptor` has exactly one of them.

    A registered ``gf`` is the generating function; acceptance criterion 9
    checks each one that has an evaluator against :func:`_enumerated_gf`.  The
    walk is :func:`~permsieve.statistics.basic.walk_gf`.
    """
    desc = get_statistic(stat_key)
    return desc.gf(n) if desc.gf is not None else walk_gf(desc.step, n)


def _enumerated_gf(desc: StatDescriptor, n: int) -> IntPolynomial:
    """sum over S_n of q**desc(sigma), one evaluation per permutation.

    No generating function is computed this way: it is the test oracle of
    every ``gf`` and every step.
    """
    counts: dict[int, int] = {}
    for p in symmetric_group(n):
        e = desc.evaluator(p)
        counts[e] = counts.get(e, 0) + 1
    return IntPolynomial.from_terms(counts)


def orbit_polynomial(sizes: dict[int, int]) -> IntPolynomial:
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


@dataclass(frozen=True)
class CspVerdict:
    """Outcome of one sieving check, decided by exact residue equality.

    It holds only what decides it, so the scan shares one verdict among the
    maps of an orbit structure; the caller knows the statistic, map and n.
    """

    holds: bool
    order: int
    fixed: tuple[int, ...]
    residue_f: IntPolynomial
    residue_t: IntPolynomial
    shift_used: int

    @cached_property
    def shift_preserves_residue(self) -> bool:
        """Whether shifting the minimum exponent away leaves the residue unchanged; lazy.

        Folding commutes with multiplying by q^k modulo q^c - 1, so shifting
        the residue is shifting the generating function.  The shift rotates
        the c residue coefficients, so the residue is unchanged exactly when
        its coefficients have period gcd(shift, c): always when c divides the
        shift, but also, e.g., for ``st638`` under ``reverse`` on S_4 (shift
        1, order 2, residue 12 + 12q).
        """
        return self.residue_f.shift(-self.shift_used).fold(self.order) == self.residue_f

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


@dataclass(frozen=True)
class OrbitParts:
    """The map's half of every verdict on S_n; it depends on the orbit sizes alone."""

    order: int
    residue_t: IntPolynomial
    fixed: tuple[int, ...]
    signature: str


def orbit_parts(sizes: dict[int, int]) -> OrbitParts:
    """Order, orbit polynomial, fixed-point counts and signature of one size multiset."""
    return OrbitParts(lcm(*sizes), orbit_polynomial(sizes), fixed_counts(sizes), orbit_signature(sizes))


def verdict_from_parts(residue_f: IntPolynomial, shift: int, orbit: OrbitParts) -> CspVerdict:
    """Assemble the exact verdict from the folded generating function and the map's parts.

    ``residue_f`` is the generating function folded modulo q^order - 1 and
    ``shift`` its minimum exponent.  For statistics taking negative values the
    folding reduces the true signed exponents modulo the order.
    """
    return CspVerdict(
        holds=residue_f == orbit.residue_t,
        order=orbit.order,
        fixed=orbit.fixed,
        residue_f=residue_f,
        residue_t=orbit.residue_t,
        shift_used=shift,
    )


def csp_check(stat: StatDescriptor | str, map_desc, n: int) -> CspVerdict:
    """Exact sieving verdict for (statistic, map) on S_n."""
    orbit = orbit_parts(orbit_sizes(get_map(map_desc).key, n))
    f = generating_function(stat, n)
    return verdict_from_parts(f.fold(orbit.order), f.min_exponent, orbit)


def q_minus_one(stat: StatDescriptor | str, n: int) -> int:
    """Exact alternating sum f(-1) of the statistic generating function."""
    return generating_function(stat, n).evaluate(-1)


def equidistribution(stat_a, stat_b, n: int) -> bool:
    """Exact equality of the two statistic generating functions on S_n."""
    return generating_function(stat_a, n) == generating_function(stat_b, n)


def transport_check(stat_a, stat_b, bijection: Callable[[Perm], Perm], n: int) -> bool:
    """Whether stat_b(phi(sigma)) = stat_a(sigma) for every sigma in S_n."""
    eval_a = get_statistic(stat_a).evaluator
    eval_b = get_statistic(stat_b).evaluator
    return all(
        eval_b(bijection(p)) == eval_a(p)
        for p in symmetric_group(n)
    )


def parity_pairing_check(
    stat, involution: Callable[[Perm], Perm], expected_fixed_value: int, n: int
) -> bool:
    """Verify the pairing argument behind a q = -1 evaluation.

    Every fixed point of the involution must carry a statistic value of the
    same parity as ``expected_fixed_value``, and the two members of every
    2-orbit must carry values of opposite parity.  Raises
    :class:`PermsieveError` if the map fails psi(psi(x)) = x anywhere.
    """
    evaluator = get_statistic(stat).evaluator
    want = expected_fixed_value % 2
    # second members of the 2-orbits met so far: psi(psi(q)) = psi(p) = q and the
    # parity of the pair were checked at p, so q is skipped when it comes up
    partners = set()
    for p in symmetric_group(n):
        if p in partners:
            partners.remove(p)
            continue
        q = involution(p)
        if involution(q) != p:
            raise PermsieveError(f"map is not an involution at {p}")
        if q == p:
            if evaluator(p) % 2 != want:
                return False
        else:
            partners.add(q)
            if (evaluator(p) + evaluator(q)) % 2 != 1:
                return False
    return True
