"""Closed-form generating functions over S_n.

Everything returns an :class:`~permsieve.polynomials.IntPolynomial` and is
exact.  The crossing-number generating function is assembled from the
q-Eulerian-style summands E_hat(k, n); each summand is a Laurent expression
whose negative powers cancel, and the assembled sum is an honest polynomial.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterable

from ..polynomials import IntPolynomial


def mahonian_gf(n: int) -> IntPolynomial:
    """[n]_q! = (1+q)(1+q+q^2)...(1+...+q^(n-1)).

    >>> str(mahonian_gf(3))
    '1 + 2*q + 2*q^2 + q^3'
    """
    return IntPolynomial.q_factorial(n)


def blocks_gf(n: int, lengths: Iterable[int], block_gf: Callable[[int], IntPolynomial]) -> IntPolynomial:
    """n!/prod l! * prod block_gf(l): a statistic summed over disjoint blocks of positions.

    Each block of length l gets a uniform l-set of values in a uniform order
    (Stanley, EC I, 1.4).  Blocks of length 1 may be left out.

    >>> str(blocks_gf(3, [2], mahonian_gf))
    '3 + 3*q'
    """
    coeff, out = factorial(n), IntPolynomial((1,), 0)
    for l in lengths:
        coeff //= factorial(l)
        out = out * block_gf(l)
    return out * coeff


def cycles_gf(n: int) -> IntPolynomial:
    """q(q+1)(q+2)...(q+n-1), the distribution of the number of cycles."""
    out = IntPolynomial.monomial(1)
    for k in range(1, n):
        out = out * IntPolynomial.from_terms({0: k, 1: 1})
    return out


def absolute_length_gf(n: int) -> IntPolynomial:
    """(1+q)(1+2q)...(1+(n-1)q), the distribution of the absolute length n - cycles.

    It is :func:`cycles_gf` with its coefficients reversed.

    >>> str(absolute_length_gf(3))
    '1 + 3*q + 2*q^2'
    """
    out = IntPolynomial((1,), 0)
    for k in range(1, n):
        out = out * IntPolynomial((1, k), 0)
    return out


def rank_gf(n: int) -> IntPolynomial:
    """q + q^2 + ... + q^(n!), the distribution of the lexicographic rank."""
    return IntPolynomial((1,) * factorial(n), 1)


def entry_gf(n: int) -> IntPolynomial:
    """(n-1)! (q + ... + q^n), the distribution of any fixed entry."""
    return IntPolynomial((factorial(n - 1),) * n, 1)


def inv_entry_gf(n: int, i: int) -> IntPolynomial:
    """Distribution of the i-th Lehmer code entry: n!/(n-i+1) (1 + ... + q^(n-i))."""
    if not 1 <= i <= n:
        raise ValueError(f"entry index {i} outside 1..{n}")
    c = factorial(n) // (n - i + 1)
    return IntPolynomial((c,) * (n - i + 1), 0)


def q_eulerian_hat(k: int, n: int) -> IntPolynomial:
    """E_hat(k, n): the crossing distribution restricted to one Eulerian slice.

    E_hat(k,n) = q^(k-k^2) * sum_{i=0}^{k-1} (-1)^i [k-i]_q^n q^(k(i-1))
                 (C(n,i) q^(k-i) + C(n,i-1)),
    with E_hat(k,n)(-1) = C(n-1, k-1).
    """
    acc = IntPolynomial.zero()
    for i in range(k):
        block = IntPolynomial.q_int(k - i)
        power = IntPolynomial((1,), 0)
        for _ in range(n):
            power = power * block
        inner = IntPolynomial.from_terms({k - i: comb(n, i)})
        if i >= 1:
            inner = inner + IntPolynomial.from_terms({0: comb(n, i - 1)})
        term = power.shift(k * (i - 1)) * inner
        acc = acc + (term if i % 2 == 0 else -term)
    return acc.shift(k - k * k)


def crossings_gf_closed(n: int) -> IntPolynomial:
    """sum_k E_hat(k, n), the crossing-number distribution over S_n."""
    acc = IntPolynomial.zero()
    for k in range(1, n + 1):
        acc = acc + q_eulerian_hat(k, n)
    if acc.min_exponent < 0:
        raise ArithmeticError("crossing generating function must be a polynomial")
    return acc


def descent_variant_gf(n: int) -> IntPolynomial:
    """n * prod_{i=1}^{n-1} (1 - q^(i(n-1)))/(1 - q^i).

    Quoted closed form for the weighted-descent-minus-inversions statistic.
    Its value at q = 1 is n(n-1)^(n-1), not n!, so it is *not* the statistic
    generating function over S_n; root-of-unity sieving for that statistic is
    verified against the empirical distribution instead.
    """
    out = IntPolynomial((n,), 0)
    for i in range(1, n):
        out = out * IntPolynomial.from_terms({i * t: 1 for t in range(n - 1)})
    return out


@lru_cache(maxsize=None)
def strict_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All strictly decreasing positive integer tuples summing to n."""

    def extend(remaining: int, cap: int) -> list[tuple[int, ...]]:
        if remaining == 0:
            return [()]
        out = []
        for part in range(min(remaining, cap), 0, -1):
            for rest in extend(remaining - part, part - 1):
                out.append((part,) + rest)
        return out

    return tuple(extend(n, n))


@lru_cache(maxsize=None)
def shifted_tableaux_count(shape: tuple[int, ...]) -> int:
    """Number of standard tableaux of the shifted diagram of a strict partition.

    Computed by removing the cell holding the largest entry: row i loses its
    last cell exactly when the result is still strictly decreasing, i.e. when
    i is the last row or lambda_i - 1 > lambda_{i+1}.
    """
    if not shape:
        return 1
    total = 0
    for i, part in enumerate(shape):
        last = i == len(shape) - 1
        if not last and part - 1 <= shape[i + 1]:
            continue
        if part == 1:
            reduced = shape[:i]  # removing the lone cell drops the row
        else:
            reduced = shape[:i] + (part - 1,) + shape[i + 1 :]
        total += shifted_tableaux_count(reduced)
    return total


def shifted_circled_gf(n: int) -> IntPolynomial:
    """sum over strict partitions of n of (1+q)^(n - rows) * g(shape)^2.

    Distribution of the number of circled entries of the shifted recording
    tableau; evaluates to n! at q = 1 and to 0 at q = -1 for n >= 2.
    """
    acc = IntPolynomial.zero()
    one_plus_q = IntPolynomial((1, 1), 0)
    for shape in strict_partitions(n):
        g = shifted_tableaux_count(shape)
        term = IntPolynomial((g * g,), 0)
        for _ in range(n - len(shape)):
            term = term * one_plus_q
        acc = acc + term
    return acc
