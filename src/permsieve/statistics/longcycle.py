"""Signed combinations and admissible-inversion statistics.

These are the statistics whose generating functions sieve under conjugation
by the long cycle (1, 2, ..., n); two of the combinations take negative
values, which the polynomial layer absorbs through its exponent offset.
"""

from __future__ import annotations

from ..permutations import Perm, inverse
from .basic import inversions, major_index, placed_above

# Transfer-matrix steps (see StatDescriptor).  The state is the previous value,
# 0 before position 1, so a descent ending at position i adds i - 1 to maj.


def _maj(prev: int, v: int, i: int) -> int:
    return i - 1 if prev > v else 0


def inverse_major_index(p: Perm) -> int:
    return major_index(inverse(p))


def maj_plus_imaj(p: Perm) -> int:
    return major_index(p) + inverse_major_index(p)


def inv_plus_maj(p: Perm) -> int:
    return inversions(p) + major_index(p)


def inv_plus_maj_step(mask: int, prev: int, v: int, i: int, n: int):
    return v, _maj(prev, v, i) + placed_above(mask, v)


def maj_minus_inv(p: Perm) -> int:
    return major_index(p) - inversions(p)


def maj_minus_inv_step(mask: int, prev: int, v: int, i: int, n: int):
    return v, _maj(prev, v, i) - placed_above(mask, v)


def maj_minus_imaj(p: Perm) -> int:
    return major_index(p) - inverse_major_index(p)


def excedances(p: Perm) -> int:
    """Positions i with p_i > i (strict)."""
    return sum(1 for i, v in enumerate(p, start=1) if v > i)


def maj_minus_excedances(p: Perm) -> int:
    return major_index(p) - excedances(p)


def maj_minus_excedances_step(mask: int, prev: int, v: int, i: int, n: int):
    return v, _maj(prev, v, i) - int(v > i)


def admissible_inversions_lz(p: Perm) -> int:
    """Inversions (i, j) with i > 1 and p_{i-1} < p_i, or some i < k < j with p_i < p_k."""
    n = len(p)
    total = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if p[i - 1] <= p[j - 1]:
                continue
            if i > 1 and p[i - 2] < p[i - 1]:
                total += 1
            elif any(p[k - 1] > p[i - 1] for k in range(i + 1, j)):
                total += 1
    return total


def admissible_inversions_sw(p: Perm) -> int:
    """Inversions (i, j) with p_j < p_{j+1}, or some i < k < j with p_k < p_j."""
    n = len(p)
    total = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if p[i - 1] <= p[j - 1]:
                continue
            if j < n and p[j - 1] < p[j]:
                total += 1
            elif any(p[k - 1] < p[j - 1] for k in range(i + 1, j)):
                total += 1
    return total


def shifted_major_index(p: Perm) -> int:
    """sum of i over indices with p_i > p_{i+1} + 1."""
    return sum(i for i in range(1, len(p)) if p[i - 1] > p[i] + 1)


def shifted_major_index_step(mask: int, prev: int, v: int, i: int, n: int):
    return v, i - 1 if prev > v + 1 else 0
