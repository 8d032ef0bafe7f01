"""Entry statistics, entry-wise inversion counts, and the lexicographic rank."""

from __future__ import annotations

from ..errors import UsageError
from ..permutations import Perm, lehmer_code, perm_rank


def ith_entry(p: Perm, i: int) -> int:
    if not 1 <= i <= len(p):
        raise UsageError(f"entry index {i} outside 1..{len(p)}")
    return p[i - 1]


def first_entry(p: Perm) -> int:
    return ith_entry(p, 1)


def last_entry(p: Perm) -> int:
    return ith_entry(p, len(p))


def upper_middle_entry(p: Perm) -> int:
    return ith_entry(p, len(p) // 2 + 1)


def lower_middle_entry(p: Perm) -> int:
    return ith_entry(p, (len(p) + 1) // 2)


def inversions_of_ith_entry(p: Perm, i: int) -> int:
    """#{j > i : p_j < p_i}, the i-th Lehmer code entry."""
    if not 1 <= i <= len(p):
        raise UsageError(f"entry index {i} outside 1..{len(p)}")
    return lehmer_code(p)[i - 1]


def rank(p: Perm) -> int:
    """Lexicographic position of p among S_n, from 1 to n!.

    >>> rank((2, 4, 3, 1))
    12
    """
    return 1 + perm_rank(p)
