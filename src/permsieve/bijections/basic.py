"""Globally defined bijections on S_n: symmetries, rotations, and promotions."""

from __future__ import annotations

from ..permutations import Perm, compose, inverse, lehmer_code, lehmer_decode, swap_positions


def reverse(p: Perm) -> Perm:
    return p[::-1]


def complement(p: Perm) -> Perm:
    n = len(p)
    return tuple(n + 1 - v for v in p)


def rotation(p: Perm) -> Perm:
    """Cyclic shift of the one-line word: s_2 s_3 ... s_n s_1."""
    return p[1:] + p[:1]


def long_cycle(n: int) -> Perm:
    """The n-cycle i -> i + 1 (mod n)."""
    return tuple(range(2, n + 1)) + (1,)


def conjugate_by_long_cycle(p: Perm) -> Perm:
    """c o p o c^{-1} for c the long cycle (1, 2, ..., n)."""
    c = long_cycle(len(p))
    return compose(compose(c, p), inverse(c))


def lehmer_code_rotation(p: Perm) -> Perm:
    """Add 1 to every Lehmer code entry, cyclically modulo n + 1 - i.

    >>> lehmer_code_rotation((1, 2, 3))
    (2, 3, 1)
    """
    n = len(p)
    code = lehmer_code(p)
    return lehmer_decode(tuple((c + 1) % (n + 1 - i) for i, c in enumerate(code, start=1)))


def toric_promotion(p: Perm) -> Perm:
    """Apply the guarded transpositions tau_{1,2}, tau_{2,3}, ..., tau_{n,1}.

    Each stage swaps the values i and j when their positions in the current
    intermediate permutation are not adjacent, and does nothing otherwise;
    guards are re-evaluated against the running intermediate.  On S_n with
    n >= 2 every orbit of this map has size n - 1.
    """
    n = len(p)
    word = list(p)
    pos = [0] * (n + 1)
    for idx, v in enumerate(word):
        pos[v] = idx
    stages = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    for i, j in stages:
        a, b = pos[i], pos[j]
        if abs(a - b) > 1:
            word[a], word[b] = word[b], word[a]
            pos[i], pos[j] = b, a
    return tuple(word)


def swap_last_two(p: Perm) -> Perm:
    return swap_positions(p, len(p) - 1, len(p))


def swap_first_third(p: Perm) -> Perm:
    return swap_positions(p, 1, 3)


def prefix_reverse_3(p: Perm) -> Perm:
    """Reverse the first three entries; coincides with swapping positions 1 and 3."""
    return p[2::-1] + p[3:]


def swap_first_last(p: Perm) -> Perm:
    return swap_positions(p, 1, len(p))


def swap_first_two(p: Perm) -> Perm:
    return swap_positions(p, 1, 2)


def swap_second_third(p: Perm) -> Perm:
    return swap_positions(p, 2, 3)


def inverse_map(p: Perm) -> Perm:
    """Group inverse, registered as a map for negative-control scans."""
    return inverse(p)
