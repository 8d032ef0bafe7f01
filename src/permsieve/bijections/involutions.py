"""Fixed-point-counting involutions used to pair permutations by parity."""

from __future__ import annotations

from ..permutations import Perm, swap_positions


def alexandersson_kebede(p: Perm) -> Perm:
    """Swap the entries at the smallest odd position pair that keeps the
    right-to-left minima; identity if no odd position qualifies.

    An involution preserving the set of right-to-left minima, with exactly
    2^(floor(n/2)) fixed points.  Swapping p_i and p_(i+1) keeps that set
    exactly when max(p_i, p_(i+1)) exceeds min(p_(i+2), ..., p_n), which
    never holds for i + 1 = n.

    >>> alexandersson_kebede((2, 1, 3, 4, 7, 5, 6))
    (2, 1, 3, 4, 5, 7, 6)
    """
    n = len(p)
    suffix_min = [n + 1] * (n + 1)  # suffix_min[k] = min(p[k:]), 0-based
    for k in range(n - 1, -1, -1):
        suffix_min[k] = min(p[k], suffix_min[k + 1])
    for k in range(0, n - 2, 2):
        if max(p[k], p[k + 1]) > suffix_min[k + 2]:
            return p[:k] + (p[k + 1], p[k]) + p[k + 2:]
    return p


def psi_3star(p: Perm) -> Perm:
    """Toggle the 321/312 pattern at the maximal midpoint of a 3** occurrence.

    A 3** occurrence is a triple i < j < k with p_i greater than both p_j and
    p_k.  For the maximal midpoint j the endpoint k is unique; swapping p_j
    and p_k is an involution whose fixed points are the {321, 312}-avoiding
    permutations, of which there are 2^(n-1).
    """
    n = len(p)
    best = None
    prefix_max = 0
    suffix_min = [n + 1] * (n + 2)
    for t in range(n, 0, -1):
        suffix_min[t] = min(suffix_min[t + 1], p[t]) if t < n else n + 1
    for j in range(2, n):
        prefix_max = max(prefix_max, p[j - 2])
        if prefix_max > p[j - 1] and suffix_min[j] < prefix_max:
            best = (j, prefix_max)
    if best is None:
        return p
    j, bound = best
    ks = [k for k in range(j + 1, n + 1) if p[k - 1] < bound]
    assert len(ks) == 1, "maximal midpoint must have a unique endpoint"
    return swap_positions(p, j, ks[0])


def _reduce_first(p: Perm) -> Perm:
    """Drop the first entry and slide the remaining values onto 1..n-1."""
    return tuple(v - 1 if v != 1 else 1 for v in p[1:])


def psi_32_1(p: Perm) -> Perm:
    """Involution pairing permutations whose 32-1 occurrence counts differ by one.

    Swaps the values 1 and 2 when the word does not start with either; when
    it does, the first entry is frozen and the map recurses on the reduced
    word.  Fixed points number 2^(n-1).

    >>> psi_32_1((1, 4, 3, 2))
    (1, 4, 2, 3)
    """
    n = len(p)
    if n <= 2:
        return p
    if n == 3:
        if p == (3, 1, 2):
            return (3, 2, 1)
        if p == (3, 2, 1):
            return (3, 1, 2)
        return p
    if p[0] not in (1, 2):
        return tuple(2 if v == 1 else 1 if v == 2 else v for v in p)
    inner = psi_32_1(_reduce_first(p))
    if p[0] == 1:
        return (1,) + tuple(v + 1 for v in inner)
    return (2,) + tuple(v + 1 if v != 1 else 1 for v in inner)


def psi_block(p: Perm) -> Perm:
    """Swap the largest out-of-block value pair (i, i+1); identity when all sit home.

    Positions are sectioned into blocks of two (with position 1 alone when n
    is odd); the pair of values {i, i+1} belongs to the block covering
    positions i and i+1.  Fixed points number 2^(floor(n/2)).

    >>> psi_block((2, 1, 5, 3, 4, 6, 8, 7))
    (2, 1, 6, 3, 4, 5, 8, 7)
    """
    n = len(p)
    pos = {v: i for i, v in enumerate(p, start=1)}
    start = 1 if n % 2 == 0 else 2
    worst = None
    for i in range(start, n, 2):
        home = {i, i + 1}
        if {pos[i], pos[i + 1]} != home:
            worst = i
    if worst is None:
        return p
    return tuple(
        worst + 1 if v == worst else worst if v == worst + 1 else v for v in p
    )
