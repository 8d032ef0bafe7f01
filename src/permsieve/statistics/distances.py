"""Sorting and factorization distances.

The two Cayley-graph statistics are computed by one breadth-first search per
(generator set, n), from the identity over the whole of S_n, and the distance
tables are memoized; individual evaluations are then table lookups.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import permutations

from ..permutations import Perm, identity, perm_rank
from .basic import inversions


def depth(p: Perm) -> int:
    """sum of max(p_i - i, 0)."""
    return sum(max(v - i, 0) for i, v in enumerate(p, start=1))


def reduced_reflection_length(p: Perm) -> int:
    """Twice the depth minus the number of inversions."""
    return 2 * depth(p) - inversions(p)


def cyclic_sort_swaps(p: Perm) -> int:
    """Swaps performed by the cyclic comparator pass until the identity appears.

    The pass repeatedly visits the position pairs {1, n}, {1, 2}, {2, 3}, ...,
    {n-1, n} and swaps whenever the entry at the larger position is smaller;
    the identity check runs after every comparison.

    >>> cyclic_sort_swaps((2, 4, 3, 1))
    4
    """
    n = len(p)
    if n == 1:
        return 0
    word = list(p)
    target = list(range(1, n + 1))
    swaps = 0
    pairs = [(0, n - 1)] + [(i, i + 1) for i in range(n - 1)]
    while word != target:
        for a, b in pairs:
            if word[b] < word[a]:
                word[a], word[b] = word[b], word[a]
                swaps += 1
            if word == target:
                break
    return swaps


def _swap_positions(p: Perm, a: int, b: int) -> Perm:
    q = list(p)
    q[a], q[b] = q[b], q[a]
    return tuple(q)


@lru_cache(maxsize=None)
def _distance_table(n: int, generators: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """BFS word lengths from the identity, indexed by permutation rank.

    Generators are position pairs (0-based); multiplying on the right by the
    transposition (a+1, b+1) swaps the entries at positions a and b, so BFS
    layers enumerate products of k generators.  The search keys its distances
    by permutation; the table is then read off in lexicographic order, whose
    positions are the Lehmer ranks.
    """
    start = identity(n)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        d = dist[cur] + 1
        for a, b in generators:
            nxt = _swap_positions(cur, a, b)
            if nxt not in dist:
                dist[nxt] = d
                queue.append(nxt)
    return tuple(dist[p] for p in permutations(range(1, n + 1)))


def cyclic_shift_factorization_length(p: Perm) -> int:
    """Shortest factorization into the transpositions (a, a+1 mod n).

    >>> cyclic_shift_factorization_length((2, 4, 3, 1))
    2
    """
    n = len(p)
    if n == 1:
        return 0
    gens = tuple((a, a + 1) for a in range(n - 1))
    if n > 2:
        gens += ((0, n - 1),)
    return _distance_table(n, gens)[perm_rank(p)]


def prefix_exchange_distance(p: Perm) -> int:
    """Shortest factorization into the transpositions (1, a), 2 <= a <= n.

    >>> prefix_exchange_distance((2, 4, 3, 1))
    2
    """
    n = len(p)
    if n == 1:
        return 0
    gens = tuple((0, a) for a in range(1, n))
    return _distance_table(n, gens)[perm_rank(p)]
