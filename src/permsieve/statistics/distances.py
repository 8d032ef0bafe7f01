"""Sorting and factorization distances.

The cyclic comparator sort (st1579) first visits the positions {1, n}, so it
swaps the end entries when p(1) > p(n).  Its bubble pass over {1, 2}, ...,
{n-1, n} then carries n to the last position, after which {1, n} never swaps
again, and every swap exchanges adjacent entries out of order, removing one
inversion.  So st1579(p) = [p(1) > p(n)] + inv(p'), p' being p with its end
entries exchanged when p(1) > p(n).  The map p -> p' is two to one onto the
permutations with p'(1) < p'(n), one preimage weighing q more than the other,
and such a permutation with end values a < b has a - 1 + n - b inversions
through its ends besides those of its middle, so the generating function is
(1 + q) [n-2]_q! sum_(k=0..n-2) (k+1) q^k for n >= 2, the k + 1 counting the
pairs a < b with a - 1 + n - b = k.  The sort itself stays the evaluator,
and enumerating S_n through it is the formula's test oracle.

The factorization length over the cyclic shifts of (12) (st1076) is the
affine length of the best lift of the permutation to the affine symmetric
group, a formula at any n.  Its generating function counts the layers of a
breadth-first search from the identity over the whole of S_n, local to its
call, so it leaves no table of S_n behind; that search is limited to n <= 9,
and it is the formula's test oracle.  The prefix exchange distance (st1077)
is the star-graph distance of Akers, Harel and Krishnamurthy (1987), a
formula in the cycle type; the same search over the star generators is its
test oracle.
"""

from __future__ import annotations

from collections import Counter, deque
from math import perm

from ..errors import UsageError
from ..permutations import Perm, identity, swap_positions
from ..polynomials import IntPolynomial
from .basic import inversions
from .extrema import cycle_count

SEARCH_MAX_N = 9  # binds st1076's gf only: S_9 takes about 2 s and 90 MB on a 2-CPU Xeon, S_10 ten times both


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


def cyclic_sort_gf(n: int) -> IntPolynomial:
    """The generating function of st1579: (1 + q) [n-2]_q! sum_(k=0..n-2) (k+1) q^k, and 1 for n <= 1.

    >>> str(cyclic_sort_gf(3))
    '1 + 3*q + 2*q^2'
    """
    if n <= 1:
        return IntPolynomial((1,), 0)
    return IntPolynomial((1, 1), 0) * IntPolynomial.q_factorial(n - 2) * IntPolynomial(tuple(range(1, n)), 0)


def _distance_table(n: int, generators: tuple[tuple[int, int], ...]) -> dict[Perm, int]:
    """BFS word lengths from the identity, keyed by permutation.

    Generators are the transpositions (a b), given as 1-based position pairs;
    multiplying on the right by (a b) swaps the entries at positions a and b,
    so BFS layers enumerate products of k generators.
    """
    start = identity(n)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        d = dist[cur] + 1
        for a, b in generators:
            nxt = swap_positions(cur, a, b)
            if nxt not in dist:
                dist[nxt] = d
                queue.append(nxt)
    return dist


def _cyclic_shift_generators(n: int) -> tuple[tuple[int, int], ...]:
    """The transpositions (a, a+1 mod n); n > SEARCH_MAX_N is refused here, before any search."""
    if n > SEARCH_MAX_N:
        raise UsageError(f"the generating function of st1076 searches all of S_n, "
                         f"which is limited to n <= {SEARCH_MAX_N}; got n = {n}")
    gens = tuple((a, a + 1) for a in range(1, n))
    if n > 2:
        gens += ((1, n),)
    return gens


def cyclic_shift_factorization_length(p: Perm) -> int:
    """Shortest factorization into the transpositions (a, a+1 mod n).

    The cyclic shifts are the images of the affine simple reflections, so this
    is the least affine length of a lift w(i) = p(i) + n k_i with sum k = 0,
    that is the minimum of sum_(i<j) |k_j - k_i - [p(i) > p(j)]| (Shi 1986;
    Bjoerner and Brenti, Combinatorics of Coxeter Groups, section 8.3).  The
    minimum is taken here over the lifts that move each entry by less than n,
    built pair by pair: the entries with p(i) > i, farthest first, are lowered
    by n as the entries with p(i) < i, farthest first, are raised by n.  This
    agrees with the breadth-first search on all of S_1 .. S_9.

    >>> cyclic_shift_factorization_length((2, 4, 3, 1))
    2
    """
    n = len(p)
    right = sorted((i for i in range(n) if p[i] > i + 1), key=lambda i: i + 1 - p[i])
    left = sorted((i for i in range(n) if p[i] < i + 1), key=lambda i: p[i] - i - 1)
    k = [0] * n
    best = inversions(p)
    for a, b in zip(right, left):
        k[a], k[b] = -1, 1
        best = min(best, sum(abs(k[j] - k[i] - (p[i] > p[j])) for i in range(n) for j in range(i + 1, n)))
    return best


def cyclic_shift_gf(n: int) -> IntPolynomial:
    """The generating function of st1076: the layer sizes of a search that no memo keeps."""
    return IntPolynomial.from_terms(Counter(_distance_table(n, _cyclic_shift_generators(n)).values()))


def prefix_exchange_distance(p: Perm) -> int:
    """Shortest factorization into the transpositions (1, a), 2 <= a <= n.

    The star-graph distance (Akers, Harel and Krishnamurthy 1987): k + m - 2
    when p(1) != 1, else k + m, for k the misplaced values and m the cycles of
    length at least 2, that is m = cycles - (n - k).

    >>> prefix_exchange_distance((2, 4, 3, 1))
    2
    """
    misplaced = sum(v != i for i, v in enumerate(p, 1))
    return 2 * misplaced + cycle_count(p) - len(p) - (2 if p and p[0] != 1 else 0)


def prefix_exchange_gf(n: int) -> IntPolynomial:
    """The generating function of st1077, by the exponential formula over cycle types.

    A cycle of length L >= 2 weighs q^(L+1), or q^(L-1) when it holds 1.  With
    R_j the sum over S_j of those weights, no cycle holding 1, and the cycle of
    the least value chosen first in (j-1)!/(j-L)! ways,
    R_j = R_(j-1) + sum_(L=2..j) (j-1)!/(j-L)! q^(L+1) R_(j-L); the sum for
    S_n is the same with q^(L-1) and R_0, ..., R_(n-1).
    """

    def grow(r: list[IntPolynomial], j: int, bonus: int) -> IntPolynomial:
        out = r[j - 1]
        for length in range(2, j + 1):
            out = out + r[j - length].shift(length + bonus) * perm(j - 1, length - 1)
        return out

    r = [IntPolynomial((1,), 0)]
    for j in range(1, n):
        r.append(grow(r, j, 1))
    return grow(r, n, -1) if n else r[0]
