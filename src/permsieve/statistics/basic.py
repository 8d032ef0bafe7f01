"""Inversion, descent, and run statistics on one-line notation."""

from __future__ import annotations

from functools import partial
from math import comb
from typing import Callable

from ..errors import PermsieveError, UsageError
from ..permutations import Perm
from ..polynomials import IntPolynomial
from .closed_forms import blocks_gf


def placed_above(mask: int, v: int) -> int:
    """How many values above v a transfer-matrix mask marks as placed (bit w - 1 for w)."""
    return (mask >> v).bit_count()


def placed_below(mask: int, v: int) -> int:
    """How many values below v a transfer-matrix mask marks as placed."""
    return (mask & ((1 << (v - 1)) - 1)).bit_count()


def placed_between(mask: int, lo: int, hi: int) -> int:
    """How many values strictly between lo and hi a transfer-matrix mask marks as placed."""
    return placed_below(mask, hi) - placed_below(mask, lo + 1)


def walk(step: Callable, p: Perm) -> int:
    """The sum of a transfer-matrix ``step``'s increments along p, from state 0."""
    n, mask, state, total = len(p), 0, 0, 0
    for i, v in enumerate(p, 1):
        state, inc = step(mask, state, v, i, n)
        mask |= 1 << (v - 1)
        total += inc
    return total


def walk_gf(step: Callable, n: int) -> IntPolynomial:
    """The sum over S_n of q**walk(step, p), one layer of positions at a time.

    Each layer keeps, per (placed-value mask, step state), the distribution of
    the statistic so far: 2^n masks times the few states a step keeps, where
    enumeration visits n! permutations.
    """
    values = range(1, n + 1)
    layer: dict[tuple, dict[int, int]] = {(0, 0): {0: 1}}
    for i in values:
        nxt: dict[tuple, dict[int, int]] = {}
        for (mask, state), dist in layer.items():
            for v in values:
                bit = 1 << (v - 1)
                if mask & bit:
                    continue
                new_state, inc = step(mask, state, v, i, n)
                target = nxt.setdefault((mask | bit, new_state), {})
                for e, c in dist.items():
                    target[e + inc] = target.get(e + inc, 0) + c
        layer = nxt
    return IntPolynomial.from_terms(term for dist in layer.values() for term in dist.items())


def inversions(p: Perm) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[j] < p[i])


def descent_set(p: Perm) -> tuple[int, ...]:
    """1-based indices i with p_i > p_{i+1}."""
    return tuple(i for i in range(1, len(p)) if p[i - 1] > p[i])


def descents(p: Perm) -> int:
    return len(descent_set(p))


def descents_step(mask: int, prev: int, v: int, i: int, n: int):
    """Transfer-matrix step for :func:`descents`; the state is the previous value."""
    return v, int(prev > v)


eulerian_gf = partial(walk_gf, descents_step)


def major_index(p: Perm) -> int:
    return sum(descent_set(p))


def comajor_index(p: Perm) -> int:
    n = len(p)
    return sum(n - i for i in descent_set(p))


def width_k_descents(p: Perm, k: int) -> int:
    """#{i : p_i > p_{i+k}}; a descent is the width-1 case."""
    n = len(p)
    if k >= n:
        raise UsageError(f"width {k} needs n > k, got n = {n}")
    return sum(1 for i in range(n - k) if p[i] > p[i + k])


def width_k_descents_gf(n: int, k: int) -> IntPolynomial:
    """Generating function of :func:`width_k_descents`: descents inside the k chains of positions mod k."""
    return blocks_gf(n, [len(range(r, n, k)) for r in range(k)], eulerian_gf)


def odd_descents(p: Perm) -> int:
    return sum(1 for i in descent_set(p) if i % 2 == 1)


def even_descents(p: Perm) -> int:
    return sum(1 for i in descent_set(p) if i % 2 == 0)


def monotone_switches(p: Perm) -> int:
    """Number of times the one-line word turns from rising to falling or back."""
    signs = [p[i] < p[i + 1] for i in range(len(p) - 1)]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def monotone_switches_step(mask: int, state, v: int, i: int, n: int):
    """Transfer-matrix step; the state (previous value, whether the last pair rose) starts as (0, None)."""
    prev, rose = state or (0, None)
    up = prev < v if prev else None
    return (v, up), int(rose is not None and up != rose)


def up_down_runs(p: Perm) -> int:
    """Maximal monotone consecutive runs, plus one when the word opens with a descent."""
    n = len(p)
    if n == 1:
        return 1
    runs = 1 + monotone_switches(p)
    return runs + (1 if p[0] > p[1] else 0)


def up_down_runs_step(mask: int, state, v: int, i: int, n: int):
    """One run for the first entry and one for an opening descent, then one per switch."""
    new_state, switched = monotone_switches_step(mask, state, v, i, n)
    return new_state, switched + int(i == 1) + int(i == 2 and state[0] > v)


def inversions_within_distance(p: Perm, k: int) -> int:
    """Inversions (i, i+m) over all 1 <= m <= k."""
    n = len(p)
    return sum(
        1 for m in range(1, k + 1) for i in range(n - m) if p[i] > p[i + m]
    )


def inversions_within_distance_step(k: int):
    """Transfer-matrix step for :func:`inversions_within_distance`; the state is the last k values."""

    def step(mask: int, window, v: int, i: int, n: int):
        window = window or (0,) * k
        return window[1:] + (v,), sum(w > v for w in window)

    return step


def even_inversions(p: Perm) -> int:
    """Inversions whose two positions share a parity."""
    n = len(p)
    return sum(
        1
        for i in range(n)
        for j in range(i + 2, n, 2)
        if p[j] < p[i]
    )


def odd_inversions(p: Perm) -> int:
    """Inversions whose two positions have opposite parities."""
    n = len(p)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n, 2)
        if p[j] < p[i]
    )


def _above_by_parity(mask: int, odd: int, v: int, i: int) -> tuple[int, int, int]:
    """For v placed at position i, ``odd`` the placed values at odd positions: the new
    ``odd``, and the placed values above v at positions of the other and of the same parity."""
    even = mask & ~odd
    if i % 2:
        return odd | 1 << (v - 1), placed_above(even, v), placed_above(odd, v)
    return odd, placed_above(odd, v), placed_above(even, v)


def odd_inversions_step(mask: int, odd: int, v: int, i: int, n: int):
    """Transfer-matrix step; the state is the set of values placed at odd positions, a
    subset of the mask, and v pairs with the placed values above it at the other parity."""
    odd, other, _ = _above_by_parity(mask, odd, v, i)
    return odd, other


def visible_inversions(p: Perm) -> int:
    """Pairs i < j with p_j <= min(i, p_i)."""
    n = len(p)
    return sum(
        1
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if p[j - 1] <= min(i, p[i - 1])
    )


def visible_inversions_step(mask: int, state: int, v: int, i: int, n: int):
    """Transfer-matrix step: v at position i pairs with the later values w <= min(i, v - 1),
    which are the unplaced ones; no state."""
    m = min(i, v - 1)
    return state, m - placed_below(mask, m + 1)


def invisible_inversions(p: Perm) -> int:
    """Inversions (i, j) with p_i > p_j > i."""
    n = len(p)
    return sum(
        1
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if p[i - 1] > p[j - 1] > i
    )


def invisible_inversions_step(mask: int, state: int, v: int, i: int, n: int):
    """Transfer-matrix step: v at position i pairs with the unplaced values strictly
    between i and v; no state."""
    if v <= i + 1:
        return state, 0
    return state, v - i - 1 - placed_between(mask, i, v)


def bialternating_inversion_raw(p: Perm) -> int:
    """sum over y < x of (-1)^(x+y) * sign(p_x - p_y)."""
    n = len(p)
    total = 0
    for y in range(1, n + 1):
        for x in range(y + 1, n + 1):
            s = 1 if p[x - 1] > p[y - 1] else -1
            total += s if (x + y) % 2 == 0 else -s
    return total


def bialternating(p: Perm) -> int:
    """Standardized bi-alternating inversion number: (raw + floor(n/2)^2) / 2."""
    n = len(p)
    value = bialternating_inversion_raw(p) + (n // 2) ** 2
    if value % 2:
        raise PermsieveError(f"bi-alternating sum {value} is odd for {p}")
    return value // 2


def bialternating_step(mask: int, odd: int, v: int, i: int, n: int):
    """Transfer-matrix step for C(floor(n/2), 2) + odd inversions - even inversions.

    That is the standardized number: a same-parity pair adds +1 to the raw sum
    unless it is an inversion, an opposite-parity pair -1 unless it is one, and
    there are floor(n/2) more opposite-parity pairs than same-parity ones.  The
    state is as in :func:`odd_inversions_step`; the constant is paid at position n.
    """
    odd, other, same = _above_by_parity(mask, odd, v, i)
    return odd, other - same + (comb(n // 2, 2) if i == n else 0)


def descent_variant_weighted(p: Perm) -> int:
    """sum of i*(n-i) over descents i."""
    n = len(p)
    return sum(i * (n - i) for i in descent_set(p))


def descent_variant_minus_inversions(p: Perm) -> int:
    return descent_variant_weighted(p) - inversions(p)


def descent_variant_minus_inversions_step(mask: int, prev: int, v: int, i: int, n: int):
    """Transfer-matrix step; the state is the previous value (0 before position 1)."""
    d = i - 1
    return v, (d * (n - d) if prev > v else 0) - placed_above(mask, v)
