"""Statistics read off the cycle diagram: crossings, nestings, cycle descents.

A crossing of sigma is a pair (i, j) with i < j <= sigma(i) < sigma(j) or
sigma(i) < sigma(j) < i < j; a nesting is a pair with j < i <= sigma(i) <
sigma(j) or sigma(j) < sigma(i) < i < j.  Both count ordered pairs of
distinct points.
"""

from __future__ import annotations

from ..permutations import Perm, cycle_form, fundamental_transform
from .basic import placed_above, placed_below


def crossings(p: Perm) -> int:
    """Crossings counted from their left point i.

    When sigma(i) > i the right point j lies in the window i < j <= sigma(i)
    and holds a larger value; when sigma(i) < i it lies anywhere after i and
    holds a value strictly between sigma(i) and i.  A fixed point starts none.
    """
    total = 0
    for i, v in enumerate(p, 1):
        if v > i:
            for w in p[i:v]:
                if w > v:
                    total += 1
        elif v < i:
            for w in p[i:]:
                if v < w < i:
                    total += 1
    return total


def nestings(p: Perm) -> int:
    n = len(p)
    total = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j < i <= p[i - 1] < p[j - 1]:
                total += 1
            elif i < j and p[j - 1] < p[i - 1] < i < j:
                total += 1
    return total


def nestings_step(mask: int, state: int, v: int, i: int, n: int):
    """Transfer-matrix step; no state.

    A nesting with v at a weak excedance (i <= v) has its other point
    earlier, holding a larger value; one with v at a deficiency (v < i) has
    its other point later, holding a smaller value.
    """
    return state, placed_above(mask, v) if v >= i else v - 1 - placed_below(mask, v)


def cycle_descents(p: Perm) -> int:
    """Descents inside cycles written with each cycle starting at its minimum.

    >>> cycle_descents((4, 5, 1, 2, 3))  # the cycle (1 4 2 5 3)
    2
    """
    total = 0
    for cyc in cycle_form(p):
        total += sum(1 for a, b in zip(cyc, cyc[1:]) if a > b)
    return total


def arrow_12_patterns(p: Perm) -> int:
    """Ascents (p_i, p_{i+1}) that the fundamental transform maps onto each other.

    Counts ascents whose two letters end up consecutive inside one cycle of
    the image, i.e. sigma(p_i) = p_{i+1} for sigma the fundamental transform
    of p; equivalently, ascents whose right letter is not a left-to-right
    maximum.
    """
    sigma = fundamental_transform(p)
    return sum(
        1
        for i in range(len(p) - 1)
        if p[i] < p[i + 1] and sigma[p[i] - 1] == p[i + 1]
    )


def arrow_12_patterns_step(mask: int, prev: int, v: int, i: int, n: int):
    """Transfer-matrix step: an ascent into v counts unless v is a left-to-right maximum;
    the state is the previous value (0 before position 1)."""
    return v, int(0 < prev < v and placed_above(mask, v) > 0)
