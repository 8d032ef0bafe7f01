"""Statistics built from partial extrema and from midpoints of length-3 runs."""

from __future__ import annotations

from ..permutations import Perm, cycle_form, left_to_right_maxima_positions
from .basic import placed_below


def l2r_min_positions(p: Perm) -> frozenset[int]:
    out, best = [], len(p) + 1
    for i, v in enumerate(p, start=1):
        if v < best:
            out.append(i)
            best = v
    return frozenset(out)


def r2l_max_positions(p: Perm) -> frozenset[int]:
    out, best = [], 0
    for i in range(len(p), 0, -1):
        if p[i - 1] > best:
            out.append(i)
            best = p[i - 1]
    return frozenset(out)


def r2l_min_positions(p: Perm) -> frozenset[int]:
    out, best = [], len(p) + 1
    for i in range(len(p), 0, -1):
        if p[i - 1] < best:
            out.append(i)
            best = p[i - 1]
    return frozenset(out)


def count_l2r_maxima(p: Perm) -> int:
    return len(left_to_right_maxima_positions(p))


def count_l2r_minima(p: Perm) -> int:
    return len(l2r_min_positions(p))


def count_r2l_maxima(p: Perm) -> int:
    return len(r2l_max_positions(p))


def count_r2l_minima(p: Perm) -> int:
    return len(r2l_min_positions(p))


def small_values_to_the_right(p: Perm) -> int:
    """Values v >= 2 whose smaller values all sit to the right of v."""
    n = len(p)
    pos = {v: i for i, v in enumerate(p, start=1)}
    count = 0
    for v in range(2, n + 1):
        if all(pos[w] > pos[v] for w in range(1, v)):
            count += 1
    return count


def cycle_count(p: Perm) -> int:
    return len(cycle_form(p))


def absolute_length(p: Perm) -> int:
    """n minus the number of cycles."""
    return len(p) - cycle_count(p)


def non_l2r_maxima(p: Perm) -> int:
    return len(p) - count_l2r_maxima(p)


def extrema_union(p: Perm) -> int:
    """Indices that are left-to-right maxima or right-to-left minima."""
    return len(frozenset(left_to_right_maxima_positions(p)) | r2l_min_positions(p))


def extrema_xor(p: Perm) -> int:
    """Indices that are left-to-right maxima or right-to-left minima, not both."""
    return len(frozenset(left_to_right_maxima_positions(p)) ^ r2l_min_positions(p))


def extrema_sum(p: Perm) -> int:
    """#(left-to-right maxima) + #(right-to-left minima)."""
    return count_l2r_maxima(p) + count_r2l_minima(p)


def _prefix_maxima(p: Perm) -> list[int]:
    """prefix[j] = max of p_1..p_{j-1} (0 when empty), 1-based j."""
    out = [0] * (len(p) + 1)
    for j in range(1, len(p) + 1):
        out[j] = max(out[j - 1], p[j - 2]) if j > 1 else 0
    return out


def _suffix_minima(p: Perm) -> list[int]:
    """suffix[j] = min of p_{j+1}..p_n (n+1 when empty), 1-based j."""
    n = len(p)
    out = [n + 1] * (n + 2)
    for j in range(n, 0, -1):
        out[j] = min(out[j + 1], p[j]) if j < n else n + 1
    return out


def decreasing_midpoints(p: Perm) -> frozenset[int]:
    """Indices j admitting i < j < k with p_i > p_j > p_k."""
    n = len(p)
    pre = _prefix_maxima(p)
    suf = _suffix_minima(p)
    return frozenset(j for j in range(1, n + 1) if pre[j] > p[j - 1] > suf[j])


def count_decreasing_midpoints(p: Perm) -> int:
    return len(decreasing_midpoints(p))


def count_increasing_midpoints(p: Perm) -> int:
    """Indices j admitting i < j < k with p_i < p_j < p_k."""
    n = len(p)
    pre_min = [0] * (n + 1)
    for j in range(1, n + 1):
        pre_min[j] = min(pre_min[j - 1], p[j - 2]) if j > 2 else (p[0] if j == 2 else n + 1)
    suf_max = [0] * (n + 2)
    for j in range(n, 0, -1):
        suf_max[j] = max(suf_max[j + 1], p[j]) if j < n else 0
    return sum(1 for j in range(1, n + 1) if pre_min[j] < p[j - 1] < suf_max[j])


def weak_excedance_decreasing_midpoints(p: Perm) -> int:
    """Decreasing midpoints j that are also weak excedances (p_j >= j)."""
    return sum(1 for j in decreasing_midpoints(p) if p[j - 1] >= j)


def distinct_positions_of_3_in_132(p: Perm) -> int:
    """Distinct middle positions j carrying the largest letter of a 132 occurrence."""
    n = len(p)
    pre_min = n + 1
    count = 0
    for j in range(1, n + 1):
        if j >= 2 and any(pre_min < p[k - 1] < p[j - 1] for k in range(j + 1, n + 1)):
            count += 1
        pre_min = min(pre_min, p[j - 1])
    return count


def distinct_positions_of_3_in_132_step(mask: int, state: int, v: int, i: int, n: int):
    """Transfer-matrix step: v plays the 3 when an unplaced value lies strictly
    between the smallest placed value and v; no state."""
    low = (mask & -mask).bit_length()
    return state, int(mask != 0 and v - low > placed_below(mask, v))


def distinct_positions_of_2_in_213(p: Perm) -> int:
    """Distinct first positions i whose letter plays the 2 of a 213 occurrence."""
    n = len(p)
    count = 0
    for i in range(1, n + 1):
        seen_smaller = False
        for t in range(i + 1, n + 1):
            if p[t - 1] < p[i - 1]:
                seen_smaller = True
            elif seen_smaller and p[t - 1] > p[i - 1]:
                count += 1
                break
    return count
