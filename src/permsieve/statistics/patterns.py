"""Classical and vincular pattern occurrence counting.

A vincular pattern glues designated neighbouring pattern letters so they must
sit in adjacent positions of the host permutation; adjacency is on positions,
never on values.  The dash notation ``32-1`` means the letters 3 and 2 are
glued and the 1 may appear anywhere later, so an occurrence consists of
positions (i, i+1, k) with k > i+1 and sigma_i > sigma_{i+1} > sigma_k.

The registered pattern statistics use direct O(n^2) kernels; the generic
recursive :func:`pattern_count` is their test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..permutations import Perm, check_permutation


@dataclass(frozen=True)
class PatternSpec:
    """A pattern of [k] plus the set of glued neighbour pairs.

    ``adjacent`` holds 1-based letter indices t such that pattern positions
    t and t+1 must be adjacent in the host; empty for classical patterns.
    """

    kind: str
    pattern: tuple[int, ...]
    adjacent: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        check_permutation(self.pattern)
        if len(self.pattern) > 4:
            raise ValueError("patterns longer than 4 are not supported")
        if self.kind not in ("classical", "vincular"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.kind == "classical" and self.adjacent:
            raise ValueError("classical patterns carry no adjacency constraints")
        if any(not 1 <= t < len(self.pattern) for t in self.adjacent):
            raise ValueError("adjacency indices must name neighbouring letter pairs")

    @staticmethod
    def from_string(text: str) -> "PatternSpec":
        """Parse dash notation: ``"132"`` is classical, ``"32-1"`` glues 3 and 2.

        >>> PatternSpec.from_string("32-1")
        PatternSpec(kind='vincular', pattern=(3, 2, 1), adjacent=frozenset({1}))
        """
        blocks = text.split("-")
        letters = [int(ch) for ch in "".join(blocks)]
        if len(blocks) == 1:
            return PatternSpec("classical", tuple(letters))
        adjacent = set()
        pos = 0
        for block in blocks:
            for t in range(pos + 1, pos + len(block)):
                adjacent.add(t)
            pos += len(block)
        return PatternSpec("vincular", tuple(letters), frozenset(adjacent))

    def blocks(self) -> tuple[int, ...]:
        """Lengths of the maximal glued letter runs, left to right."""
        lengths = []
        run = 1
        for t in range(1, len(self.pattern)):
            if t in self.adjacent:
                run += 1
            else:
                lengths.append(run)
                run = 1
        lengths.append(run)
        return tuple(lengths)


def pattern_count(p: Perm, spec: PatternSpec) -> int:
    """Number of occurrences of ``spec`` in p.

    >>> pattern_count((3, 2, 4, 1), PatternSpec.from_string("32-1"))
    1
    >>> pattern_count((4, 2, 3, 1), PatternSpec.from_string("32-1"))
    1
    """
    n = len(p)
    pat = spec.pattern
    block_lengths = spec.blocks()
    count = 0

    def order_matches(positions: list[int]) -> bool:
        vals = [p[i - 1] for i in positions]
        k = len(vals)
        for a in range(k):
            for b in range(a + 1, k):
                if (vals[a] < vals[b]) != (pat[a] < pat[b]):
                    return False
        return True

    def place(block: int, start_min: int, positions: list[int]) -> None:
        nonlocal count
        if block == len(block_lengths):
            count += order_matches(positions)
            return
        length = block_lengths[block]
        tail = sum(block_lengths[block + 1 :])
        for s in range(start_min, n - length - tail + 2):
            place(block + 1, s + length, positions + list(range(s, s + length)))

    place(0, 1, [])
    return count


def classical_pattern_count(p: Perm, spec: PatternSpec) -> int:
    if spec.kind != "classical":
        raise ValueError("classical spec expected")
    return pattern_count(p, spec)


def vincular_pattern_count(p: Perm, spec: PatternSpec) -> int:
    if spec.kind != "vincular":
        raise ValueError("vincular spec expected")
    return pattern_count(p, spec)


def _glued_then_later(p: Perm, pattern: tuple[int, int, int]) -> int:
    """Occurrences of the vincular pattern ``xy-z`` given as (x, y, z), in O(n^2).

    For each adjacent pair (p_i, p_{i+1}) ordered like (x, y), count the
    later entries lying in the value window that z's rank names: below both,
    between them, or above both.
    """
    x, y, z = pattern
    total = 0
    for i in range(len(p) - 2):
        a, b = p[i], p[i + 1]
        if (a < b) != (x < y):
            continue
        lo, hi = (a, b) if a < b else (b, a)
        if z == 1:
            total += sum(w < lo for w in p[i + 2 :])
        elif z == 2:
            total += sum(lo < w < hi for w in p[i + 2 :])
        else:
            total += sum(w > hi for w in p[i + 2 :])
    return total


def occurrences_13_2(p: Perm) -> int:
    """
    >>> occurrences_13_2((1, 3, 2, 4))
    1
    """
    return _glued_then_later(p, (1, 3, 2))


def occurrences_12_3(p: Perm) -> int:
    """
    >>> occurrences_12_3((1, 2, 3, 4))
    3
    """
    return _glued_then_later(p, (1, 2, 3))


def occurrences_31_2(p: Perm) -> int:
    """
    >>> occurrences_31_2((3, 1, 4, 2))
    1
    """
    return _glued_then_later(p, (3, 1, 2))


def occurrences_32_1(p: Perm) -> int:
    """
    >>> occurrences_32_1((3, 2, 4, 1))
    1
    """
    return _glued_then_later(p, (3, 2, 1))


def _choose_two_sum(p: Perm, left: bool, larger: bool) -> int:
    """Sum over positions of C(m, 2), m the entries on one side larger (or smaller).

    Two classical length-3 patterns sharing the position and rank of their
    extreme letter are counted together this way in O(n^2): 123 and 132 both
    start with their smallest letter, so their occurrences are the pairs of
    larger entries to the right of each position.
    """
    total = 0
    for i, v in enumerate(p):
        side = p[:i] if left else p[i + 1 :]
        m = sum(w > v for w in side) if larger else sum(w < v for w in side)
        total += m * (m - 1) // 2
    return total


def occurrences_123_or_132(p: Perm) -> int:
    """
    >>> occurrences_123_or_132((1, 3, 2, 4))
    3
    """
    return _choose_two_sum(p, left=False, larger=True)


def occurrences_123_or_213(p: Perm) -> int:
    """
    >>> occurrences_123_or_213((2, 1, 4, 3))
    2
    """
    return _choose_two_sum(p, left=True, larger=False)


def occurrences_231_or_321(p: Perm) -> int:
    """
    >>> occurrences_231_or_321((4, 2, 3, 1))
    3
    """
    return _choose_two_sum(p, left=True, larger=True)


def occurrences_312_or_321(p: Perm) -> int:
    """
    >>> occurrences_312_or_321((4, 1, 3, 2))
    3
    """
    return _choose_two_sum(p, left=False, larger=False)
