"""Classical and vincular pattern occurrence counting.

A vincular pattern glues designated neighbouring pattern letters so they must
sit in adjacent positions of the host permutation; adjacency is on positions,
never on values.  The dash notation ``32-1`` means the letters 3 and 2 are
glued and the 1 may appear anywhere later, so an occurrence consists of
positions (i, i+1, k) with k > i+1 and sigma_i > sigma_{i+1} > sigma_k.

Each of the eight registered pattern statistics is one transfer-matrix step
(:data:`STEPS`) that counts, when a value is placed, the still unplaced values
in the right window: those all come later.  The registry evaluates it by
walking that step along p.  The generic recursive :func:`pattern_count` is
their definition and their test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..permutations import Perm, check_permutation
from .basic import placed_above, placed_below, placed_between


@dataclass(frozen=True)
class PatternSpec:
    """A pattern of [k] plus the set of glued neighbour pairs.

    ``adjacent`` holds 1-based letter indices t such that pattern positions
    t and t+1 must be adjacent in the host.  The pattern is classical exactly
    when it is empty, and vincular otherwise.
    """

    pattern: tuple[int, ...]
    adjacent: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        check_permutation(self.pattern)
        if len(self.pattern) > 4:
            raise ValueError("patterns longer than 4 are not supported")
        if any(not 1 <= t < len(self.pattern) for t in self.adjacent):
            raise ValueError("adjacency indices must name neighbouring letter pairs")

    @staticmethod
    def from_string(text: str) -> "PatternSpec":
        """Parse dash notation: ``"132"`` is classical, ``"32-1"`` glues 3 and 2.

        >>> PatternSpec.from_string("32-1")
        PatternSpec(pattern=(3, 2, 1), adjacent=frozenset({1}))
        """
        blocks = text.split("-")
        letters = [int(ch) for ch in "".join(blocks)]
        if len(blocks) == 1:
            return PatternSpec(tuple(letters))
        adjacent = set()
        pos = 0
        for block in blocks:
            for t in range(pos + 1, pos + len(block)):
                adjacent.add(t)
            pos += len(block)
        return PatternSpec(tuple(letters), frozenset(adjacent))

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


def glued_then_later_step(pattern: tuple[int, int, int]):
    """Transfer-matrix step for the vincular pattern ``xy-z`` given as (x, y, z).

    The state is the previous value (0 before position 1).  Placing y's value
    v right after x's value completes the glued pair, and every occurrence it
    starts takes its z from the values still unplaced, in the window that z's
    rank names: below both, between them, or above both.
    """
    x, y, z = pattern

    def step(mask: int, prev: int, v: int, i: int, n: int):
        if not prev or (prev < v) != (x < y):
            return v, 0
        lo, hi = (prev, v) if prev < v else (v, prev)
        if z == 1:
            return v, lo - 1 - placed_below(mask, lo)
        if z == 2:
            return v, hi - lo - 1 - placed_between(mask, lo, hi)
        return v, n - hi - placed_above(mask, hi)

    return step


def choose_two_step(left: bool, larger: bool):
    """Transfer-matrix step summing C(m, 2) over positions, no state.

    m counts the entries on one side of position i that are larger (or
    smaller) than its value v: the placed values when ``left``, else the
    unplaced ones.  Two classical length-3 patterns sharing the position and
    rank of their extreme letter are counted together this way: 123 and 132
    both start with their smallest letter, so their occurrences are the pairs
    of larger entries to the right of each position.
    """

    def step(mask: int, state: int, v: int, i: int, n: int):
        if larger:
            m = placed_above(mask, v) if left else n - v - placed_above(mask, v)
        else:
            m = placed_below(mask, v) if left else v - 1 - placed_below(mask, v)
        return state, m * (m - 1) // 2

    return step


# The one definition of each registered pattern statistic: its step, built once.
STEPS = {
    "st356": glued_then_later_step((1, 3, 2)),
    "st357": glued_then_later_step((1, 2, 3)),
    "st358": glued_then_later_step((3, 1, 2)),
    "st360": glued_then_later_step((3, 2, 1)),
    "st423": choose_two_step(left=False, larger=True),
    "st428": choose_two_step(left=True, larger=False),
    "st436": choose_two_step(left=True, larger=True),
    "st437": choose_two_step(left=False, larger=False),
}
