"""Classical and vincular pattern occurrence counting.

A vincular pattern glues designated neighbouring pattern letters so they must
sit in adjacent positions of the host permutation; adjacency is on positions,
never on values.  The dash notation ``32-1`` means the letters 3 and 2 are
glued and the 1 may appear anywhere later, so an occurrence consists of
positions (i, i+1, k) with k > i+1 and sigma_i > sigma_{i+1} > sigma_k.

Each of the eight registered pattern statistics is one entry of
:data:`PATTERNS`: the patterns it counts, in dash notation, and one
transfer-matrix step that counts, when a value is placed, the still unplaced
values in the right window: those all come later.  The registry names the
statistic after those patterns and evaluates it by walking the step along p.
The brute force :func:`pattern_count` is their definition and their test
oracle.
"""

from __future__ import annotations

from itertools import combinations

from ..errors import UsageError
from ..permutations import Perm, check_permutation
from .basic import placed_above, placed_below, placed_between


def pattern_count(p: Perm, text: str) -> int:
    """Number of occurrences in p of the pattern ``text``, in dash notation.

    A text without a dash is a classical pattern.  Every tuple of positions
    is tried: in a vincular pattern the letters of each dash-free block must
    sit at adjacent positions, and the values there must be order-isomorphic
    to the letters.

    >>> pattern_count((3, 2, 4, 1), "32-1")
    1
    >>> pattern_count((4, 2, 3, 1), "32-1")
    1
    """
    blocks = text.split("-")
    if not all(block and set(block) <= set("123456789") for block in blocks):
        raise UsageError(f"a pattern is dash-separated blocks of the letters 1..9, got {text!r}")
    letters = check_permutation([int(ch) for ch in "".join(blocks)])
    glued, start = [], 0  # the letter indices t glued to t + 1
    if len(blocks) > 1:
        for block in blocks:
            glued += range(start, start + len(block) - 1)
            start += len(block)
    rising = sorted(range(len(letters)), key=letters.__getitem__)  # order-isomorphic: rising under 1, 2, ..., k
    return sum(
        all(pos[t + 1] == pos[t] + 1 for t in glued)
        and all(p[pos[a]] < p[pos[b]] for a, b in zip(rising, rising[1:]))
        for pos in combinations(range(len(p)), len(letters))
    )


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


# The one definition of each registered pattern statistic: the patterns it
# counts, which name it and define it, and its step, built once.
PATTERNS = {
    "st356": (("13-2",), glued_then_later_step((1, 3, 2))),
    "st357": (("12-3",), glued_then_later_step((1, 2, 3))),
    "st358": (("31-2",), glued_then_later_step((3, 1, 2))),
    "st360": (("32-1",), glued_then_later_step((3, 2, 1))),
    "st423": (("123", "132"), choose_two_step(left=False, larger=True)),
    "st428": (("123", "213"), choose_two_step(left=True, larger=False)),
    "st436": (("231", "321"), choose_two_step(left=True, larger=True)),
    "st437": (("312", "321"), choose_two_step(left=False, larger=False)),
}
