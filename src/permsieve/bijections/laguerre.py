"""Noncrossing arc diagrams of permutations and the vertical reflection map.

Every maximal decreasing run of the one-line word contributes one arc per
adjacent pair of its letters.  When the points 1..n are lined up vertically,
a value lying strictly between the endpoints of an arc sits on the left of
that arc exactly when its position precedes the arc's descent, and on the
right otherwise; this side data makes the diagram noncrossing and determines
the permutation uniquely.  Reflecting the diagram swaps every side marker,
and decoding the reflected diagram gives an involution on S_n with 2^(n-1)
fixed points (the diagrams whose arcs only join adjacent values).

Reflection keeps every arc, so :func:`invert_laguerre_heap` works on p
directly: the image has the same maximal decreasing runs in another order,
and every side constraint reverses direction.  Those constraints and the
ascent between consecutive runs fix the order.  A smallest-head-first
placement finds it without backtracking on all of S_1..S_8 (checked against
the oracle); a dead end is a fault and raises :class:`PermsieveError`.  The
diagram objects and the encode/reflect/decode functions stay as its oracle,
and :func:`laguerre_decode` keeps its backtracking search, which raises
:class:`UsageError` for a diagram that no permutation realizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PermsieveError, UsageError
from ..permutations import Perm, check_permutation

Arc = tuple[int, int]


@dataclass(frozen=True)
class ArcDiagram:
    """Arcs (a, b) with a > b, each with the set of values lying to its left."""

    n: int
    left_sides: dict[Arc, frozenset[int]]

    def __post_init__(self) -> None:
        uppers = [a for a, _ in self.left_sides]
        lowers = [b for _, b in self.left_sides]
        if len(set(uppers)) != len(uppers) or len(set(lowers)) != len(lowers):
            raise UsageError("a value may start and end at most one arc each")
        for (a, b), left in self.left_sides.items():
            if not (1 <= b < a <= self.n):
                raise UsageError(f"arc {(a, b)} out of range")
            if not left <= frozenset(range(b + 1, a)):
                raise UsageError(f"side data of arc {(a, b)} names outside values")


def laguerre_encode(p: Perm) -> ArcDiagram:
    """Arc diagram of a permutation: one arc per descent inside a decreasing run."""
    n = len(p)
    pos = {v: i for i, v in enumerate(p, start=1)}
    left_sides: dict[Arc, frozenset[int]] = {}
    for i in range(1, n):
        a, b = p[i - 1], p[i]
        if a > b:
            left_sides[(a, b)] = frozenset(
                v for v in range(b + 1, a) if pos[v] < i
            )
    return ArcDiagram(n, left_sides)


def laguerre_reflect(d: ArcDiagram) -> ArcDiagram:
    """Flip every side marker: values left of an arc move to its right."""
    return ArcDiagram(
        d.n,
        {
            (a, b): frozenset(range(b + 1, a)) - left
            for (a, b), left in d.left_sides.items()
        },
    )


def _chains(d: ArcDiagram) -> list[tuple[int, ...]]:
    """Maximal decreasing runs encoded by the arcs, plus singleton values."""
    succ = {a: b for a, b in d.left_sides}
    lowers = set(succ.values())
    chains = []
    in_chain: set[int] = set()
    for head in sorted(succ):
        if head in lowers:
            continue
        run = [head]
        while run[-1] in succ:
            run.append(succ[run[-1]])
        chains.append(tuple(run))
        in_chain.update(run)
    for v in range(1, d.n + 1):
        if v not in in_chain:
            chains.append((v,))
    return chains


def laguerre_decode(d: ArcDiagram) -> Perm:
    """The unique permutation whose arc diagram is ``d``.

    The runs are the chains of arcs; their left-to-right order is pinned down
    by the side data (a value left of an arc must lie in an earlier run) and
    by maximality (consecutive runs meet in an ascent).  The order is found
    by a smallest-head-first search with backtracking; valid diagrams admit
    exactly one completion.
    """
    chains = _chains(d)
    run_of = {v: idx for idx, run in enumerate(chains) for v in run}
    before: list[set[int]] = [set() for _ in chains]  # before[r] must precede r
    for (a, b), left in d.left_sides.items():
        r = run_of[a]
        for v in range(b + 1, a):
            s = run_of[v]
            if v in left:
                before[r].add(s)
            else:
                before[s].add(r)

    order: list[int] = []
    placed = [False] * len(chains)

    def search(last_value: int) -> bool:
        if len(order) == len(chains):
            return True
        candidates = [
            idx
            for idx, run in enumerate(chains)
            if not placed[idx]
            and run[0] > last_value
            and all(placed[s] for s in before[idx])
        ]
        for idx in sorted(candidates, key=lambda t: chains[t][0]):
            placed[idx] = True
            order.append(idx)
            if search(chains[idx][-1]):
                return True
            placed[idx] = False
            order.pop()
        return False

    if not search(0):
        raise UsageError("no permutation realizes this arc diagram")
    word: list[int] = []
    for idx in order:
        word.extend(chains[idx])
    return check_permutation(word)


def invert_laguerre_heap(p: Perm) -> Perm:
    """Reflect the arc diagram of p and decode, without building either diagram.

    Equal to ``laguerre_decode(laguerre_reflect(laguerre_encode(p)))`` (the
    test oracle).  The image keeps the maximal decreasing runs of p; for an
    arc (a, b) and a value v strictly between b and a, v's run goes before
    a's run when v sits right of a in p, and after it otherwise.  The runs
    are placed smallest admissible head first; a dead end, which the
    oracle check rules out on S_1..S_8, raises :class:`PermsieveError`.

    >>> invert_laguerre_heap((1, 10, 12, 2, 7, 6, 9, 8, 5, 11, 4, 3))
    (1, 11, 4, 3, 9, 8, 5, 7, 6, 12, 2, 10)
    """
    n = len(p)
    runs: list[list[int]] = []
    run_of = [0] * (n + 1)
    pos = [0] * (n + 1)
    for i, v in enumerate(p):
        if i and v < p[i - 1]:
            runs[-1].append(v)
        else:
            runs.append([v])
        run_of[v] = len(runs) - 1
        pos[v] = i
    before = [0] * len(runs)  # bit s of before[r]: run s must precede run r
    for i in range(n - 1):
        a, b = p[i], p[i + 1]
        if a > b:
            r = run_of[a]
            for v in range(b + 1, a):
                s = run_of[v]
                if pos[v] > i:
                    before[r] |= 1 << s
                else:
                    before[s] |= 1 << r
    by_head = sorted(range(len(runs)), key=lambda r: runs[r][0])
    placed = 0
    last = 0
    word: list[int] = []
    for _ in runs:
        for r in by_head:
            if not placed >> r & 1 and runs[r][0] > last and not before[r] & ~placed:
                break
        else:
            raise PermsieveError(f"no order of the runs of {p} realizes the reflected diagram")
        placed |= 1 << r
        word.extend(runs[r])
        last = word[-1]
    return tuple(word)
