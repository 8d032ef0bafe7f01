"""Core operations on permutations of [n] = {1, ..., n}.

A permutation is stored as a tuple in one-line notation with 1-based values:
``sigma = (s_1, ..., s_n)`` represents the bijection i -> s_i.  All functions
here are pure; tuples are never mutated.

Text formats: a digit word such as ``"2431"`` is accepted only for n <= 9;
comma-separated values such as ``"2,4,3,1"`` work for any n.  Emitters produce
the digit word for n <= 9 and comma-separated values otherwise, so every
permutation round-trips unambiguously.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from typing import Iterable, Iterator, Sequence

from .errors import UsageError

Perm = tuple[int, ...]


def check_permutation(entries: Sequence[int]) -> Perm:
    """Validate that ``entries`` is a rearrangement of 1..n and return it as a tuple.

    >>> check_permutation([2, 4, 3, 1])
    (2, 4, 3, 1)
    >>> check_permutation([2, 2, 3, 1])
    Traceback (most recent call last):
        ...
    permsieve.errors.UsageError: duplicate or out-of-range value in (2, 2, 3, 1)
    """
    p = tuple(int(v) for v in entries)
    n = len(p)
    if n == 0:
        raise UsageError("a permutation needs n >= 1")
    seen = [False] * (n + 1)
    for v in p:
        if not 1 <= v <= n or seen[v]:
            raise UsageError(f"duplicate or out-of-range value in {p}")
        seen[v] = True
    return p


def parse_permutation(text: str) -> Perm:
    """Parse one-line notation, either a digit word (n <= 9) or comma-separated.

    >>> parse_permutation("2431")
    (2, 4, 3, 1)
    >>> parse_permutation("1,2,3,4,5,6,7,8,9,10")[9]
    10
    """
    text = text.strip()
    if not text:
        raise UsageError("empty permutation string")
    if "," in text:
        parts = [s.strip() for s in text.split(",")]
        # isdecimal first: int() alone also takes a sign and underscores
        if not all(s.isdecimal() for s in parts):
            raise UsageError(f"malformed comma-separated permutation: {text!r}")
        values = [int(s) for s in parts]
    else:
        if not text.isdecimal():
            raise UsageError(f"digit-word permutation expected, got {text!r}")
        if len(text) > 9:
            raise UsageError(
                "digit words are ambiguous beyond n = 9; use comma-separated values"
            )
        values = [int(ch) for ch in text]
    return check_permutation(values)


def format_permutation(p: Sequence[int]) -> str:
    """One-line notation: digit word for n <= 9, comma-separated beyond.

    >>> format_permutation((2, 4, 3, 1))
    '2431'
    >>> format_permutation(tuple(range(1, 11)))
    '1,2,3,4,5,6,7,8,9,10'
    """
    if len(p) <= 9:
        return "".join(str(v) for v in p)
    return ",".join(str(v) for v in p)


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def symmetric_group(n: int) -> Iterator[Perm]:
    """Every permutation of S_n, once each, in lexicographic order.

    >>> [format_permutation(p) for p in symmetric_group(3)]
    ['123', '132', '213', '231', '312', '321']
    """
    return permutations(range(1, n + 1))


def inverse(p: Perm) -> Perm:
    """The permutation r with r(p(i)) = i for all i.

    >>> inverse((2, 4, 3, 1))
    (4, 1, 3, 2)
    """
    r = [0] * len(p)
    for i, v in enumerate(p):
        r[v - 1] = i + 1
    return tuple(r)


def compose(p: Perm, q: Perm) -> Perm:
    """Functional composition: ``compose(p, q)(i) = p(q(i))``.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(p) != len(q):
        raise UsageError(f"cannot compose sizes {len(p)} and {len(q)}")
    return tuple(p[v - 1] for v in q)


def swap_positions(p: Perm, a: int, b: int) -> Perm:
    """Exchange the entries at 1-based positions a and b: p times the transposition (a b)."""
    q = list(p)
    q[a - 1], q[b - 1] = q[b - 1], q[a - 1]
    return tuple(q)


def cycle_form(p: Perm) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles of p, partitioning {1, ..., n}.

    Each cycle starts at its minimum, and the cycles are sorted by it.

    >>> cycle_form((2, 4, 3, 1))
    ((1, 2, 4), (3,))
    >>> cycle_form((3, 2, 4, 1, 6, 5))
    ((1, 3, 4), (2,), (5, 6))
    """
    n = len(p)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start - 1]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x - 1]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def from_cycles(cycles: Iterable[Sequence[int]], n: int) -> Perm:
    """Build the permutation of [n] whose cycle decomposition is ``cycles``."""
    result = list(range(1, n + 1))
    seen = [False] * (n + 1)
    for cyc in cycles:
        for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
            if not 1 <= a <= n or seen[a]:
                raise UsageError(f"cycles do not partition 1..{n}")
            seen[a] = True
            result[a - 1] = b
    return check_permutation(result)


def lehmer_code(p: Perm) -> tuple[int, ...]:
    """L_i = #{j > i : p_j < p_i}, the factorial-base coordinates of p.

    >>> lehmer_code((2, 3, 1))
    (1, 1, 0)
    """
    n = len(p)
    return tuple(
        sum(1 for j in range(i + 1, n) if p[j] < p[i]) for i in range(n)
    )


def lehmer_decode(code: Sequence[int]) -> Perm:
    """Inverse of :func:`lehmer_code`.

    >>> lehmer_decode((1, 2, 1, 0))
    (2, 4, 3, 1)
    """
    n = len(code)
    remaining = list(range(1, n + 1))
    out = []
    for i, c in enumerate(code):
        if not 0 <= c <= n - 1 - i:
            raise UsageError(f"code entry {c} at position {i + 1} exceeds {n - 1 - i}")
        out.append(remaining.pop(c))
    return tuple(out)


def perm_rank(p: Perm) -> int:
    """Zero-based rank of p among S_n in lexicographic order."""
    code = lehmer_code(p)
    n = len(p)
    return sum(c * factorial(n - 1 - i) for i, c in enumerate(code))


def perm_unrank(r: int, n: int) -> Perm:
    """Inverse of :func:`perm_rank`."""
    if not 0 <= r < factorial(n):
        raise IndexError(f"rank {r} out of range for S_{n}")
    code = []
    for i in range(n):
        f = factorial(n - 1 - i)
        code.append(r // f)
        r %= f
    return lehmer_decode(code)


def left_to_right_maxima_positions(p: Perm) -> tuple[int, ...]:
    """1-based positions i with p_i larger than every earlier entry."""
    positions = []
    best = 0
    for i, v in enumerate(p, start=1):
        if v > best:
            positions.append(i)
            best = v
    return tuple(positions)


def fundamental_transform(p: Perm) -> Perm:
    """First fundamental transform.

    The one-line word is split before each left-to-right maximum and the
    resulting blocks are read as the cycle decomposition of the image.

    >>> fundamental_transform((2, 4, 1, 3, 6, 5))
    (3, 2, 4, 1, 6, 5)
    """
    n = len(p)
    cuts = list(left_to_right_maxima_positions(p)) + [n + 1]
    cycles = [p[cuts[t] - 1 : cuts[t + 1] - 1] for t in range(len(cuts) - 1)]
    return from_cycles(cycles, n)


def fundamental_inverse(p: Perm) -> Perm:
    """Inverse of :func:`fundamental_transform`.

    Each cycle is rotated to start at its maximum, cycles are sorted by that
    leading maximum, and the concatenation is read as one-line notation; the
    cycle leaders become exactly the left-to-right maxima of the result.

    >>> fundamental_inverse((3, 2, 4, 1, 6, 5))
    (2, 4, 1, 3, 6, 5)
    """
    rotated = []
    for cyc in cycle_form(p):
        k = cyc.index(max(cyc))
        rotated.append(cyc[k:] + cyc[:k])
    rotated.sort()
    return tuple(v for cyc in rotated for v in cyc)
