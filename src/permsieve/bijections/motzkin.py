"""Colored Motzkin path encoding of permutations and the crossing/nesting swap.

Each point i of the cycle diagram is classified by comparing sigma(i) and
sigma^{-1}(i) with i:

* ``u``  opens an arc above and an arc below the diagonal (sigma(i) > i and
  sigma^{-1}(i) > i),
* ``d``  closes one of each (both < i),
* ``r``  closes and reopens below the diagonal (sigma(i) < i < sigma^{-1}(i)),
* ``b``  closes and reopens above the diagonal (sigma(i) > i > sigma^{-1}(i)),
  or marks a fixed point.

Reading u as an up-step, d as a down-step and r, b as level steps gives a
Motzkin path; the weight of step i counts the open arcs nesting it.  The
complement flips every weight within its height bound, and decoding the
complemented path back to a permutation exchanges crossings with nestings.

:func:`corteel` runs that pipeline as one left-to-right pass on plain lists:
each step's letter and weight are read off p, the weight is complemented
against the running height (the number of open arcs above the diagonal), and
the result drives the decoder's arc lists directly.  The path objects and the
encode/complement/decode functions stay as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import UsageError
from ..permutations import Perm, check_permutation, inverse

Word = tuple[str, ...]


def _step_heights(word: Word) -> tuple[int, ...]:
    """Height of each step's lowest endpoint; validates the path shape."""
    heights = []
    h = 0
    for i, w in enumerate(word):
        if w == "u":
            heights.append(h)
            h += 1
        elif w == "d":
            h -= 1
            if h < 0:
                raise UsageError(f"path dips below zero at step {i + 1}")
            heights.append(h)
        elif w in ("r", "b"):
            heights.append(h)
        else:
            raise UsageError(f"unknown step letter {w!r}")
    if h != 0:
        raise UsageError("path must end at height zero")
    return tuple(heights)


@dataclass(frozen=True)
class ColoredMotzkinPath:
    """A word in {u, d, r, b} with one nonnegative weight per step.

    A word or weight out of its bounds raises :class:`UsageError`.
    """

    word: Word
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.word) != len(self.weights):
            raise UsageError("word and weight vectors differ in length")
        for i, (w, p, h) in enumerate(zip(self.word, self.weights, self.heights)):
            bound = h - 1 if w == "r" else h
            if not 0 <= p <= bound:
                raise UsageError(
                    f"weight {p} at step {i + 1} ({w}) exceeds bound {bound}"
                )

    @property
    def heights(self) -> tuple[int, ...]:
        return _step_heights(self.word)


def fz_encode(p: Perm) -> ColoredMotzkinPath:
    """Foata-Zeilberger encoding of a permutation.

    >>> path = fz_encode((1, 7, 6, 3, 8, 10, 9, 12, 2, 11, 4, 5))
    >>> "".join(path.word)
    'buurubbbdbdd'
    >>> path.weights
    (0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0)
    """
    n = len(p)
    inv = inverse(p)
    word = []
    weights = []
    for i in range(1, n + 1):
        fwd, back = p[i - 1], inv[i - 1]
        if fwd > i and back > i:
            w = "u"
        elif fwd < i and back < i:
            w = "d"
        elif fwd < i < back:
            w = "r"
        else:  # fixed point, or fwd > i > back
            w = "b"
        word.append(w)
        if w in ("u", "b"):
            weights.append(sum(1 for j in range(1, i) if p[j - 1] > fwd))
        else:
            weights.append(sum(1 for j in range(i + 1, n + 1) if p[j - 1] < fwd))
    return ColoredMotzkinPath(tuple(word), tuple(weights))


def motzkin_complement(m: ColoredMotzkinPath) -> ColoredMotzkinPath:
    """Flip every weight within its height bound: h - p - 1 on r steps, h - p else."""
    flipped = tuple(
        (h - p - 1) if w == "r" else (h - p)
        for w, p, h in zip(m.word, m.weights, m.heights)
    )
    return ColoredMotzkinPath(m.word, flipped)


def fz_decode(m: ColoredMotzkinPath) -> Perm:
    """The unique permutation whose encoding is ``m``.

    Sweeps left to right keeping the open arcs above the diagonal ordered by
    closing time and the open arcs below ordered by left endpoint; the weight
    selects the nesting depth at which an arc opens or closes.  Raises
    :class:`UsageError` when no permutation has this encoding.
    """
    n = len(m.word)
    sigma = [0] * (n + 1)
    upper: list[int] = []  # origins of open arcs above, first to close first
    lower: list[int] = []  # left endpoints of open arcs below, ascending
    for i in range(1, n + 1):
        w, q = m.word[i - 1], m.weights[i - 1]
        height = len(upper)
        if w == "u":
            upper.insert(height - q, i)
            lower.append(i)
        elif w == "b":
            if q == height:
                sigma[i] = i
            else:
                origin = upper.pop(0)
                sigma[origin] = i
                upper.insert(len(upper) - q, i)
        elif w == "d":
            if not upper or q >= len(lower):
                raise UsageError(f"no arc to close at step {i}")
            origin = upper.pop(0)
            sigma[origin] = i
            sigma[i] = lower.pop(q)
        elif w == "r":
            if q >= len(lower):
                raise UsageError(f"no arc to pass at step {i}")
            sigma[i] = lower.pop(q)
            lower.append(i)
        else:
            raise UsageError(f"unknown step letter {w!r}")
    if upper or lower:
        raise UsageError("arcs left open at the end of the path")
    return check_permutation(sigma[1:])


def corteel(p: Perm) -> Perm:
    """Complement the colored Motzkin encoding and decode, in one pass.

    An involution on S_n with 2^(n-1) fixed points; it exchanges the number
    of crossings with the number of nestings.  Equal to
    ``fz_decode(motzkin_complement(fz_encode(p)))`` (the test oracle) without
    building either path: at step i, with c the number of earlier entries
    above p_i, the weight is c on u and b steps and p_i - i + c on d and r
    steps, and its complement against the running height goes straight into
    the decoder's arc lists.

    >>> corteel((1, 7, 6, 3, 8, 10, 9, 12, 2, 11, 4, 5))
    (1, 10, 12, 2, 7, 6, 9, 8, 5, 11, 4, 3)
    """
    n = len(p)
    back = [0] * (n + 1)
    for i, v in enumerate(p, start=1):
        back[v] = i
    sigma = [0] * (n + 1)
    upper: list[int] = []  # as in fz_decode; len(upper) is the running height
    lower: list[int] = []
    seen = 0  # bit v set when the value v sits left of step i
    for i in range(1, n + 1):
        fwd = p[i - 1]
        c = (seen >> fwd).bit_count()
        seen |= 1 << fwd
        if fwd > i and back[i] > i:  # u, complemented weight len(upper) - c
            upper.insert(c, i)
            lower.append(i)
        elif fwd < i:  # d or r, weight fwd - i + c complemented within len(upper) - 1
            sigma[i] = lower.pop(len(upper) - 1 - (fwd - i + c))
            if back[i] < i:
                sigma[upper.pop(0)] = i
            else:
                lower.append(i)
        elif c == 0:  # b, complemented weight len(upper): a fixed point
            sigma[i] = i
        else:  # b, complemented weight len(upper) - c
            sigma[upper.pop(0)] = i
            upper.insert(c - 1, i)
    return tuple(sigma[1:])
