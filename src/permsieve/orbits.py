"""Orbit structure of a registered map over the whole of S_n.

A map's orbit structure is its size multiset, ``{orbit size: number of
orbits}``: the fixed-point count of every power of the map, the orbit
polynomial and the orbit signature depend on nothing else.  A map that
declares a single orbit size on S_n has that structure by a theorem (see
:class:`~permsieve.bijections.MapDescriptor`), and :func:`orbit_sizes` reads
it off.  Every other structure is found by :func:`decompose`, which walks S_n
and is also the oracle of every declaration.  Seeds are taken in
lexicographic order from :func:`itertools.permutations`, and one set of the
not yet visited permutations, local to each call, both marks what has been
visited and checks that every image lies in S_n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import factorial, lcm

from .bijections import MapDescriptor, get_map
from .errors import NotABijection


def decompose(map_desc: MapDescriptor | str, n: int) -> dict[int, int]:
    """Size multiset of the map's orbits on S_n, sizes in order of first seed.

    Raises :class:`UsageError` when n is below the map's ``min_n``, and
    :class:`NotABijection` when an image is not a permutation in S_n or when
    two trajectories merge.
    """
    desc = get_map(map_desc)
    desc.require_n(n)
    values = range(1, n + 1)
    unvisited = set(permutations(values))
    sizes: dict[int, int] = {}
    for seed in permutations(values):
        if seed not in unvisited:
            continue
        unvisited.remove(seed)
        length = 1
        current = desc(seed)
        while current != seed:
            try:
                unvisited.remove(current)
            except KeyError:
                if sorted(current) != list(values):
                    raise NotABijection(f"{desc.key} maps into {current!r}, which is not in S_{n}") from None
                raise NotABijection(f"{desc.key} merged two trajectories at {current!r} in S_{n}") from None
            length += 1
            current = desc(current)
        sizes[length] = sizes.get(length, 0) + 1
    return sizes


def orbit_sizes(map_key: str, n: int) -> dict[int, int]:
    """Size multiset of the registered map's orbits on S_n; a fresh dict per call.

    When the map declares a single orbit size s on S_n, that declaration is
    the structure, ``{s: n! // s}``; otherwise this is :func:`decompose`,
    memoized by registry name.  Raises :class:`UsageError` when n is below
    the map's ``min_n``.
    """
    desc = get_map(map_key)
    desc.require_n(n)
    if len(declared := desc.sizes(n)) == 1:
        (size,) = declared
        return {size: factorial(n) // size}
    return dict(_orbit_sizes(map_key, n))


def admissible(map_key: str, n: int, sizes: dict[int, int]) -> bool:
    """Whether ``sizes`` can be the map's orbit structure on S_n.

    Every size is among the map's declared ``sizes(n)``, every count is
    positive, and the orbits cover the n! permutations.
    """
    return (
        get_map(map_key).sizes(n).issuperset(sizes)
        and all(count > 0 for count in sizes.values())
        and sum(size * count for size, count in sizes.items()) == factorial(n)
    )


@lru_cache(maxsize=None)
def _orbit_sizes(map_key: str, n: int) -> tuple[tuple[int, int], ...]:
    return tuple(decompose(get_map(map_key), n).items())


def fixed_counts(sizes: dict[int, int]) -> tuple[int, ...]:
    """Entry d = number of elements fixed by the d-th power, d = 0..order-1."""
    c = lcm(*sizes)
    return tuple(
        sum(size * count for size, count in sizes.items() if d % size == 0)
        for d in range(c)
    )


def orbit_signature(sizes: dict[int, int]) -> str:
    """Sorted size-multiset serialization, e.g. ``1^16 2^4``."""
    return " ".join(f"{size}^{sizes[size]}" for size in sorted(sizes))
