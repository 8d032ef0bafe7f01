"""Orbit structure of a registered map over the whole of S_n.

A map's orbit structure is its size multiset, ``{orbit size: number of
orbits}``: the fixed-point count of every power of the map, the orbit
polynomial and the orbit signature depend on nothing else.  Every registered
map declares its structure on S_n, fixed by a theorem (see
:class:`~permsieve.bijections.MapDescriptor`), and :func:`orbit_sizes` reads
it off.  :func:`decompose` walks S_n and is the oracle of every declaration.
Its seeds are taken in lexicographic order from
:func:`~permsieve.permutations.symmetric_group`, and one set of the not yet
visited permutations, local to each call, both marks what has been visited
and checks that every image lies in S_n.
"""

from __future__ import annotations

from math import lcm

from .bijections import MapDescriptor, get_map
from .errors import PermsieveError
from .permutations import symmetric_group


def decompose(map_desc: MapDescriptor | str, n: int) -> dict[int, int]:
    """Size multiset of the map's orbits on S_n, sizes in order of first seed.

    Raises :class:`UsageError` when n is below the map's ``min_n``, and
    :class:`PermsieveError` when an image is not a permutation in S_n or when
    two trajectories merge.
    """
    desc = get_map(map_desc)
    desc.require_n(n)
    unvisited = set(symmetric_group(n))
    sizes: dict[int, int] = {}
    for seed in symmetric_group(n):
        if seed not in unvisited:
            continue
        unvisited.remove(seed)
        length = 1
        current = desc(seed)
        while current != seed:
            try:
                unvisited.remove(current)
            except KeyError:
                if sorted(current) != list(range(1, n + 1)):
                    raise PermsieveError(f"{desc.key} maps into {current!r}, which is not in S_{n}") from None
                raise PermsieveError(f"{desc.key} merged two trajectories at {current!r} in S_{n}") from None
            length += 1
            current = desc(current)
        sizes[length] = sizes.get(length, 0) + 1
    return sizes


def orbit_sizes(map_key: str, n: int) -> dict[int, int]:
    """The registered map's declared orbit structure on S_n; a fresh dict per call.

    Raises :class:`UsageError` when n is below the map's ``min_n``.
    """
    desc = get_map(map_key)
    desc.require_n(n)
    return dict(desc.sizes(n))


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
