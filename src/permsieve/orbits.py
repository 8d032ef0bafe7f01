"""Orbit decomposition of a registered map over the whole of S_n.

Permutations are indexed by their position in the shared lexicographic table
of S_n (:func:`~permsieve.permutations.lex_table`), which is their Lehmer
rank, so the visited set is a flat byte array and each map image costs one
dict lookup.  Orbits are stored as rank lists and materialized to
permutations only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .bijections import MapDescriptor, get_map
from .errors import NotABijection
from .permutations import Perm, lex_table


@dataclass(frozen=True)
class OrbitDecomposition:
    """All orbits of one map over S_n, as Lehmer-rank lists."""

    map_key: str
    n: int
    orbits: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        """Least common multiple of the orbit sizes."""
        return lcm(*(len(o) for o in self.orbits))

    def size_multiset(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for o in self.orbits:
            sizes[len(o)] = sizes.get(len(o), 0) + 1
        return sizes

    def orbit_of_perms(self, index: int) -> tuple[Perm, ...]:
        perms = lex_table(self.n)[0]
        return tuple(perms[r] for r in self.orbits[index])

    def fixed_point_count(self) -> int:
        return sum(1 for o in self.orbits if len(o) == 1)


def decompose(map_desc: MapDescriptor | str, n: int) -> OrbitDecomposition:
    """Partition S_n into orbits of the map, lex-least representative first.

    Raises :class:`NotABijection` when an image is not a permutation in S_n
    or when two trajectories merge.
    """
    desc = get_map(map_desc) if isinstance(map_desc, str) else map_desc
    perms, rank = lex_table(n)
    visited = bytearray(len(perms))
    orbits = []
    for seed, current in enumerate(perms):
        if visited[seed]:
            continue
        orbit = [seed]
        visited[seed] = 1
        while True:
            current = desc(current)
            r = rank.get(current)
            if r is None:
                raise NotABijection(f"{desc.key} maps into {current!r}, which is not in S_{n}")
            if r == seed:
                break
            if visited[r]:
                raise NotABijection(
                    f"{desc.key} merged two trajectories at rank {r} in S_{n}"
                )
            visited[r] = 1
            orbit.append(r)
        orbits.append(tuple(orbit))
    return OrbitDecomposition(desc.key, n, tuple(orbits))


@lru_cache(maxsize=None)
def decompose_cached(map_key: str, n: int) -> OrbitDecomposition:
    """Memoized :func:`decompose` keyed by registry name."""
    return decompose(get_map(map_key), n)


def fixed_counts_from_sizes(sizes: dict[int, int]) -> tuple[int, ...]:
    """Entry d = number of elements fixed by the d-th power, d = 0..order-1."""
    c = lcm(*sizes)
    return tuple(
        sum(size * count for size, count in sizes.items() if d % size == 0)
        for d in range(c)
    )


def fixed_counts(dec: OrbitDecomposition) -> tuple[int, ...]:
    return fixed_counts_from_sizes(dec.size_multiset())


def signature_from_sizes(sizes: dict[int, int]) -> str:
    """Sorted size-multiset serialization, e.g. ``1^16 2^4``."""
    return " ".join(f"{size}^{sizes[size]}" for size in sorted(sizes))


def orbit_signature(dec: OrbitDecomposition) -> str:
    return signature_from_sizes(dec.size_multiset())


def orbit_sizes(map_key: str, n: int) -> dict[int, int]:
    """Size multiset of the map's orbits on S_n (memoized decomposition)."""
    return decompose_cached(map_key, n).size_multiset()
