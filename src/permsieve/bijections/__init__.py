"""Registry of bijective maps on S_n.

Every map is a pure function from a permutation tuple to a permutation tuple
of the same size, wrapped in a :class:`MapDescriptor` with a stable key, the
FindStat identifier where one exists, and metadata the orbit and scanning
layers use: the smallest n the map is defined on and the orbit sizes it
allows on S_n as a function of n (``{1, 2}`` for an involution, a single size
when every orbit has the same size, as for the fixed-point-free involutions).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Callable, Optional

from ..errors import UsageError
from ..permutations import Perm
from . import basic, involutions, laguerre, motzkin
from .basic import (
    complement,
    conjugate_by_long_cycle,
    inverse_map,
    lehmer_code_rotation,
    prefix_reverse_3,
    reverse,
    rotation,
    swap_first_last,
    swap_first_third,
    swap_first_two,
    swap_last_two,
    swap_positions,
    swap_second_third,
    toric_promotion,
)
from .involutions import alexandersson_kebede, psi_32_1, psi_3star, psi_block
from .laguerre import (
    ArcDiagram,
    invert_laguerre_heap,
    laguerre_decode,
    laguerre_encode,
    laguerre_reflect,
)
from .motzkin import ColoredMotzkinPath, corteel, fz_decode, fz_encode, motzkin_complement

__all__ = [
    "MapDescriptor",
    "MAPS",
    "get_map",
    "map_keys",
    "reverse",
    "complement",
    "rotation",
    "inverse_map",
    "conjugate_by_long_cycle",
    "lehmer_code_rotation",
    "toric_promotion",
    "corteel",
    "fz_encode",
    "fz_decode",
    "motzkin_complement",
    "ColoredMotzkinPath",
    "invert_laguerre_heap",
    "laguerre_encode",
    "laguerre_reflect",
    "laguerre_decode",
    "ArcDiagram",
    "alexandersson_kebede",
    "psi_3star",
    "psi_32_1",
    "psi_block",
    "swap_positions",
    "basic",
    "involutions",
    "laguerre",
    "motzkin",
]


@dataclass(frozen=True)
class MapDescriptor:
    """A registered bijection with the metadata used by orbit analysis.

    ``sizes(n)`` contains the size of every orbit of the map on S_n, and
    every map must give it.  :func:`~permsieve.orbits.admissible` judges a
    size multiset against it: acceptance criterion 8 so checks it against the
    decomposition, and a cached orbit record it rejects is recomputed.
    Conjugation by the long cycle c declares the divisors of n, since c^n is
    the identity.  When ``sizes(n)`` has a single element s, every orbit has
    size s, there are n!/s of them, and :func:`~permsieve.orbits.orbit_sizes`
    returns that without walking S_n; such a map is never walked except by
    criterion 8, so a map that must be walked declares more than one size.
    The eleven single-size declarations hold for these reasons:

    - p -> p o sigma and p -> sigma o p act freely (p o sigma = p forces sigma
      to be the identity), so every orbit has size ord(sigma).  This covers
      reverse, complement and rotation (sigma the long reversal, the value
      reversal, the n-cycle) and the six positional swaps (sigma a
      transposition, so none of them fixes a permutation).
    - Lehmer code rotation adds (1, ..., 1) to the Lehmer code in
      Z_n x Z_(n-1) x ... x Z_1.  Adding a fixed element is a free action,
      of order lcm(1..n).
    - Toric promotion has every orbit of size n - 1 (C. Defant, *Toric
      promotion*, Proc. Amer. Math. Soc. 151 (2023), applied to the path
      graph).
    """

    key: str
    name: str
    applier: Callable[[Perm], Perm]
    sizes: Callable[[int], frozenset[int]]
    findstat_id: Optional[int] = None
    min_n: int = 1

    def __call__(self, p: Perm) -> Perm:
        return self.applier(p)

    def require_n(self, n: int) -> None:
        """Raise :class:`UsageError` when S_n is below the smallest n the map is defined on."""
        if n < self.min_n:
            raise UsageError(f"map {self.key} is defined for n >= {self.min_n}, got n={n}")


def _involution(n: int) -> frozenset[int]:
    """Orbit sizes of an involution on S_n: fixed points and 2-cycles."""
    return frozenset((1, 2))


def _fixed_point_free_involution(n: int) -> frozenset[int]:
    """Orbit sizes of a fixed-point-free involution on S_n: 2-cycles, for n >= 2."""
    return frozenset((2 if n >= 2 else 1,))


def _descriptors() -> list[MapDescriptor]:
    M = MapDescriptor
    return [
        M("reverse", "reverse", reverse, sizes=_fixed_point_free_involution),
        M("complement", "complement", complement, sizes=_fixed_point_free_involution),
        M("inverse", "inverse", inverse_map, sizes=_involution),
        M("rotation", "rotation", rotation, findstat_id=179, sizes=lambda n: frozenset((n,))),
        M("conj_long_cycle", "conjugation by the long cycle", conjugate_by_long_cycle, findstat_id=265,
          sizes=lambda n: frozenset(d for d in range(1, n + 1) if n % d == 0)),
        M(
            "lehmer_code_rotation",
            "Lehmer code rotation",
            lehmer_code_rotation,
            findstat_id=149,
            sizes=lambda n: frozenset((lcm(*range(1, n + 1)),)),
        ),
        M(
            "toric_promotion",
            "toric promotion",
            toric_promotion,
            findstat_id=310,
            min_n=2,
            sizes=lambda n: frozenset((n - 1 if n >= 2 else 1,)),
        ),
        M("corteel", "Corteel map", corteel, findstat_id=239, sizes=_involution),
        M("invert_laguerre_heap", "invert Laguerre heap", invert_laguerre_heap, findstat_id=241, sizes=_involution),
        M("alexandersson_kebede", "Alexandersson-Kebede map", alexandersson_kebede, sizes=_involution),
        M("psi_3star", "maximal 3**-midpoint toggle", psi_3star, sizes=_involution),
        M("psi_32_1", "recursive 1-2 value swap", psi_32_1, sizes=_involution),
        M("psi_block", "out-of-block value pair swap", psi_block, sizes=_involution),
        M("swap_last_two", "swap last two positions", swap_last_two, min_n=2,
          sizes=_fixed_point_free_involution),
        M("swap_first_third", "swap positions 1 and 3", swap_first_third, min_n=3,
          sizes=_fixed_point_free_involution),
        M("prefix_reverse_3", "reverse first three positions", prefix_reverse_3, min_n=3,
          sizes=_fixed_point_free_involution),
        M("swap_first_last", "swap first and last positions", swap_first_last, min_n=2,
          sizes=_fixed_point_free_involution),
        M("swap_first_two", "swap first two positions", swap_first_two, min_n=2,
          sizes=_fixed_point_free_involution),
        M("swap_second_third", "swap positions 2 and 3", swap_second_third, min_n=3,
          sizes=_fixed_point_free_involution),
    ]


_ALL = _descriptors()
MAPS: dict[str, MapDescriptor] = {d.key: d for d in _ALL}
if len(MAPS) != len(_ALL):
    raise RuntimeError("duplicate map keys in the registry")

_SWAP_ALIASES = {
    "last-two": "swap_last_two",
    "first-third": "swap_first_third",
    "prefix-reverse-3": "prefix_reverse_3",
    "first-last": "swap_first_last",
    "first-two": "swap_first_two",
    "second-third": "swap_second_third",
}


def map_keys() -> tuple[str, ...]:
    return tuple(MAPS)


def get_map(key: str | MapDescriptor) -> MapDescriptor:
    """Look a map up by registry key or swap alias; a descriptor is returned as it is."""
    if isinstance(key, MapDescriptor):
        return key
    if key in MAPS:
        return MAPS[key]
    if key in _SWAP_ALIASES:
        return MAPS[_SWAP_ALIASES[key]]
    raise KeyError(f"unknown map {key!r}")
