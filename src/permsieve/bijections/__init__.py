"""Registry of bijective maps on S_n.

Every map is a pure function from a permutation tuple to a permutation tuple
of the same size, wrapped in a :class:`MapDescriptor` with a stable key, the
FindStat identifier where one exists, and metadata the orbit and scanning
layers use: the smallest n the map is defined on and its orbit structure on
S_n as a function of n, ``{orbit size: number of orbits}``, fixed by a theorem
for every registered map.
"""

from __future__ import annotations

from math import factorial, lcm
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
    "basic",
    "involutions",
    "laguerre",
    "motzkin",
]


class MapDescriptor:
    """A registered bijection with the metadata used by orbit analysis.

    ``sizes(n)`` is the map's orbit structure on S_n, ``{orbit size: number
    of orbits}`` with no zero count, and every map must give it:
    :func:`~permsieve.orbits.orbit_sizes` reads it off and never walks S_n.
    :func:`~permsieve.orbits.decompose` is its oracle, and acceptance
    criterion 8 compares the two on S_4..S_7.  An involution with F fixed
    points has the structure ``{1: F, 2: (n! - F)/2}``.  The declarations
    hold for these reasons:

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
    - Inverse is an involution whose fixed points are the involutions of S_n,
      I_n of them, with I_n = I_(n-1) + (n - 1) I_(n-2).
    - The Corteel map and the invert Laguerre heap map are involutions with
      2^(n-1) fixed points, and the Alexandersson-Kebede map one with
      2^(floor(n/2)) (the paper's theorems).
    - The maximal 3**-midpoint toggle fixes exactly the {321, 312}-avoiding
      permutations, 2^(n-1) of them (R. Simion and F. W. Schmidt,
      *Restricted permutations*, European J. Combin. 6 (1985)).  The paper's
      other two pairing involutions fix 2^(n-1) permutations (the recursive
      1-2 value swap) and 2^(floor(n/2)) (the out-of-block value pair swap).
    - Conjugation by the long cycle c: the permutations its d-th power fixes
      form the centralizer of c^d, which for d dividing n has (n/d)^d d!
      elements, since c^d is a product of d cycles of length n/d.  As c^n
      is the identity every orbit size divides n, and Moebius inversion over
      the divisors of n gives the number of permutations in orbits of each
      size.
    """

    def __init__(
        self,
        key: str,
        name: str,
        applier: Callable[[Perm], Perm],
        sizes: Callable[[int], dict[int, int]],
        findstat_id: Optional[int] = None,
        min_n: int = 1,
    ) -> None:
        self.key = key
        self.name = name
        self.applier = applier
        self.sizes = sizes
        self.findstat_id = findstat_id
        self.min_n = min_n

    def __call__(self, p: Perm) -> Perm:
        return self.applier(p)

    def require_n(self, n: int) -> None:
        """Raise :class:`UsageError` when S_n is below the smallest n the map is defined on."""
        if n < self.min_n:
            raise UsageError(f"map {self.key} is defined for n >= {self.min_n}, got n={n}")


def _uniform(size: int, n: int) -> dict[int, int]:
    """Orbit structure on S_n of a map whose orbits all have ``size`` elements."""
    return {size: factorial(n) // size}


def _involution(fixed: int, n: int) -> dict[int, int]:
    """Orbit structure on S_n of an involution with ``fixed`` fixed points."""
    structure = {1: fixed, 2: (factorial(n) - fixed) // 2}
    return {size: count for size, count in structure.items() if count}


def _fixed_point_free_involution(n: int) -> dict[int, int]:
    """Orbit structure on S_n of a fixed-point-free involution: 2-cycles, for n >= 2."""
    return _uniform(2 if n >= 2 else 1, n)


def _involution_count(n: int) -> int:
    """I_n, the number of involutions in S_n: I_n = I_(n-1) + (n - 1) I_(n-2)."""
    previous, current = 1, 1  # I_0, I_1
    for k in range(2, n + 1):
        previous, current = current, current + (k - 1) * previous
    return current


def _long_cycle_conjugation(n: int) -> dict[int, int]:
    """Orbit structure on S_n of conjugation by the long cycle c.

    In ascending order of the divisors d of n, the permutations in orbits of
    size exactly d are those the d-th power fixes, (n/d)^d d!, less those in
    orbits of a size dividing d.
    """
    in_orbits_of_size: dict[int, int] = {}
    for d in [d for d in range(1, n + 1) if n % d == 0]:
        fixed = (n // d) ** d * factorial(d)
        in_orbits_of_size[d] = fixed - sum(count for k, count in in_orbits_of_size.items() if d % k == 0)
    return {d: count // d for d, count in in_orbits_of_size.items() if count}


def _descriptors() -> list[MapDescriptor]:
    M = MapDescriptor
    return [
        M("reverse", "reverse", reverse, sizes=_fixed_point_free_involution),
        M("complement", "complement", complement, sizes=_fixed_point_free_involution),
        M("inverse", "inverse", inverse_map, sizes=lambda n: _involution(_involution_count(n), n)),
        M("rotation", "rotation", rotation, findstat_id=179, sizes=lambda n: _uniform(n, n)),
        M("conj_long_cycle", "conjugation by the long cycle", conjugate_by_long_cycle, findstat_id=265,
          sizes=_long_cycle_conjugation),
        M(
            "lehmer_code_rotation",
            "Lehmer code rotation",
            lehmer_code_rotation,
            findstat_id=149,
            sizes=lambda n: _uniform(lcm(*range(1, n + 1)), n),
        ),
        M(
            "toric_promotion",
            "toric promotion",
            toric_promotion,
            findstat_id=310,
            min_n=2,
            sizes=lambda n: _uniform(n - 1, n),
        ),
        M("corteel", "Corteel map", corteel, findstat_id=239,
          sizes=lambda n: _involution(2 ** (n - 1), n)),
        M("invert_laguerre_heap", "invert Laguerre heap", invert_laguerre_heap, findstat_id=241,
          sizes=lambda n: _involution(2 ** (n - 1), n)),
        M("alexandersson_kebede", "Alexandersson-Kebede map", alexandersson_kebede,
          sizes=lambda n: _involution(2 ** (n // 2), n)),
        M("psi_3star", "maximal 3**-midpoint toggle", psi_3star,
          sizes=lambda n: _involution(2 ** (n - 1), n)),
        M("psi_32_1", "recursive 1-2 value swap", psi_32_1,
          sizes=lambda n: _involution(2 ** (n - 1), n)),
        M("psi_block", "out-of-block value pair swap", psi_block,
          sizes=lambda n: _involution(2 ** (n // 2), n)),
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
    """Look a map up by registry key or swap alias; a descriptor is returned as it is.

    A name that resolves to nothing registered raises :class:`UsageError`.
    """
    if isinstance(key, MapDescriptor):
        return key
    resolved = _SWAP_ALIASES.get(key, key)
    if resolved not in MAPS:
        raise UsageError(f"unknown map {key!r}")
    return MAPS[resolved]
