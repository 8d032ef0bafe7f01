"""Registry of permutation statistics.

Each statistic is a pure function from a permutation tuple to an integer,
wrapped in a :class:`StatDescriptor` carrying a stable string key and the
smallest meaningful n the scanning layer needs.  A statistic's key spells its
FindStat id, st018 for St000018, and the id is read off the key, so
:func:`get_statistic` resolves a key or an id by one rule; two statistics
without an id, ``extrema_sum`` and ``maj_minus_imaj``, have keys of another
form.  A generating function has one definition, registered on one statistic.  Thirty-four statistics carry a ``gf``:

- nine closed forms: the q-factorial for inversions (MacMahon), the forms
  for cycles and, shifted, st541, absolute length, the uniform distribution
  of the first entry, the two Lehmer-code entries, rank, and (registered
  through it only) the circled entries of the shifted recording tableau;
- three distances: the closed form of st1579's cyclic comparator sort, the
  layer sizes of st1076's breadth-first search and the star-graph formula
  summed over cycle types for st1077;
- five ``blocks_gf`` forms, for descents or inversions inside disjoint
  position blocks;
- seventeen keys of an equidistributed statistic, whose generating function
  they borrow: major and comajor index (st018), the four partial extrema
  (st031), st316 (st216), the last and both middle entries (st054),
  crossings, cycle descents, both admissible-inversion counts, st1687, maj
  plus imaj and maj minus imaj.

So every callable ``gf`` belongs to exactly one statistic.  The other
thirty-two statistics carry a transfer-matrix step instead, and a descriptor
with neither is refused, so no generating function enumerates S_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, Optional, Union

from ..errors import UsageError
from ..permutations import Perm
from ..polynomials import IntPolynomial
from . import basic, cycles, distances, entries, extrema, longcycle, patterns
from .basic import (
    comajor_index,
    descents,
    inversions,
    major_index,
    placed_above,
    placed_below,
    walk,
)
from .closed_forms import (
    absolute_length_gf,
    blocks_gf,
    crossings_gf_closed,
    cycles_gf,
    descent_variant_gf,
    entry_gf,
    inv_entry_gf,
    mahonian_gf,
    q_eulerian_hat,
    rank_gf,
    shifted_circled_gf,
)
from .patterns import pattern_count

__all__ = [
    "StatDescriptor",
    "REGISTRY",
    "get_statistic",
    "statistic_keys",
    "pattern_count",
    "walk",
    "mahonian_gf",
    "cycles_gf",
    "absolute_length_gf",
    "rank_gf",
    "entry_gf",
    "inv_entry_gf",
    "crossings_gf_closed",
    "q_eulerian_hat",
    "descent_variant_gf",
    "shifted_circled_gf",
    "basic",
    "cycles",
    "distances",
    "entries",
    "extrema",
    "longcycle",
    "patterns",
]


Step = Callable[[int, Hashable, int, int, int], tuple[Hashable, int]]


@dataclass(frozen=True)
class StatDescriptor:
    """A registered statistic: evaluator, key, and scan metadata.

    ``key`` is ``st`` and the FindStat id in at least three digits when the
    statistic has one; :attr:`findstat_id` reads the id off it.

    ``step``, when given, lets the generating function be built left to right
    (the transfer-matrix method) instead of by evaluating every permutation.
    A permutation is written one position at a time; before position i
    (1-based) the values already placed form ``mask`` (bit v - 1 set for each
    placed v), and ``state`` is what the statistic remembers of them, starting
    from 0.  ``step(mask, state, v, i, n)`` places v at position i and
    returns ``(new_state, increment)``; the statistic of a permutation must be
    the sum of the increments along its n steps.  The increment may read only
    ``mask``, ``state``, v, i and n, so it can count the placed (or still
    unplaced) values above or below v but not their positions; the state is
    kept small, at most the last few values or a subset of the mask (the values
    placed at odd positions, for st539 and st677), since permutations that
    reach the same (mask, state) are counted together.  The evaluator stays the
    definition, and enumerating S_n through it is the step's test oracle, except
    for the eight pattern statistics: :data:`patterns.PATTERNS` names the
    patterns and the step of each, its evaluator walks the step
    (:func:`basic.walk`), and :func:`patterns.pattern_count` defines it.

    ``gf``, when given, is the generating function from ``min_n`` on.  It is
    a closed form, or the key of another statistic, with a ``gf`` or step of
    its own and the same ``min_n``, when a bijection or theorem, named beside
    the registration, makes the two equidistributed;
    :func:`~permsieve.sieving.generating_function` then returns the lender's
    generating function, computed, memoized and cached under the lender's key,
    :attr:`gf_key`.
    When the statistic also has an evaluator, enumerating S_n through it is
    the ``gf``'s oracle (acceptance criterion 9).  A statistic has exactly
    one of ``gf`` and ``step``: a step beside a ``gf`` would never run, and
    without either its generating function would have no fast definition.
    """

    key: str
    name: str
    evaluator: Optional[Callable[[Perm], int]]
    gf: Optional[Union[Callable[[int], IntPolynomial], str]] = None
    min_n: int = 1
    step: Optional[Step] = None

    def __post_init__(self) -> None:
        if self.gf is not None and self.step is not None:
            raise ValueError(f"{self.key} has both a closed form and a step; the step would never run")
        if self.gf is None and self.step is None:
            raise ValueError(f"{self.key} has neither a closed form nor a step")

    @property
    def findstat_id(self) -> Optional[int]:
        """The FindStat id that the key spells, as st018 spells 18; None for a key of another form."""
        digits = self.key[2:]
        return int(digits) if self.key.startswith("st") and digits.isdecimal() else None

    @property
    def gf_key(self) -> str:
        """The statistic that defines this one's generating function: the lender
        that ``gf`` names, else this statistic itself.  The generating function
        is computed, memoized and cached under this key only."""
        return self.gf if isinstance(self.gf, str) else self.key

    def __call__(self, p: Perm) -> int:
        if self.evaluator is None:
            raise UsageError(f"{self.key} is registered through its generating function only")
        return self.evaluator(p)


def _descriptors() -> list[StatDescriptor]:
    S = StatDescriptor

    def pattern(key: str) -> StatDescriptor:
        # named after the patterns it counts; the evaluator walks the step along p
        texts, step = patterns.PATTERNS[key]
        return S(key, "occurrences of " + " or ".join(texts), partial(walk, step), step=step)

    above, below = placed_above, placed_below
    # Step lambdas: "m, s" are the mask and a state the step leaves alone.
    return [
        # Mahonian representatives: Foata's bijection takes maj to inv, so
        # st004(p) = st018(foata(p)) and st833(p) = st018(foata(rc(p))), rc the
        # reverse-complement
        S("st004", "major index", major_index, gf="st018"),
        S("st018", "number of inversions", inversions, gf=mahonian_gf),
        S("st833", "comajor index", comajor_index, gf="st018"),
        # descents and run shapes
        S("st021", "number of descents", descents, step=basic.descents_step),
        # descents inside blocks of positions: chains mod k, pairs (1, 2), (3, 4), ... or (2, 3), ...
        S("st836", "number of width-2 descents", lambda p: basic.width_k_descents(p, 2), min_n=3,
          gf=lambda n: basic.width_k_descents_gf(n, 2)),
        S("st1520", "number of width-3 descents", lambda p: basic.width_k_descents(p, 3), min_n=4,
          gf=lambda n: basic.width_k_descents_gf(n, 3)),
        S("st1114", "number of odd descents", basic.odd_descents,
          gf=lambda n: blocks_gf(n, [2] * (n // 2), basic.eulerian_gf)),
        S("st1115", "number of even descents", basic.even_descents,
          gf=lambda n: blocks_gf(n, [2] * ((n - 1) // 2), basic.eulerian_gf)),
        S("st483", "number of monotone switches", basic.monotone_switches, step=basic.monotone_switches_step),
        S("st638", "number of up-down runs", basic.up_down_runs, step=basic.up_down_runs_step),
        # cycle diagram statistics
        # Corteel's map swaps crossings and nestings
        S("st039", "number of crossings", cycles.crossings, gf="st223"),
        S("st223", "number of nestings", cycles.nestings, step=cycles.nestings_step),
        # st1744(p) = st317(phi(p)^-1), phi Foata's fundamental transform
        S("st317", "cycle descent number", cycles.cycle_descents, gf="st1744"),
        S("st1744", "number of 12 arrow patterns", cycles.arrow_12_patterns, step=cycles.arrow_12_patterns_step),
        # vincular patterns, then classical pattern pairs
        *map(pattern, patterns.PATTERNS),
        # midpoints of length-3 monotone subsequences: a placed value above v
        # and an unplaced one below it, or the other way round
        S("st371", "midpoints of decreasing length-3 subsequences", extrema.count_decreasing_midpoints,
          step=lambda m, s, v, i, n: (s, int(above(m, v) > 0 and below(m, v) < v - 1))),
        S("st372", "midpoints of increasing length-3 subsequences", extrema.count_increasing_midpoints,
          step=lambda m, s, v, i, n: (s, int(below(m, v) > 0 and above(m, v) < n - v))),
        S("st1683", "distinct positions of 3 in 132 occurrences", extrema.distinct_positions_of_3_in_132,
          step=extrema.distinct_positions_of_3_in_132_step),
        # st1687(p) = st1683(rc(p^-1)), rc the reverse-complement
        S("st1687", "distinct positions of 2 in 213 occurrences", extrema.distinct_positions_of_2_in_213, gf="st1683"),
        S("st373", "weak excedances that are decreasing midpoints", extrema.weak_excedance_decreasing_midpoints,
          step=lambda m, s, v, i, n: (s, int(v >= i and above(m, v) > 0 and below(m, v) < v - 1))),
        # partial extrema and cycles: v is a left-to-right maximum when no
        # placed value exceeds it, a right-to-left minimum when every smaller
        # value is placed, and so on
        # The fundamental transform takes left-to-right maxima (st314) to cycles
        # (st031); reverse, complement and both take st314 to st007, st542 and
        # st991.  On every permutation st541 = st542 - 1, st316 = n - st314 and
        # st216 = n - st031, so the transform also takes st316 to st216.
        S("st007", "number of right-to-left maxima", extrema.count_r2l_maxima, gf="st031"),
        S("st031", "number of cycles", extrema.cycle_count, gf=cycles_gf),
        S("st314", "number of left-to-right maxima", extrema.count_l2r_maxima, gf="st031"),
        S("st541", "values >= 2 with all smaller values to the right", extrema.small_values_to_the_right,
          gf=lambda n: cycles_gf(n).shift(-1)),
        S("st542", "number of left-to-right minima", extrema.count_l2r_minima, gf="st031"),
        S("st991", "number of right-to-left minima", extrema.count_r2l_minima, gf="st031"),
        S("st216", "absolute length", extrema.absolute_length, gf=absolute_length_gf),
        S("st316", "number of non-left-to-right maxima", extrema.non_l2r_maxima, gf="st216"),
        S("st1004", "positions that are l2r maxima or r2l minima", extrema.extrema_union,
          step=lambda m, s, v, i, n: (s, int(above(m, v) == 0 or below(m, v) == v - 1))),
        S("st1005", "positions that are l2r maxima xor r2l minima", extrema.extrema_xor,
          step=lambda m, s, v, i, n: (s, int((above(m, v) == 0) != (below(m, v) == v - 1)))),
        S("extrema_sum", "l2r maxima plus r2l minima", extrema.extrema_sum,
          step=lambda m, s, v, i, n: (s, (above(m, v) == 0) + (below(m, v) == v - 1))),
        # inversion variants
        S("st495", "inversions of distance at most 2", lambda p: basic.inversions_within_distance(p, 2),
          step=basic.inversions_within_distance_step(2)),
        S("st494", "inversions of distance at most 3", lambda p: basic.inversions_within_distance(p, 3),
          step=basic.inversions_within_distance_step(3)),
        S("st538", "number of even inversions", basic.even_inversions,
          gf=lambda n: blocks_gf(n, [(n + 1) // 2, n // 2], mahonian_gf)),
        S("st539", "number of odd inversions", basic.odd_inversions, step=basic.odd_inversions_step),
        S("st1726", "number of visible inversions", basic.visible_inversions, step=basic.visible_inversions_step),
        S("st1727", "number of invisible inversions", basic.invisible_inversions, step=basic.invisible_inversions_step),
        # signed and alternating combinations
        S("st677", "standardized bi-alternating inversion number", basic.bialternating, step=basic.bialternating_step),
        # Foata and Schuetzenberger (1978): Foata's second fundamental transformation
        # Phi takes maj to inv and keeps the inverse descent set, so
        # st825(p) = st1379(Phi(p)^-1)
        S("st825", "major index plus inverse major index", longcycle.maj_plus_imaj, gf="st1379"),
        S("st1379", "inversions plus major index", longcycle.inv_plus_maj, step=longcycle.inv_plus_maj_step),
        S("st1377", "major index minus inversions", longcycle.maj_minus_inv, step=longcycle.maj_minus_inv_step),
        # maj_minus_imaj(p) = st1377(Phi(p^-1)^-1), Phi as for st825
        S("maj_minus_imaj", "major index minus inverse major index", longcycle.maj_minus_imaj, gf="st1377"),
        S("st462", "major index minus excedances", longcycle.maj_minus_excedances,
          step=longcycle.maj_minus_excedances_step),
        # st463(p) = st866(rc(p)), rc the reverse-complement
        S("st463", "admissible inversions (Lin-Zeng)", longcycle.admissible_inversions_lz, gf="st462"),
        # Shareshian-Wachs: (aid, des) ~ (maj - exc, exc)
        S("st866", "admissible inversions (Shareshian-Wachs)", longcycle.admissible_inversions_sw, gf="st462"),
        S("st961", "shifted major index", longcycle.shifted_major_index, step=longcycle.shifted_major_index_step),
        S("st1911", "weighted descent variant minus inversions", basic.descent_variant_minus_inversions,
          step=basic.descent_variant_minus_inversions_step),
        # sorting and factorization distances
        S("st809", "reduced reflection length", distances.reduced_reflection_length,
          step=lambda m, s, v, i, n: (s, 2 * max(v - i, 0) - above(m, v))),
        # the factor 1 + q of its generating function gives f(-1) = 0 for every
        # n >= 2, so st1579 sieves under reverse and under complement at every
        # n >= 2: both are involutions without fixed points there
        S("st1579", "cyclic comparator swaps to sort", distances.cyclic_sort_swaps, gf=distances.cyclic_sort_gf),
        S("st1076", "factorization length over cyclic shifts of (12)", distances.cyclic_shift_factorization_length,
          gf=distances.cyclic_shift_gf),
        S("st1077", "prefix exchange distance", distances.prefix_exchange_distance, gf=distances.prefix_exchange_gf),
        # entries and rank: reverse moves the last entry to the front, and
        # moving the upper (lower) middle entry to the front does the same for
        # st1806 (st1807), so each is st054 of the moved permutation
        S("st054", "first entry", entries.first_entry, gf=entry_gf),
        S("st740", "last entry", entries.last_entry, gf="st054"),
        S("st1806", "upper middle entry", entries.upper_middle_entry, gf="st054"),
        S("st1807", "lower middle entry", entries.lower_middle_entry, gf="st054"),
        S("st1557", "inversions of the second entry", lambda p: entries.inversions_of_ith_entry(p, 2), min_n=2,
          gf=lambda n: inv_entry_gf(n, 2)),
        S("st1556", "inversions of the third entry", lambda p: entries.inversions_of_ith_entry(p, 3), min_n=3,
          gf=lambda n: inv_entry_gf(n, 3)),
        S("st020", "lexicographic rank", entries.rank, gf=rank_gf),
        # generating-function-only entry
        S("st864", "circled entries of the shifted recording tableau", None, gf=shifted_circled_gf),
    ]


_ALL = _descriptors()
REGISTRY: dict[str, StatDescriptor] = {d.key: d for d in _ALL}
if len(REGISTRY) != len(_ALL):
    raise RuntimeError("duplicate statistic keys in the registry")


def statistic_keys() -> tuple[str, ...]:
    return tuple(REGISTRY)


def get_statistic(key: str | int | StatDescriptor) -> StatDescriptor:
    """Look a statistic up by registry key or FindStat id, given as an int or a decimal string.

    An id n names the key ``st`` followed by n in at least three digits, so 18,
    "18" and "0018" all name st018.  A descriptor is returned as it is, and a
    name that resolves to nothing registered raises :class:`UsageError`.
    """
    if isinstance(key, StatDescriptor):
        return key
    resolved = f"st{int(key):03d}" if isinstance(key, int) or key.isdecimal() else key
    if resolved not in REGISTRY:
        raise UsageError(f"unknown statistic {key!r}")
    return REGISTRY[resolved]
