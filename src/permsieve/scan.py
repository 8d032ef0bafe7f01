"""Scan every registered (statistic, map) pair for apparent sieving instances.

A pair is an *apparent* instance when the exact sieving check holds for every
n in the scanned range on which both members are defined; pairs with no
applicable n are skipped with a reason.  A definition that raises aborts the
scan with its own error.  Pairs are then deduplicated by their joint
(orbit signature, generating function) fingerprint across the range, since
two maps with the same orbit structure sieve for exactly the same generating
functions.  The scan is one loop over the pairs, statistic by statistic.  A
statistic that borrows an equidistributed statistic's generating function
shares everything below with its lender, the *definer* (``gf_key``).  The
loop loads each definer's generating function from the cache, under
``gf_<definer>``, or computes and stores it, the first time a pair needs it;
it builds the order, orbit polynomial, fixed-point counts and signature of
each (map, n) from the declared orbit structure the first time a pair needs
them; it folds each generating function once per (definer, n, order), and
decides each verdict, witness included, once per (definer, n, orbit
signature), all in dicts local to the ``scan`` call.  Reports are
deterministic: the loop emits rows and verdicts in sorted key order, and the
cache cannot change any value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import groupby, product
from operator import attrgetter
from typing import Optional, Sequence

from .bijections import get_map, map_keys
from .cache import RecordCache
from .errors import UsageError
from .orbits import orbit_sizes
from .polynomials import IntPolynomial
from .sieving import CspVerdict, OrbitParts, generating_function, orbit_parts, verdict_from_parts
from .statistics import get_statistic, statistic_keys

MIN_SCAN_N = 1
MAX_SCAN_N = 8


@dataclass(frozen=True)
class ScanRow:
    """One (pair, n) observation, written field for field by every report format.

    ``pair`` is ``"<stat>|<map>"``, ``table`` the fixed-point counts of the
    map's powers, and ``gf`` the statistic's generating function on S_n.
    """

    pair: str
    n: int
    holds: bool
    table: tuple[int, ...]
    signature: str
    gf: IntPolynomial


@dataclass(frozen=True)
class PairVerdict:
    pair: str
    stat_key: str
    map_key: str
    status: str  # "apparent" | "fail" | "skipped"
    checked_ns: tuple[int, ...]
    failing_n: Optional[int] = None
    witness_d: Optional[int] = None
    reason: str = ""


@dataclass(frozen=True)
class DedupClass:
    members: tuple[str, ...]
    apparent: bool
    signatures: tuple[str, ...]


@dataclass(frozen=True)
class ScanReport:
    n_min: int
    n_max: int
    rows: tuple[ScanRow, ...]
    verdicts: tuple[PairVerdict, ...]
    classes: tuple[DedupClass, ...] = field(default=())

    def summary(self) -> dict[str, int]:
        counts = {"pairs": len(self.verdicts), "apparent": 0, "fail": 0, "skipped": 0}
        for v in self.verdicts:
            counts[v.status] += 1
        counts["classes"] = len(self.classes)
        counts["apparent_classes"] = sum(1 for c in self.classes if c.apparent)
        return counts


def scan(
    n_min: int = 4,
    n_max: int = 6,
    stats: Optional[Sequence[str]] = None,
    maps: Optional[Sequence[str]] = None,
    cache: Optional[RecordCache] = None,
) -> ScanReport:
    """Check every selected (statistic, map) pair on n_min..n_max, once each.

    ``stats`` or ``maps`` None selects every registered one; an empty
    selection is a :class:`UsageError`.

    The default range 4..6 keeps false negatives rare (several statistics are
    degenerate on tiny permutations) while staying fast; wider ranges are
    opt-in up to n = 8.  One loop visits the pairs statistic by statistic, n
    ascending, and loads or computes each generating function the first time
    it needs it; only those missing from ``cache`` are computed, and each is
    stored as soon as it is, once per defining statistic.  A definition that
    raises aborts the scan.  A verdict depends on the map only through its
    orbit structure and on the statistic only through its generating
    function, so each is decided once per (definer, n, orbit signature).
    The report is byte-for-byte independent of the cache and of the order of
    ``stats`` and ``maps``.
    """
    if not MIN_SCAN_N <= n_min <= n_max <= MAX_SCAN_N:
        raise UsageError(f"scan range must satisfy {MIN_SCAN_N} <= n_min <= n_max <= {MAX_SCAN_N}")
    key = attrgetter("key")
    stat_list = sorted({get_statistic(s) for s in (statistic_keys() if stats is None else stats)}, key=key)
    map_list = sorted({get_map(m) for m in (map_keys() if maps is None else maps)}, key=key)
    if not stat_list or not map_list:
        raise UsageError("a scan needs at least one statistic and one map")
    # a statistic's generating function, and so each verdict, is its definer's (its gf_key)
    gfs: dict[tuple[str, int], IntPolynomial] = {}  # (definer, n)
    orbits: dict[tuple[str, int], OrbitParts] = {}  # (map, n)
    residues: dict[tuple[str, int, int], IntPolynomial] = {}  # (definer, n, order)
    decided: dict[tuple[str, int, str], CspVerdict] = {}  # (definer, n, signature): shared by its maps
    rows: list[ScanRow] = []
    verdicts: list[PairVerdict] = []
    for stat, mp in product(stat_list, map_list):
        s, m, definer = stat.key, mp.key, stat.gf_key
        pair = f"{s}|{m}"
        ns = range(max(n_min, stat.min_n, mp.min_n), n_max + 1)
        if not ns:
            verdicts.append(PairVerdict(pair, s, m, "skipped", (), reason="undefined on the whole range"))
            continue
        failing_n = witness = None
        for n in ns:
            if (definer, n) not in gfs:
                f = None if cache is None else cache.load_vector(f"gf_{definer}", n)
                if f is None:
                    f = generating_function(definer, n)
                    if cache is not None:
                        cache.store_vector(f"gf_{definer}", n, f)
                gfs[definer, n] = f
            if (m, n) not in orbits:
                orbits[m, n] = orbit_parts(orbit_sizes(m, n))
            f, orbit = gfs[definer, n], orbits[m, n]
            v = decided.get((definer, n, orbit.signature))
            if v is None:
                residue_f = residues.get((definer, n, orbit.order))
                if residue_f is None:
                    residue_f = residues[definer, n, orbit.order] = f.fold(orbit.order)
                v = decided[definer, n, orbit.signature] = verdict_from_parts(residue_f, f.min_exponent, orbit)
            rows.append(ScanRow(pair, n, v.holds, v.fixed, orbit.signature, f))
            if not v.holds and failing_n is None:
                # unequal residues of degree below the order differ at some root
                failing_n, witness = n, v.witnesses[0]
        status = "apparent" if failing_n is None else "fail"
        verdicts.append(PairVerdict(pair, s, m, status, tuple(ns), failing_n, witness))
    report = ScanReport(n_min, n_max, tuple(rows), tuple(verdicts))
    return replace(report, classes=dedupe(report))


def dedupe(report: ScanReport) -> tuple[DedupClass, ...]:
    """Group the pairs with rows, adjacent in (statistic, map, n) order, by (signature, gf) fingerprint."""
    status = {v.pair: v.status for v in report.verdicts}
    classes: dict[tuple, list[str]] = {}
    for pair, rows in groupby(report.rows, key=attrgetter("pair")):
        key = tuple((r.n, r.signature, r.gf) for r in rows)
        classes.setdefault(key, []).append(pair)
    out = []
    for key, members in classes.items():
        members = tuple(sorted(members))
        out.append(DedupClass(members, status[members[0]] == "apparent", tuple(sig for _, sig, _ in key)))
    out.sort(key=lambda c: c.members)
    return tuple(out)


INSTANCE_FAMILIES: dict[str, tuple[tuple[str, tuple[str, ...], str], ...]] = {
    "involutions with 2^(n-1) fixed points": (
        ("st039", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st223", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st356", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st358", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st317", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st1744", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st371", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st372", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st1683", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st1687", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st360", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st357", ("corteel", "invert_laguerre_heap"), "n>=4"),
        ("st1004", ("corteel", "invert_laguerre_heap"), "even"),
    ),
    "involutions with 2^(floor(n/2)) fixed points": (
        ("extrema_sum", ("alexandersson_kebede", "psi_block"), "n>=4"),
        ("st1005", ("alexandersson_kebede", "psi_block"), "n>=4"),
        ("st1727", ("alexandersson_kebede", "psi_block"), "n>=4"),
    ),
    "involutions without fixed points": (
        ("st031", ("reverse", "complement"), "n>=4"),
        ("st007", ("reverse", "complement"), "n>=4"),
        ("st314", ("reverse", "complement"), "n>=4"),
        ("st541", ("reverse", "complement"), "n>=4"),
        ("st542", ("reverse", "complement"), "n>=4"),
        ("st991", ("reverse", "complement"), "n>=4"),
        ("st216", ("reverse", "complement"), "n>=4"),
        ("st316", ("reverse", "complement"), "n>=4"),
        ("st864", ("reverse", "complement"), "n>=4"),
        ("st495", ("reverse", "complement"), "n>=4"),
        ("st494", ("reverse", "complement"), "odd"),
        ("st021", ("reverse", "complement"), "even"),
        ("st836", ("reverse", "complement"), "odd"),
        ("st1520", ("reverse", "complement"), "even"),
        ("st483", ("reverse", "complement"), "n>=4"),
        ("st538", ("reverse", "complement"), "n>=4"),
        ("st638", ("reverse", "complement"), "n>=4"),
        ("st677", ("reverse", "complement"), "n>=4"),
        ("st809", ("reverse", "complement"), "n>=4"),
        ("st1579", ("reverse", "complement"), "n>=4"),
        ("st1076", ("reverse", "complement"), "n>=4"),
        ("st1077", ("reverse", "complement"), "n>=4"),
        ("st1114", ("reverse", "complement"), "n>=4"),
        ("st1115", ("reverse", "complement"), "n>=4"),
        ("st1726", ("reverse", "complement"), "n>=4"),
        ("st436", ("reverse", "complement"), "n>=4"),
        ("st423", ("reverse", "complement"), "n>=4"),
        ("st428", ("reverse", "complement"), "n>=4"),
        ("st437", ("reverse", "complement"), "n>=4"),
    ),
    "maps with constant orbit size": (
        ("st004", ("rotation", "toric_promotion", "reverse", "complement"), "n>=4"),
        ("st018", ("rotation", "toric_promotion", "reverse", "complement"), "n>=4"),
        ("st833", ("rotation", "toric_promotion", "reverse", "complement"), "n>=4"),
        ("st020", ("rotation", "lehmer_code_rotation", "toric_promotion", "reverse", "complement"), "n>=4"),
        ("st054", ("rotation",), "n>=4"),
        ("st740", ("rotation",), "n>=4"),
        ("st1806", ("rotation",), "n>=4"),
        ("st1807", ("rotation",), "n>=4"),
        ("st1557", ("toric_promotion",), "n>=4"),
        ("st1911", ("toric_promotion",), "n>=4"),
    ),
    "conjugation by the long cycle": (
        ("st825", ("conj_long_cycle",), "n>=4"),
        ("st1379", ("conj_long_cycle",), "n>=4"),
        ("st1377", ("conj_long_cycle",), "n>=4"),
        ("maj_minus_imaj", ("conj_long_cycle",), "n>=4"),
        ("st462", ("conj_long_cycle",), "n>=4"),
        ("st463", ("conj_long_cycle",), "n>=4"),
        ("st866", ("conj_long_cycle",), "n>=4"),
        ("st961", ("conj_long_cycle",), "n>=4"),
    ),
}
"""Proven instances as (stat, maps, n-condition) rows, grouped by the orbit structure
of the map; "even"/"odd" restrict the range."""

KNOWN_INSTANCES: tuple[tuple[str, str, str], ...] = tuple(
    (stat, mp, condition)
    for rows in INSTANCE_FAMILIES.values()
    for stat, maps, condition in rows
    for mp in maps
)
"""The catalog flattened to (stat, map, n-condition) triples, in family order."""


def instance_applies(condition: str, n: int) -> bool:
    if condition == "even":
        return n % 2 == 0
    if condition == "odd":
        return n % 2 == 1
    if condition.startswith("n>="):
        return n >= int(condition[3:])
    raise ValueError(f"unknown condition {condition!r}")

