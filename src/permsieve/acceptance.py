"""The acceptance gate: twelve exact criteria, each pass/fail.

Every check is an exact integer comparison (tolerance zero).  The functions
here are used both by ``permsieve verify`` and by the acceptance test module;
each returns a :class:`CriterionResult` whose details list failures, plus
recorded observations where a criterion asks for one.  The criteria are
independent: :func:`run_all`, which ``permsieve verify`` calls, runs them in
a pool of worker processes, at most one per CPU this process may run on, and
returns their results in criterion order; the tests call each criterion
in-process.
"""

from __future__ import annotations

import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import comb, factorial
from typing import Callable, Optional

from .bijections import MAPS, get_map
from .bijections.laguerre import laguerre_decode, laguerre_encode
from .bijections.motzkin import fz_decode, fz_encode, motzkin_complement
from .errors import PermsieveError
from .orbits import decompose, orbit_signature
from .permutations import parse_permutation, symmetric_group
from .polynomials import IntPolynomial
from .scan import INSTANCE_FAMILIES, instance_applies
from .sieving import (
    _enumerated_gf,
    csp_check,
    equidistribution,
    generating_function,
    parity_pairing_check,
    q_minus_one,
)
from .statistics import (
    crossings_gf_closed,
    descent_variant_gf,
    get_statistic,
    q_eulerian_hat,
    shifted_circled_gf,
    statistic_keys,
)
from .statistics.basic import width_k_descents_gf
from .statistics.closed_forms import shifted_tableaux_count, strict_partitions


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: list[str] = field(default_factory=list)


def _check_family(family: str, ns, failures: list[str]) -> None:
    """Check every catalog row of ``family`` at each n in ``ns`` its condition admits."""
    for stat, maps, condition in INSTANCE_FAMILIES[family]:
        for mp in maps:
            for n in ns:
                if instance_applies(condition, n) and not csp_check(stat, mp, n).holds:
                    failures.append(f"({stat}, {mp}) fails at n={n}")


def criterion_1() -> CriterionResult:
    """Worked examples reproduce bit-exactly."""
    failures = []
    sigma = parse_permutation("1,7,6,3,8,10,9,12,2,11,4,5")
    path = fz_encode(sigma)
    if "".join(path.word) != "buurubbbdbdd":
        failures.append(f"word {path.word}")
    if path.weights != (0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0):
        failures.append(f"weights {path.weights}")
    if path.heights != (0, 0, 1, 2, 2, 3, 3, 3, 2, 2, 1, 0):
        failures.append(f"heights {path.heights}")
    comp = motzkin_complement(path)
    if comp.weights != (0, 0, 0, 0, 2, 3, 2, 3, 2, 1, 1, 0):
        failures.append(f"complement weights {comp.weights}")
    image = fz_decode(comp)
    expected = parse_permutation("1,10,12,2,7,6,9,8,5,11,4,3")
    if image != expected:
        failures.append(f"corteel image {image}")
    laguerre_image = get_map("invert_laguerre_heap")(expected)
    if laguerre_image != parse_permutation("1,11,4,3,9,8,5,7,6,12,2,10"):
        failures.append(f"laguerre image {laguerre_image}")
    if get_map("alexandersson_kebede")(parse_permutation("2134756")) != parse_permutation("2134576"):
        failures.append("alexandersson_kebede worked example")
    return CriterionResult(1, "worked examples bit-exact", not failures, failures)


def criterion_2() -> CriterionResult:
    """Fixed-point counts on S_n for n = 4..8."""
    failures = []
    cases = [
        ("corteel", lambda n: 2 ** (n - 1)),
        ("invert_laguerre_heap", lambda n: 2 ** (n - 1)),
        ("alexandersson_kebede", lambda n: 2 ** (n // 2)),
    ]
    for key, expected in cases:
        mp = get_map(key)
        for n in range(4, 9):
            count = sum(1 for p in symmetric_group(n) if mp(p) == p)
            if count != expected(n):
                failures.append(f"{key} has {count} fixed points on S_{n}, wanted {expected(n)}")
    return CriterionResult(2, "fixed-point counts 2^(n-1) and 2^(n//2), n=4..8", not failures, failures)


def criterion_3() -> CriterionResult:
    """Sieving vs corteel and invert Laguerre heap, n = 4..7."""
    failures = []
    _check_family("involutions with 2^(n-1) fixed points", range(4, 8), failures)
    details = []
    for n in (5, 7):
        value = q_minus_one("st1004", n)
        details.append(f"st1004 f(-1) at odd n={n}: {value}")
        if value >= 0:
            failures.append(f"st1004 f(-1) at odd n={n} is {value}, expected negative")
    return CriterionResult(3, "2^(n-1) involution sieving, n=4..7", not failures, failures + details)


def criterion_4() -> CriterionResult:
    """Sieving vs alexandersson_kebede and psi_block, n = 4..7."""
    failures = []
    _check_family("involutions with 2^(floor(n/2)) fixed points", range(4, 8), failures)
    return CriterionResult(4, "2^(n//2) involution sieving, n=4..7", not failures, failures)


def criterion_5() -> CriterionResult:
    """Sieving vs reverse and complement, n = 4..7, ranges per statement."""
    failures = []
    details = []
    _check_family("involutions without fixed points", range(4, 8), failures)
    # documented small-n failures reproduce exactly
    f483 = generating_function("st483", 3)
    if f483 != IntPolynomial((2, 4), 0):
        failures.append(f"st483 gf at n=3 is {f483}, wanted 2 + 4q")
    if csp_check("st483", "reverse", 3).holds:
        failures.append("st483 unexpectedly sieves at n=3")
    if generating_function("st538", 2) != IntPolynomial((2,), 0):
        failures.append("st538 gf at n=2 is not the constant 2")
    if csp_check("st538", "reverse", 2).holds:
        failures.append("st538 unexpectedly sieves at n=2")
    # pattern-pair statistics: record the smallest n where f(-1) vanishes
    for key in ("st436", "st423", "st428", "st437"):
        vanishing = [n for n in range(2, 9) if q_minus_one(key, n) == 0]
        smallest = min(vanishing) if vanishing else None
        details.append(f"{key}: smallest n with f(-1) = 0 is {smallest}")
        if smallest != 4:
            failures.append(f"{key} first vanishes at {smallest}, expected 4")
    return CriterionResult(5, "fixed-point-free involution sieving, n=4..7", not failures, failures + details)


def criterion_6() -> CriterionResult:
    """Sieving for constant-orbit-size maps, n = 4..7."""
    failures = []
    _check_family("maps with constant orbit size", range(4, 8), failures)
    return CriterionResult(6, "constant-orbit-size sieving, n=4..7", not failures, failures)


def criterion_7() -> CriterionResult:
    """Sieving under conjugation by the long cycle, n = 4..6."""
    failures = []
    _check_family("conjugation by the long cycle", range(4, 7), failures)
    return CriterionResult(7, "long-cycle conjugation sieving, n=4..6", not failures, failures)


def criterion_8() -> CriterionResult:
    """Structural properties: declared orbit structures, round trips, pairings."""
    failures = []
    for key, desc in MAPS.items():
        for n in range(4, 8):
            # orbit_sizes reads the declaration, so only the walk can check it
            try:
                walked = decompose(key, n)
            except PermsieveError as exc:
                failures.append(f"orbit walk failed: {exc}")
                continue
            if walked != (declared := desc.sizes(n)):
                failures.append(f"{key} orbit structure on S_{n}: {orbit_signature(walked)}, "
                                f"declared {orbit_signature(declared)}")
    for p in symmetric_group(7):
        if fz_decode(fz_encode(p)) != p:
            failures.append(f"fz round trip fails at {p}")
            break
    for p in symmetric_group(6):
        if laguerre_decode(laguerre_encode(p)) != p:
            failures.append(f"laguerre round trip fails at {p}")
            break
    for stat, inv_key in (("st371", "psi_3star"), ("st360", "psi_32_1"), ("st1727", "psi_block")):
        mp = get_map(inv_key)
        for n in range(1, 8):
            if not parity_pairing_check(stat, mp, 0, n):
                failures.append(f"parity pairing ({stat}, {inv_key}) fails at n={n}")
    return CriterionResult(8, "structural properties", not failures, failures)


def _brute_shifted_tableaux(shape: tuple[int, ...]) -> int:
    """Independent count: fill the shifted diagram cell by cell."""
    cells = [(r, c) for r, length in enumerate(shape) for c in range(r, r + length)]
    order = []

    def used(cell):
        return cell in order

    def can_place(cell):
        r, c = cell
        left = (r, c - 1)
        up = (r - 1, c)
        if left in cells and not used(left):
            return False
        if up in cells and not used(up):
            return False
        return True

    def count() -> int:
        if len(order) == len(cells):
            return 1
        total = 0
        for cell in cells:
            if not used(cell) and can_place(cell):
                order.append(cell)
                total += count()
                order.pop()
        return total

    return count()


def criterion_9() -> CriterionResult:
    """Registered generating functions match empirical generating functions.

    Each ``gf`` with an evaluator (a closed form, another statistic's
    generating function or a distance count) is checked against enumeration
    of S_n; the crossing closed form and the shifted-tableau count, which
    nothing enumerates, are checked besides.
    """
    failures = []
    for key in statistic_keys():
        desc = get_statistic(key)
        if desc.gf is None or desc.evaluator is None:
            continue
        for n in range(max(4, desc.min_n), 8):
            if _enumerated_gf(desc, n) != generating_function(key, n):
                failures.append(f"{key} gf differs from enumeration at n={n}")
    for n in range(4, 8):
        recomputed = IntPolynomial.zero()
        one_plus_q = IntPolynomial((1, 1), 0)
        for shape in strict_partitions(n):
            g = _brute_shifted_tableaux(shape)
            if g != shifted_tableaux_count(shape):
                failures.append(f"tableau count mismatch for {shape}")
            term = IntPolynomial((g * g,), 0)
            for _ in range(n - len(shape)):
                term = term * one_plus_q
            recomputed = recomputed + term
        if recomputed != shifted_circled_gf(n):
            failures.append(f"shifted circled gf mismatch at n={n}")
    st039 = get_statistic("st039")
    for n in range(4, 9):
        # below n = 8 the loop above has checked st039's generating function against enumeration
        crossing = generating_function("st039", n)
        if crossings_gf_closed(n) != crossing or (n == 8 and _enumerated_gf(st039, n) != crossing):
            failures.append(f"crossing gf mismatch at n={n}")
        for k in range(1, n + 1):
            if q_eulerian_hat(k, n).evaluate(-1) != comb(n - 1, k - 1):
                failures.append(f"E_hat({k},{n})(-1) != C({n-1},{k-1})")
    return CriterionResult(9, "closed forms match empirical gfs", not failures, failures)


def criterion_10() -> CriterionResult:
    """Observations behind the conjectured instances."""
    failures = []
    for n in range(4, 9):
        if not equidistribution("st373", "st317", n):
            failures.append(f"st373 and st317 differ at n={n}")
    for n in (4, 6, 8):
        value = q_minus_one("st494", n)
        if value != 0:
            failures.append(f"st494 f(-1) at n={n} is {value}")
    # the width-k gf is a product of Eulerian polynomials A_l over the k chains of
    # positions mod k, and A_l(-1) = 0 exactly for even l: it fails iff n = k (mod 2k)
    cases = [(n, k) for n in range(4, 9) for k in range(1, n)]
    inconsistent = [(n, k) for n, k in cases
                    if (width_k_descents_gf(n, k).evaluate(-1) == 0) == (n % (2 * k) == k)]
    details = [f"width-k observation: {len(cases)} (n, k) cases, "
               f"{len(inconsistent)} inconsistent with the n = k (mod 2k) failure rule"]
    if inconsistent:
        failures.append(f"width-k rule violated at {inconsistent[:3]}")
    closed = {n: descent_variant_gf(n) for n in range(3, 8)}
    for n, gf in closed.items():
        if gf == generating_function("st1911", n):
            failures.append(f"descent variant closed form unexpectedly matches at n={n}")
    details.append("descent variant closed form at q=1 vs n!: "
                   + ", ".join(f"n={n}: {gf.evaluate(1)} vs {factorial(n)}" for n, gf in closed.items()))
    return CriterionResult(10, "conjecture suite", not failures, failures + details)


def criterion_11() -> CriterionResult:
    """Negative controls: non-instances must fail."""
    failures = []
    if csp_check("st539", "reverse", 4).holds:
        failures.append("(st539, reverse) unexpectedly sieves at n=4")
    for key in statistic_keys():
        stat = get_statistic(key)
        holds_everywhere = True
        for n in range(4, 7):
            if n < stat.min_n:
                continue
            if not csp_check(key, "inverse", n).holds:
                holds_everywhere = False
                break
        if holds_everywhere:
            failures.append(f"({key}, inverse) sieves on all of n=4..6")
    return CriterionResult(11, "negative controls", not failures, failures)


def criterion_12() -> CriterionResult:
    """Scan determinism: cold vs warm cache, any worker count.

    The ``--workers 2`` run has a cache of its own, so it computes every
    generating function again; the flag changes nothing, and neither may the
    report.
    """
    from .cli import main as cli_main

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for tag, cache, extra in (
            ("cold", "cache", []),
            ("warm", "cache", []),
            ("workers2", "cache2", ["--workers", "2"]),
        ):
            out_path = f"{tmp}/report_{tag}.json"
            code = cli_main(
                ["scan", "--min-n", "4", "--max-n", "6",
                 "--cache-dir", f"{tmp}/{cache}", "--output", out_path] + extra
            )
            if code != 0:
                failures.append(f"scan exited {code} on {tag} run")
                continue
            with open(out_path, "rb") as fh:
                outputs.append(fh.read())
        if len(set(outputs)) > 1:
            failures.append("scan reports differ across cold/warm/parallel runs")
    return CriterionResult(12, "scan determinism (cold/warm cache, worker count)", not failures, failures)


CRITERIA: tuple[tuple[int, Callable[[], CriterionResult]], ...] = (
    (1, criterion_1), (2, criterion_2), (3, criterion_3), (4, criterion_4),
    (5, criterion_5), (6, criterion_6), (7, criterion_7), (8, criterion_8),
    (9, criterion_9), (10, criterion_10), (11, criterion_11), (12, criterion_12),
)


def _run_criterion(number: int) -> CriterionResult:
    """Run criterion ``number`` as ``CRITERIA`` holds it when the worker calls it."""
    return dict(CRITERIA)[number]()


def run_all(numbers: Optional[list[int]] = None) -> list[CriterionResult]:
    """Run the selected criteria (all when ``numbers`` is empty) in worker processes.

    The results come back in criterion order; the first criterion, in that
    order, that raises makes this raise.
    """
    selected = set(numbers) if numbers else {k for k, _ in CRITERIA}
    ordered = [k for k, _ in CRITERIA if k in selected]
    if not ordered:
        return []
    # the CPUs this process may run on, which a restricted affinity makes fewer than the host's
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ProcessPoolExecutor(max_workers=min(len(ordered), cpus)) as pool:
        return list(pool.map(_run_criterion, ordered))
