"""Acceptance gate: every criterion runs at its stated range with zero tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or via
``permsieve verify``) and fails loudly with the recorded details otherwise.
"""

import multiprocessing
from importlib import import_module
from math import factorial
from types import SimpleNamespace

import pytest

from permsieve import acceptance
from permsieve.scan import INSTANCE_FAMILIES, KNOWN_INSTANCES, instance_applies

CRITERIA = {number: fn for number, fn in acceptance.CRITERIA}


def _run(number):
    result = CRITERIA[number]()
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:2d} [{status}] {result.title}")
    for note in result.details:
        print(f"    {note}")
    assert result.passed, f"criterion {number}: {result.details}"
    return result


def test_criterion_01_worked_examples():
    _run(1)


def test_criterion_02_fixed_point_counts():
    _run(2)


def test_criterion_03_corteel_laguerre_sieving():
    result = _run(3)
    # the odd-n observation is recorded, not just asserted
    assert any("st1004" in note for note in result.details)


def test_criterion_04_alexandersson_kebede_sieving():
    _run(4)


def test_criterion_05_fixed_point_free_sieving():
    result = _run(5)
    assert any("smallest n" in note for note in result.details)


def test_criterion_06_constant_orbit_sieving():
    _run(6)


def test_criterion_07_long_cycle_sieving():
    _run(7)


def test_criterion_08_structural_properties():
    _run(8)


def test_criterion_08_rejects_a_wrong_orbit_size_declaration(monkeypatch):
    """Rotation declared with n fixed points, or with orbits of size n - 1, fails on its orbit structure.

    Each declaration covers the n! permutations, and the first names rotation's
    own orbit size n, so only the exact structure of the walk rejects it."""
    from permsieve.bijections import MAPS, MapDescriptor, rotation

    key = "rotation_declared_n_fixed_points"
    monkeypatch.setitem(MAPS, key, MapDescriptor(key, key, rotation,
                                                 sizes=lambda n: {1: n, n: factorial(n - 1) - 1}))
    single = "rotation_declared_n_minus_1"
    monkeypatch.setitem(MAPS, single, MapDescriptor(single, single, rotation,
                                                    sizes=lambda n: {n - 1: factorial(n) // (n - 1)}))
    result = acceptance.criterion_8()
    assert not result.passed
    assert result.details == [
        f"{key} orbit structure on S_{n}: {n}^{factorial(n - 1)}, declared 1^{n} {n}^{factorial(n - 1) - 1}"
        for n in range(4, 8)
    ] + [
        f"{single} orbit structure on S_{n}: {n}^{factorial(n - 1)}, "
        f"declared {n - 1}^{factorial(n) // (n - 1)}"
        for n in range(4, 8)
    ]


def test_criterion_08_reports_a_faulty_walk(monkeypatch):
    """A map with a declared structure whose images leave S_n fails the criterion instead of raising."""
    from permsieve.bijections import MAPS, MapDescriptor

    key = "shift_down"
    monkeypatch.setitem(MAPS, key, MapDescriptor(key, "leaves [n]", lambda p: tuple(v - 1 for v in p),
                                                 sizes=lambda n: {2: factorial(n) // 2}))
    result = acceptance.criterion_8()
    assert not result.passed
    assert result.details == [
        f"orbit walk failed: shift_down maps into {tuple(range(n))!r}, which is not in S_{n}"
        for n in range(4, 8)
    ]


def test_criterion_09_closed_forms():
    _run(9)


def test_criterion_10_conjecture_suite():
    result = _run(10)
    assert result.details == [
        "width-k observation: 25 (n, k) cases, 0 inconsistent with the n = k (mod 2k) failure rule",
        "descent variant closed form at q=1 vs n!: n=3: 12 vs 6, n=4: 108 vs 24, n=5: 1280 vs 120, "
        "n=6: 18750 vs 720, n=7: 326592 vs 5040",
    ]


def test_criterion_11_negative_controls():
    _run(11)


def test_criterion_12_scan_determinism():
    _run(12)


def test_criterion_12_passes_and_starts_no_pool(monkeypatch):
    """The ``--workers 2`` scan runs in this process like the other two."""

    def no_pool(*_args, **_kwargs):
        raise AssertionError("a scan started a process pool")

    monkeypatch.setattr(import_module("concurrent.futures"), "ProcessPoolExecutor", no_pool)
    assert acceptance.criterion_12().passed


def test_criterion_12_reports_a_failed_scan(monkeypatch):
    """A scan that exits non-zero writes no report; the criterion fails instead of raising."""
    from permsieve.errors import UsageError

    def failing_scan(*args, **kwargs):
        raise UsageError("no scan")

    monkeypatch.setattr(import_module("permsieve.cli"), "scan", failing_scan)
    result = acceptance.criterion_12()
    assert not result.passed
    assert result.details == [f"scan exited 2 on {tag} run" for tag in ("cold", "warm", "workers2")]


def test_run_all_selector():
    results = acceptance.run_all([1, 7])
    assert [r.number for r in results] == [1, 7]
    assert all(r.passed for r in results)


def test_run_all_matches_the_criteria_run_in_process():
    """The worker processes return each criterion's result as an in-process call does, in criterion order."""
    numbers = [1, 6, 7, 11]
    assert acceptance.run_all(numbers[::-1]) == [CRITERIA[number]() for number in numbers]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("affinity, workers", [({0}, 1), (None, 3)], ids=["affinity", "no-affinity-call"])
def test_run_all_uses_at_most_one_worker_per_usable_cpu(monkeypatch, affinity, workers):
    """On a 64-CPU host, one usable CPU gives one worker; without ``os.sched_getaffinity``
    the host's count bounds the pool.  A fake pool stands in, so no process starts."""
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, numbers):
            return iter(numbers)

    if affinity is None:
        monkeypatch.delattr(acceptance.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(acceptance.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(acceptance.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(acceptance, "ProcessPoolExecutor", FakePool)
    assert acceptance.run_all([1, 7, 11]) == [1, 7, 11]
    assert pools == [workers]


def test_verify_reports_a_criterion_that_raises(monkeypatch, capsys):
    """A criterion's error crosses the worker process: ``verify`` prints it and exits 2."""
    from permsieve.cli import main
    from permsieve.errors import PermsieveError

    def raising():
        raise PermsieveError("map is not an involution at (2, 1)")

    monkeypatch.setattr(acceptance, "CRITERIA", tuple(
        (number, raising if number == 7 else fn) for number, fn in acceptance.CRITERIA))
    assert main(["verify", "--criteria", "1,7"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: map is not an involution at (2, 1)\n")
    assert multiprocessing.active_children() == []


def test_sieving_criteria_check_exactly_the_catalog(monkeypatch):
    """Criteria 3-7 check every catalog triple over the gate's ranges, one family each."""
    calls = {number: set() for number in range(3, 8)}

    def record(stat, mp, n):
        calls[number].add((stat, mp, n))
        return SimpleNamespace(holds=True)

    monkeypatch.setattr(acceptance, "csp_check", record)
    for number in calls:
        CRITERIA[number]()

    # n = 4..7, except conjugation by the long cycle at n = 4..6
    expected = {
        (stat, mp, n)
        for stat, mp, condition in KNOWN_INSTANCES
        for n in (range(4, 7) if mp == "conj_long_cycle" else range(4, 8))
        if instance_applies(condition, n)
    }
    checked = {(stat, mp, n) for triples in calls.values() for stat, mp, n in triples if n >= 4}
    assert len(expected) == 456
    assert checked == expected

    family_of = {
        (stat, mp): family
        for family, rows in INSTANCE_FAMILIES.items()
        for stat, maps, _ in rows
        for mp in maps
    }
    assert len(family_of) == len(KNOWN_INSTANCES)
    families = {
        number: {family_of[stat, mp] for stat, mp, n in triples if n >= 4}
        for number, triples in calls.items()
    }
    assert all(len(checked_families) == 1 for checked_families in families.values())
    assert sorted(f for fs in families.values() for f in fs) == sorted(INSTANCE_FAMILIES)
