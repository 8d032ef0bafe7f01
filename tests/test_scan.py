"""The pair scanner: classification, dedup, determinism; two conjecture observations."""

from functools import cached_property
from importlib import import_module
from itertools import permutations

import pytest

from permsieve.cache import RecordCache
from permsieve.errors import PermsieveError, UsageError
from permsieve.scan import (
    KNOWN_INSTANCES,
    dedupe,
    instance_applies,
    scan,
)
from permsieve.sieving import q_minus_one
from permsieve.statistics.basic import width_k_descents, width_k_descents_gf

SMALL_STATS = ["st018", "st021", "st039", "st223", "st539", "st031"]
SMALL_MAPS = ["reverse", "complement", "corteel", "rotation", "inverse"]


@pytest.fixture(scope="module")
def small_report():
    return scan(4, 5, stats=SMALL_STATS, maps=SMALL_MAPS)


class TestScan:
    def test_every_pair_appears_once(self, small_report):
        pairs = [v.pair for v in small_report.verdicts]
        assert len(pairs) == len(set(pairs)) == len(SMALL_STATS) * len(SMALL_MAPS)

    def test_rows_schema(self, small_report):
        row = small_report.rows[0]
        assert row._fields == ("pair", "n", "holds", "table", "signature", "gf")
        stat, mp = row.pair.split("|")
        assert stat in SMALL_STATS and mp in SMALL_MAPS
        assert row.table[0] == (24 if row.n == 4 else 120) == row.gf.evaluate(1)

    def test_known_positive(self, small_report):
        verdicts = {v.pair: v for v in small_report.verdicts}
        assert verdicts["st039|corteel"].status == "apparent"
        assert verdicts["st018|rotation"].status == "apparent"

    def test_known_negative_records_witness(self, small_report):
        verdicts = {v.pair: v for v in small_report.verdicts}
        v = verdicts["st539|reverse"]
        assert v.status == "fail"
        assert v.failing_n == 4
        assert v.witness_d == 1

    def test_inverse_map_never_apparent(self, small_report):
        for v in small_report.verdicts:
            if v.map_key == "inverse":
                assert v.status == "fail"

    def test_range_validation(self):
        with pytest.raises(ValueError):
            scan(3, 9)

    @pytest.mark.parametrize("selection", [{"stats": []}, {"maps": []}, {"stats": (), "maps": ["reverse"]}],
                             ids=["no-stats", "no-maps", "empty-tuple"])
    def test_empty_selection_refused(self, selection):
        """Only None selects everything; an empty selection is a usage error."""
        with pytest.raises(UsageError, match="at least one statistic and one map"):
            scan(4, 4, **selection)

    def test_trivial_range_all_pass(self):
        report = scan(1, 1, stats=["st018", "st021", "st031"], maps=["reverse", "rotation"])
        assert all(v.status == "apparent" for v in report.verdicts)

    def test_undefined_statistic_skipped(self):
        report = scan(2, 3, stats=["st1520", "st018"], maps=["reverse"])
        verdicts = {v.pair: v for v in report.verdicts}
        assert verdicts["st1520|reverse"].status == "skipped"
        assert verdicts["st018|reverse"].status in ("apparent", "fail")

    def test_builds_each_map_part_once(self, monkeypatch):
        # import_module: the package binds the name ``scan`` to the function
        module = import_module("permsieve.scan")
        built = []
        orbit_parts = module.orbit_parts
        monkeypatch.setattr(module, "orbit_parts", lambda sizes: built.append(sizes) or orbit_parts(sizes))
        scan(4, 5, stats=["st018", "st021", "st039"], maps=["reverse", "corteel"])
        assert len(built) == 4  # 2 maps x 2 n, shared by the 3 statistics

    def test_each_verdict_decided_once_per_statistic_n_and_signature(self, monkeypatch):
        """reverse, complement and swap_first_two have signature 2^12 on S_4, rotation 4^6."""
        module = import_module("permsieve.scan")
        decided = []
        verdict_from_parts = module.verdict_from_parts
        monkeypatch.setattr(module, "verdict_from_parts",
                            lambda *args: decided.append(args) or verdict_from_parts(*args))
        report = scan(4, 4, stats=["st018", "st539"],
                      maps=["reverse", "complement", "swap_first_two", "rotation"])
        assert len(report.rows) == 8
        assert {(r.pair.split("|")[0], r.signature) for r in report.rows} == {
            (s, sig) for s in ("st018", "st539") for sig in ("2^12", "4^6")}
        assert len(decided) == 4

    def test_witnesses_found_once_per_statistic_n_and_signature(self, monkeypatch):
        """reverse, complement and swap_first_two all have signature 2^12 on S_4."""
        from permsieve.sieving import CspVerdict

        found = []
        witnesses = CspVerdict.__dict__["witnesses"]
        # a cached property like the original, so that a verdict read twice computes once
        spy = cached_property(lambda v: found.append(v) or witnesses.func(v))
        spy.__set_name__(CspVerdict, "witnesses")
        monkeypatch.setattr(CspVerdict, "witnesses", spy)
        report = scan(4, 4, stats=["st539"], maps=["reverse", "complement", "swap_first_two"])
        assert [(v.status, v.failing_n, v.witness_d) for v in report.verdicts] == [("fail", 4, 1)] * 3
        assert len(found) == 1

    def test_argument_order_does_not_change_report(self):
        report = scan(4, 5, stats=[*reversed(SMALL_STATS), "st018"],
                      maps=[*reversed(SMALL_MAPS), "rotation"])
        assert report == scan(4, 5, stats=sorted(SMALL_STATS), maps=sorted(SMALL_MAPS))
        assert list(report.rows) == sorted(report.rows, key=lambda r: (*r.pair.split("|"), r.n))
        assert list(report.verdicts) == sorted(report.verdicts, key=lambda v: (v.stat_key, v.map_key))
        assert dedupe(report) == report.classes

    @pytest.mark.parametrize("attempts", [1, 2])
    def test_raising_definition_fails_the_scan(self, faulty_st018, tmp_path, attempts):
        """Every attempt fails: a repeat reads the part stored before the fault and meets it again."""
        cache = RecordCache(tmp_path)
        for _ in range(attempts):
            with pytest.raises(PermsieveError, match=faulty_st018):
                scan(4, 5, stats=["st018"], maps=["reverse"], cache=cache)
        assert cache.load_vector("gf_st018", 4) is not None
        assert cache.load_vector("gf_st018", 5) is None

    @pytest.mark.parametrize("stats, maps, once_stats, once_maps", [
        (["st018", "18"], ["reverse"], ["st018"], ["reverse"]),
        (["st018"], ["reverse", "reverse"], ["st018"], ["reverse"]),
        (["st018"], ["first-two", "swap_first_two"], ["st018"], ["swap_first_two"]),
    ], ids=["stat-key-and-id", "map-twice", "map-alias-and-key"])
    def test_key_named_twice_counts_once(self, stats, maps, once_stats, once_maps):
        report = scan(4, 4, stats=stats, maps=maps)
        assert report == scan(4, 4, stats=once_stats, maps=once_maps)
        assert report.summary()["pairs"] == 1


class TestDedupe:
    def test_reverse_complement_share_class(self, small_report):
        for c in small_report.classes:
            members = set(c.members)
            if "st018|reverse" in members:
                assert "st018|complement" in members

    def test_crossing_family_collapses(self):
        report = scan(4, 5, stats=["st039", "st223"], maps=["corteel"])
        assert len(report.classes) == 1
        assert set(report.classes[0].members) == {"st039|corteel", "st223|corteel"}

    def test_different_fixed_counts_split(self):
        report = scan(4, 5, stats=["extrema_sum"], maps=["corteel", "alexandersson_kebede"])
        assert len(report.classes) == 2

    def test_classes_are_disjoint(self, small_report):
        seen = set()
        for c in small_report.classes:
            for m in c.members:
                assert m not in seen
                seen.add(m)

    def test_dedupe_function_matches_report(self, small_report):
        assert dedupe(small_report) == small_report.classes


class TestKnownInstances:
    def test_catalog_covers_both_2n1_involutions(self):
        maps_for_039 = {m for s, m, _ in KNOWN_INSTANCES if s == "st039"}
        assert maps_for_039 == {"corteel", "invert_laguerre_heap"}

    def test_condition_parser(self):
        assert instance_applies("even", 4) and not instance_applies("even", 5)
        assert instance_applies("odd", 5) and not instance_applies("odd", 4)
        assert instance_applies("n>=4", 7) and not instance_applies("n>=4", 3)

    def test_unconditional_instances_apparent_in_default_scan(self):
        """No paper-proven all-n pair may scan as a failure (no false negatives)."""
        report = scan(4, 6)
        verdicts = {v.pair: v for v in report.verdicts}
        for stat, mp, condition in KNOWN_INSTANCES:
            if condition == "n>=4":
                assert verdicts[f"{stat}|{mp}"].status == "apparent", (stat, mp)

    def test_parity_conditioned_instances_hold_on_their_ns(self):
        from permsieve.sieving import csp_check

        for stat, mp, condition in KNOWN_INSTANCES:
            if condition in ("even", "odd"):
                for n in (4, 5, 6):
                    if instance_applies(condition, n):
                        assert csp_check(stat, mp, n).holds, (stat, mp, n)


class TestConjectureSuite:
    def test_dist3_vanishing(self):
        for n in (4, 5, 6):
            assert q_minus_one("st494", n) == 0, n

    def test_width_k_values_match_a_walk_per_width(self):
        for n in range(1, 9):
            for k in range(1, n):
                brute = sum((-1) ** width_k_descents(p, k) for p in permutations(range(1, n + 1)))
                assert width_k_descents_gf(n, k).evaluate(-1) == brute, (n, k)
