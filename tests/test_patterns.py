"""Pattern counting against brute-force enumeration oracles."""

from itertools import combinations, permutations

import pytest

from permsieve.statistics import get_statistic
from permsieve.statistics.patterns import (
    PatternSpec,
    classical_pattern_count,
    pattern_count,
    vincular_pattern_count,
)


def brute_count(p, pattern, adjacent=frozenset()):
    """Oracle: enumerate all position tuples and test order-isomorphism."""
    k = len(pattern)
    total = 0
    for pos in combinations(range(1, len(p) + 1), k):
        if any(pos[t] != pos[t - 1] + 1 for t in adjacent):
            continue
        vals = [p[i - 1] for i in pos]
        if all(
            (vals[a] < vals[b]) == (pattern[a] < pattern[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            total += 1
    return total


class TestSpecParsing:
    def test_classical(self):
        spec = PatternSpec.from_string("132")
        assert spec.kind == "classical" and spec.adjacent == frozenset()

    def test_vincular(self):
        spec = PatternSpec.from_string("32-1")
        assert spec.kind == "vincular"
        assert spec.pattern == (3, 2, 1)
        assert spec.adjacent == frozenset({1})

    def test_trailing_glue(self):
        spec = PatternSpec.from_string("2-31")
        assert spec.adjacent == frozenset({2})

    def test_bad_pattern_rejected(self):
        with pytest.raises(Exception):
            PatternSpec.from_string("122")

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            PatternSpec("classical", (1, 2, 3, 4, 5))

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            classical_pattern_count((1, 2, 3), PatternSpec.from_string("32-1"))
        with pytest.raises(ValueError):
            vincular_pattern_count((1, 2, 3), PatternSpec.from_string("321"))


class TestAgainstOracle:
    @pytest.mark.parametrize("text", ["123", "132", "213", "231", "312", "321"])
    def test_classical_length3_exhaustive_s5(self, text):
        spec = PatternSpec.from_string(text)
        for p in permutations(range(1, 6)):
            assert pattern_count(p, spec) == brute_count(p, spec.pattern)

    @pytest.mark.parametrize("text", ["13-2", "31-2", "12-3", "32-1", "2-31", "1-32"])
    def test_vincular_exhaustive_s5(self, text):
        spec = PatternSpec.from_string(text)
        for p in permutations(range(1, 6)):
            assert pattern_count(p, spec) == brute_count(p, spec.pattern, spec.adjacent)

    def test_length4_classical(self):
        spec = PatternSpec.from_string("2413")
        for p in permutations(range(1, 7)):
            assert pattern_count(p, spec) == brute_count(p, spec.pattern)

    def test_fully_glued(self):
        spec = PatternSpec("vincular", (2, 1, 3), frozenset({1, 2}))
        for p in permutations(range(1, 6)):
            assert pattern_count(p, spec) == brute_count(p, spec.pattern, spec.adjacent)


REGISTERED_PATTERNS = {
    "st356": ("13-2",),
    "st357": ("12-3",),
    "st358": ("31-2",),
    "st360": ("32-1",),
    "st423": ("123", "132"),
    "st428": ("123", "213"),
    "st436": ("231", "321"),
    "st437": ("312", "321"),
}


class TestRegisteredKernels:
    @pytest.mark.parametrize("key", sorted(REGISTERED_PATTERNS))
    def test_kernel_matches_oracles_s1_to_s7(self, key):
        specs = [PatternSpec.from_string(text) for text in REGISTERED_PATTERNS[key]]
        evaluator = get_statistic(key).evaluator
        for n in range(1, 8):
            for p in permutations(range(1, n + 1)):
                want = sum(pattern_count(p, spec) for spec in specs)
                assert evaluator(p) == want, p
                assert want == sum(brute_count(p, spec.pattern, spec.adjacent) for spec in specs)


class TestWorkedExamples:
    def test_identity_avoids_descent_patterns(self):
        assert get_statistic("st360")((1, 2, 3, 4, 5)) == 0
        assert get_statistic("st358")((1, 2, 3, 4, 5)) == 0

    def test_32_1_in_3241(self):
        assert get_statistic("st360")((3, 2, 4, 1)) == 1

    def test_32_1_in_4231(self):
        assert get_statistic("st360")((4, 2, 3, 1)) == 1

    def test_classical_singletons(self):
        assert pattern_count((3, 2, 1), PatternSpec.from_string("321")) == 1
        assert pattern_count((2, 3, 1), PatternSpec.from_string("231")) == 1
        assert pattern_count((1, 2, 3), PatternSpec.from_string("321")) == 0

    def test_st436_on_s3(self):
        values = [get_statistic("st436")(p) for p in permutations((1, 2, 3))]
        assert values == [0, 0, 0, 1, 0, 1]
