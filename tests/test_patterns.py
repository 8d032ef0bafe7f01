"""Pattern counting: the brute-force oracle against counts known independently of
it, and each registered pattern statistic against the oracle."""

from itertools import permutations
from math import comb, factorial

import pytest

from permsieve.errors import UsageError
from permsieve.statistics import get_statistic
from permsieve.statistics.patterns import PATTERNS, pattern_count

CATALAN = [1, 2, 5, 14, 42, 132, 429]
BELL = [1, 2, 5, 15, 52, 203, 877]


def S(n):
    return permutations(range(1, n + 1))


class TestSpecParsing:
    """Where the dash notation puts the glue, seen on hosts that tell the readings apart."""

    def test_classical(self):
        # 132 occurs at the values 1, 3, 2 and 1, 4, 2; any glue would lose one
        assert pattern_count((1, 3, 4, 2), "132") == 2
        assert pattern_count((1, 3, 4, 2), "13-2") == 1

    def test_vincular(self):
        # 32-1 glues the 3 and the 2: of 3, 2, 1 and 4, 2, 1 only the second has them adjacent
        assert pattern_count((3, 4, 2, 1), "32-1") == 1
        assert pattern_count((3, 4, 2, 1), "3-21") == 2

    def test_trailing_glue(self):
        # 2-31 glues the 3 and the 1: 3, 4, 2 is an occurrence, while 23-1 has none
        assert pattern_count((3, 1, 4, 2), "2-31") == 1
        assert pattern_count((3, 1, 4, 2), "23-1") == 0

    def test_bad_pattern_rejected(self):
        for text in ("122", "1--2", "", "12-", "a1"):
            with pytest.raises(UsageError):
                pattern_count((1, 2, 3), text)


class TestIndependentCounts:
    """Avoiders and total occurrences over S_n, from the literature and by counting position tuples."""

    @pytest.mark.parametrize("text", ["123", "132", "213", "231", "312", "321", "13-2", "31-2"])
    def test_avoiders_are_catalan(self, text):
        """Knuth; Simion and Schmidt (1985) for the six classical patterns, Claesson (2001) for 13-2 and 31-2."""
        assert [sum(pattern_count(p, text) == 0 for p in S(n)) for n in range(1, 8)] == CATALAN

    @pytest.mark.parametrize("text", ["12-3", "32-1"])
    def test_avoiders_are_bell(self, text):
        """Claesson (2001)."""
        assert [sum(pattern_count(p, text) == 0 for p in S(n)) for n in range(1, 8)] == BELL

    @pytest.mark.parametrize("text", ["123", "2413", "13-2", "2-31", "1-32", "12-3"])
    def test_total_occurrences(self, text):
        """C(n - k + m, m) n!/k! for k letters in m dash-free blocks (m = k when classical).

        The blocks fit in order into n positions in C(n - k + m, m) ways, and
        each tuple of positions carries the pattern in n!/k! permutations.
        """
        k = len(text.replace("-", ""))
        m = text.count("-") + 1 if "-" in text else k
        for n in range(1, 7):
            total = sum(pattern_count(p, text) for p in S(n))
            assert total == comb(n - k + m, m) * factorial(n) // factorial(k), n


class TestRegisteredKernels:
    @pytest.mark.parametrize("key", sorted(PATTERNS))
    def test_kernel_matches_oracles_s1_to_s7(self, key):
        texts, _ = PATTERNS[key]
        evaluator = get_statistic(key).evaluator
        for n in range(1, 8):
            for p in S(n):
                assert evaluator(p) == sum(pattern_count(p, text) for text in texts), p


class TestWorkedExamples:
    def test_identity_avoids_descent_patterns(self):
        assert get_statistic("st360")((1, 2, 3, 4, 5)) == 0
        assert get_statistic("st358")((1, 2, 3, 4, 5)) == 0

    def test_32_1_in_3241(self):
        assert get_statistic("st360")((3, 2, 4, 1)) == 1

    def test_32_1_in_4231(self):
        assert get_statistic("st360")((4, 2, 3, 1)) == 1

    def test_classical_singletons(self):
        assert pattern_count((3, 2, 1), "321") == 1
        assert pattern_count((2, 3, 1), "231") == 1
        assert pattern_count((1, 2, 3), "321") == 0

    @pytest.mark.parametrize("key, p, value", [
        pytest.param("st356", (1, 3, 2, 4), 1, id="st356"),
        pytest.param("st357", (1, 2, 3, 4), 3, id="st357"),
        pytest.param("st358", (3, 1, 4, 2), 1, id="st358"),
        pytest.param("st360", (3, 2, 4, 1), 1, id="st360"),
        pytest.param("st423", (1, 3, 2, 4), 3, id="st423"),
        pytest.param("st428", (2, 1, 4, 3), 2, id="st428"),
        pytest.param("st436", (4, 2, 3, 1), 3, id="st436"),
        pytest.param("st437", (4, 1, 3, 2), 3, id="st437"),
    ])
    def test_registered_pattern_example(self, key, p, value):
        assert get_statistic(key)(p) == value

    def test_st436_on_s3(self):
        values = [get_statistic("st436")(p) for p in permutations((1, 2, 3))]
        assert values == [0, 0, 0, 1, 0, 1]
