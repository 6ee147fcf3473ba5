"""Tests for the text rendering helpers."""

import pytest

from repro.core import CacheStats
from repro.harness import (
    format_cache_stats,
    format_value,
    geomean,
    render_table,
)


class TestFormatValue:
    def test_bool(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"

    def test_small_float(self):
        assert format_value(1.2345) == "1.234"

    def test_medium_float(self):
        assert format_value(42.7) == "42.7"

    def test_large_float(self):
        assert format_value(123456.0) == "123,456"

    def test_zero(self):
        assert format_value(0.0) == "0"

    def test_string_passthrough(self):
        assert format_value("abc") == "abc"

    def test_int(self):
        assert format_value(7) == "7"


class TestFormatCacheStats:
    def test_counters_and_hit_rate(self):
        text = format_cache_stats(CacheStats(hits=3, misses=1,
                                             evictions=2, insertions=4))
        assert text == ("hits=3 misses=1 evictions=2 insertions=4 "
                        "(75.0% hit rate)")

    def test_no_lookups_omits_rate(self):
        text = format_cache_stats(CacheStats())
        assert text == "hits=0 misses=0 evictions=0 insertions=0"
        assert "rate" not in text


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["name", "value"], [["a", 1], ["long-name", 22]])
        lines = text.splitlines()
        assert len({len(line) for line in lines[0:1] + lines[2:]}) == 1

    def test_title(self):
        text = render_table(["x"], [[1]], title="My Table")
        assert text.startswith("My Table\n========")

    def test_all_rows_present(self):
        text = render_table(["k"], [["row1"], ["row2"], ["row3"]])
        for row in ("row1", "row2", "row3"):
            assert row in text


class TestGeomean:
    def test_basic(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_single(self):
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geomean([0.0, 4.0]) == pytest.approx(4.0)

    def test_invariant_under_reciprocal_pairs(self):
        assert geomean([2.0, 0.5]) == pytest.approx(1.0)
