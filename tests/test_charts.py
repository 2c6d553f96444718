"""ASCII chart helpers."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.harness.charts import sparkline, strip_chart


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_matches(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_flat_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_min_max_mapping(self):
        s = sparkline([0, 1])
        assert s[0] == "▁" and s[-1] == "█"

    def test_explicit_bounds(self):
        s = sparkline([0.5], lo=0.0, hi=1.0)
        assert s not in ("▁", "█")


class TestStripChart:
    def test_threshold_markers(self):
        out = strip_chart([0.1, 0.9], threshold=0.5)
        assert out.count("emergency") == 1

    def test_no_threshold(self):
        out = strip_chart([0.1, 0.9])
        assert "emergency" not in out

    def test_empty(self):
        assert strip_chart([]) == "(no intervals)"

    def test_row_cap(self):
        out = strip_chart([0.1] * 100, max_rows=10)
        assert len(out.splitlines()) == 10


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=50))
def test_property_sparkline_never_crashes(vals):
    s = sparkline(vals)
    assert len(s) == len(vals)
