"""Tests for the analysis helpers (power-law fits, markdown reports)."""

import math

import pytest

from repro.analysis import fit_power_law, fit_power_law_with_log, format_markdown_table


class TestPowerLawFits:
    def test_recovers_exact_exponent(self):
        xs = [10, 20, 40, 80, 160]
        ys = [3 * x ** 0.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.exponent == pytest.approx(0.5, abs=1e-6)
        assert fit.coefficient == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_recovers_exponent_with_log_factor(self):
        xs = [16, 32, 64, 128, 256]
        ys = [2 * (x ** 0.66) * math.log2(x) for x in xs]
        fit = fit_power_law_with_log(xs, ys)
        assert fit.exponent == pytest.approx(0.66, abs=1e-6)
        assert fit.with_log_factor

    def test_predict_roundtrip(self):
        xs = [10, 100, 1000]
        ys = [5 * x ** 0.7 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.predict(500) == pytest.approx(5 * 500 ** 0.7, rel=1e-6)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([10], [5])

    def test_requires_positive_values(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 3])


class TestReporting:
    def test_markdown_table_shape(self):
        table = format_markdown_table(["n", "rounds"], [[10, 42], [20, 99]])
        lines = table.splitlines()
        assert lines[0] == "| n | rounds |"
        assert lines[1] == "|---|---|"
        assert len(lines) == 4

    def test_float_formatting(self):
        table = format_markdown_table(["x"], [[0.123456], [float("inf")]])
        assert "0.123" in table
        assert "inf" in table
