"""Analysis utilities: scaling-law fits and markdown reporting for EXPERIMENTS.md."""

from repro.analysis.complexity import (
    PowerLawFit,
    exponent_gap,
    fit_power_law,
    fit_power_law_with_log,
    geometric_sweep,
)
from repro.analysis.regression import (
    RegressionReport,
    Violation,
    compare_benchmarks,
    compare_manifests,
    median_walls,
    run_regression,
)
from repro.analysis.report import (
    format_key_values,
    format_markdown_table,
    summarize_comparison,
)

__all__ = [
    "RegressionReport",
    "Violation",
    "compare_benchmarks",
    "compare_manifests",
    "median_walls",
    "run_regression",
    "PowerLawFit",
    "exponent_gap",
    "fit_power_law",
    "fit_power_law_with_log",
    "geometric_sweep",
    "format_key_values",
    "format_markdown_table",
    "summarize_comparison",
]
