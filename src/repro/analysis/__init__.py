"""Analysis utilities: scaling-law fits and markdown reporting for the experiments.

The experiments are indexed in DESIGN.md §5.
"""

from repro.analysis.complexity import (
    PowerLawFit,
    fit_power_law,
    fit_power_law_with_log,
)
from repro.analysis.regression import (
    RegressionReport,
    Violation,
    compare_benchmarks,
    compare_manifests,
    median_walls,
    run_regression,
)
from repro.analysis.report import format_markdown_table

__all__ = [
    "RegressionReport",
    "Violation",
    "compare_benchmarks",
    "compare_manifests",
    "median_walls",
    "run_regression",
    "PowerLawFit",
    "fit_power_law",
    "fit_power_law_with_log",
    "format_markdown_table",
]
