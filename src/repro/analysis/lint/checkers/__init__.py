"""The project-specific invariant checkers."""

from __future__ import annotations

from repro.analysis.lint.checkers.rl001_determinism import DeterminismChecker
from repro.analysis.lint.checkers.rl002_ordering import OrderingChecker
from repro.analysis.lint.checkers.rl004_metrics import MetricsAccountingChecker
from repro.analysis.lint.checkers.rl005_fork_labels import ForkLabelChecker
from repro.analysis.lint.checkers.rl009_docstrings import DocstringDisciplineChecker


def default_checkers() -> tuple:
    """Fresh instances of every registered checker, in code order."""
    return (
        DeterminismChecker(),
        OrderingChecker(),
        MetricsAccountingChecker(),
        ForkLabelChecker(),
        DocstringDisciplineChecker(),
    )


__all__ = [
    "DeterminismChecker",
    "DocstringDisciplineChecker",
    "ForkLabelChecker",
    "MetricsAccountingChecker",
    "OrderingChecker",
    "default_checkers",
]
