"""The project-specific invariant checkers."""

from __future__ import annotations

from repro.analysis.lint.checkers.rl001_determinism import DeterminismChecker
from repro.analysis.lint.checkers.rl002_ordering import OrderingChecker
from repro.analysis.lint.checkers.rl004_metrics import MetricsAccountingChecker
from repro.analysis.lint.checkers.rl005_fork_labels import ForkLabelChecker
from repro.analysis.lint.checkers.rl006_fork_safety import ForkSafetyChecker
from repro.analysis.lint.checkers.rl008_cache_invalidation import CacheInvalidationChecker
from repro.analysis.lint.checkers.rl009_docstrings import DocstringDisciplineChecker


def default_checkers() -> tuple:
    """Fresh instances of every registered checker, in code order."""
    return (
        DeterminismChecker(),
        OrderingChecker(),
        MetricsAccountingChecker(),
        ForkLabelChecker(),
        ForkSafetyChecker(),
        CacheInvalidationChecker(),
        DocstringDisciplineChecker(),
    )


__all__ = [
    "CacheInvalidationChecker",
    "DeterminismChecker",
    "DocstringDisciplineChecker",
    "ForkLabelChecker",
    "ForkSafetyChecker",
    "MetricsAccountingChecker",
    "OrderingChecker",
    "default_checkers",
]
