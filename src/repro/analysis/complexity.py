"""Scaling analysis: fitting measured round counts against the paper's bounds.

Every upper-bound theorem in the paper has the form ``Õ(n^e)`` (or ``Õ(k^e)``).
The benchmarks sweep the relevant parameter, measure total rounds on the
simulator and use :func:`fit_power_law` to extract the empirical exponent,
which the experiment tables (DESIGN.md §5) report next to the theoretical
one.  Because the hidden polylog factors are real at simulation scale,
:func:`fit_power_law_with_log` additionally fits ``c · x^e · log2(x)`` which
is usually the better model.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass
class PowerLawFit:
    """Result of a least-squares fit of ``y ≈ c · x^e`` (optionally with a log factor).

    Attributes
    ----------
    exponent:
        The fitted exponent ``e``.
    coefficient:
        The fitted constant ``c``.
    r_squared:
        Coefficient of determination of the fit in log-log space.
    with_log_factor:
        Whether the model included a multiplicative ``log2(x)`` term.
    """

    exponent: float
    coefficient: float
    r_squared: float
    with_log_factor: bool = False

    def predict(self, x: float) -> float:
        """Evaluate the fitted model at ``x``."""
        value = self.coefficient * (x ** self.exponent)
        if self.with_log_factor:
            value *= math.log2(max(x, 2.0))
        return value


def _fit_loglog(log_x: np.ndarray, log_y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(log_x, log_y, 1)
    predicted = slope * log_x + intercept
    residual = np.sum((log_y - predicted) ** 2)
    total = np.sum((log_y - np.mean(log_y)) ** 2)
    r_squared = 1.0 - residual / total if total > 0 else 1.0
    return float(slope), float(math.exp(intercept)), float(r_squared)


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y ≈ c · x^e`` by linear regression in log-log space."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fitting requires positive values")
    log_x = np.log(np.asarray(xs, dtype=float))
    log_y = np.log(np.asarray(ys, dtype=float))
    exponent, coefficient, r_squared = _fit_loglog(log_x, log_y)
    return PowerLawFit(exponent=exponent, coefficient=coefficient, r_squared=r_squared)


def fit_power_law_with_log(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y ≈ c · x^e · log2(x)`` (the shape the ``Õ`` notation hides)."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) pairs")
    adjusted = [y / math.log2(max(x, 2.0)) for x, y in zip(xs, ys, strict=True)]
    base = fit_power_law(xs, adjusted)
    return PowerLawFit(
        exponent=base.exponent,
        coefficient=base.coefficient,
        r_squared=base.r_squared,
        with_log_factor=True,
    )
