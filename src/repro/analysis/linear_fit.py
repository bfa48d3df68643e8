"""Linear runtime fits (Theorem 1: gathering takes O(n) rounds)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """Least-squares fit ``rounds ≈ slope · n + intercept``."""

    slope: float
    intercept: float
    r_squared: float
    stderr: float

    def predict(self, n: float) -> float:
        """Predicted round count for chain length ``n``."""
        return self.slope * n + self.intercept

    def describe(self) -> str:
        return (f"rounds ≈ {self.slope:.3f}·n + {self.intercept:.1f} "
                f"(R² = {self.r_squared:.4f})")


def fit_rounds(ns: Sequence[float], rounds: Sequence[float]) -> LinearFit:
    """Fit round counts against chain lengths.

    A high R² with a modest slope verifies the paper's linear bound
    empirically; Theorem 1 guarantees slope ≤ 2·L + 1 = 27.

    Ordinary least squares in closed form (NumPy only).  Degenerate
    inputs follow the common statistics-library conventions: identical
    ``ns`` raise ``ValueError``, constant ``rounds`` give a NaN R² (and
    a NaN standard error from three samples up), and two samples give
    a standard error of 0.
    """
    if len(ns) != len(rounds) or len(ns) < 2:
        raise ValueError("need at least two (n, rounds) samples")
    x = np.asarray(ns, dtype=float)
    y = np.asarray(rounds, dtype=float)
    if x.max() == x.min():
        raise ValueError("cannot fit a line: all n values are identical")
    n = len(x)
    # population (co)variances: mean((x - x̄)²), mean((x - x̄)(y - ȳ)), ...
    sxx, sxy, _, syy = np.cov(x, y, bias=True).flat
    if syy == 0.0:
        r = np.nan if sxy == 0.0 else 0.0
    else:
        r = min(max(sxy / np.sqrt(sxx * syy), -1.0), 1.0)
    slope = sxy / sxx
    intercept = y.mean() - slope * x.mean()
    stderr = 0.0 if n == 2 else np.sqrt((1 - r ** 2) * syy / sxx / (n - 2))
    return LinearFit(slope=float(slope), intercept=float(intercept),
                     r_squared=float(r) ** 2, stderr=float(stderr))
