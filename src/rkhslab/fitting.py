"""Least-squares slope fitting on log-log axes."""

from __future__ import annotations

import numpy as np

__all__ = ["fit_loglog_slope"]


def fit_loglog_slope(xs, ys) -> tuple[float, float]:
    """Ordinary least squares of log(ys) on log(xs); returns (slope, stderr).

    Requires at least 3 strictly positive points and non-degenerate xs.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if len(xs) < 3:
        raise ValueError("at least 3 points are required")
    if not np.all((0 < xs) & (xs < np.inf) & (0 < ys) & (ys < np.inf)):  # NaN fails too
        raise ValueError("all points must be finite and strictly positive")
    lx, ly = np.log(xs), np.log(ys)
    if np.ptp(lx) == 0:
        raise ValueError("xs are all equal; slope is undefined")
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    resid = ly - A @ coef
    var = float(resid @ resid) / (len(xs) - 2)
    stderr = float(np.sqrt(var / np.sum((lx - lx.mean()) ** 2)))
    return slope, stderr
