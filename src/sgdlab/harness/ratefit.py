"""Ordinary least squares on (log n, log metric) for empirical rate checks."""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

import numpy as np

from ..errors import InvalidArgument


class RateFit(NamedTuple):
    points: Tuple[Tuple[float, float], ...]  # (log n, log metric)
    slope: float
    intercept: float
    r_squared: float


def fit_loglog_slope(points: Sequence[Tuple[float, float]]) -> RateFit:
    """Fit log(metric) = slope * log(n) + intercept.

    `points` are (n, metric) pairs; at least 3 are required and every metric
    (and n) must be positive for the logs to exist.
    """
    if len(points) < 3:
        raise InvalidArgument(f"need at least 3 points, got {len(points)}")
    ns = np.asarray([p[0] for p in points], dtype=np.float64)
    ms = np.asarray([p[1] for p in points], dtype=np.float64)
    if np.any(ns <= 0.0):
        raise InvalidArgument("all n must be positive")
    if np.any(ms <= 0.0) or not np.all(np.isfinite(ms)):
        raise InvalidArgument("all metrics must be positive and finite")
    lx = np.log(ns)
    ly = np.log(ms)
    slope, intercept = np.polyfit(lx, ly, deg=1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot > 0.0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0  # constant metric: a perfect flat fit
    return RateFit(points=tuple(zip(lx.tolist(), ly.tolist())),
                   slope=float(slope), intercept=float(intercept), r_squared=float(r2))
