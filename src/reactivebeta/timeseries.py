"""Primitive recursions and statistics shared by every other module.

The statistics work along the last axis; ``ema_rows`` runs a
recursion down the first axis of an array of any shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "block_rows",
    "ema_rows",
    "rolling_correlation",
    "exp_weighted_moments",
    "exp_weights",
    "as_array",
]


def as_array(values) -> np.ndarray:
    """Coerce array-like input to a 1-d float array."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d series, got shape {arr.shape}")
    return arr


def ema_rows(x: np.ndarray, decay) -> np.ndarray:
    """Run the linear recursion ``x[t] = decay[t - 1] * x[t - 1] + x[t]``
    down the first axis of ``x``, in place, and return ``x``.

    Row 0 holds the state before the first step; every later row holds
    its step's increment on entry and the state after that step on
    return. ``decay`` broadcasts against ``x[1:]``: a constant, or one
    row per step (a coefficient of one and an increment of zero hold the
    state for that step, bit for bit).
    """
    # a constant stays a scalar, which numpy multiplies faster than a broadcast row
    decay = np.broadcast_to(decay, x[1:].shape) if np.ndim(decay) else [decay] * len(x)
    for t in range(1, len(x)):
        x[t] += x[t - 1] * decay[t - 1]
    return x


def block_rows(width: int, total: int) -> int:
    """Rows a blocked pass over ``width`` columns takes at once: about 2048
    cells per array, within 8..512 rows and at most ``total``."""
    return max(1, min(total, 512, max(8, 2048 // max(width, 1))))


def rolling_correlation(x, y, window: int) -> np.ndarray:
    """Pearson correlation over each trailing window, each window centered
    on its own means.

    Returns an array of length ``len(x) - window + 1``. Windows in which
    either input is constant yield NaN, the explicit marker for an
    undefined correlation; downstream aggregates skip and count those.
    """
    xa, ya = as_array(x), as_array(y)
    if xa.size != ya.size:
        raise ValueError("series must have equal length")
    if window < 2:
        raise ValueError("window must be >= 2")
    if xa.size < window:
        raise ValueError("series shorter than window")
    windows = np.lib.stride_tricks.sliding_window_view
    return _equal_weighted_moments(windows(xa, window), windows(ya, window)).correlation


@dataclass(frozen=True)
class WeightedMoments:
    """Weighted means, variances and covariance of ``x`` and ``y``: floats
    for one pair of series, one value per row for a batch."""

    mean_x: np.ndarray | float
    mean_y: np.ndarray | float
    var_x: np.ndarray | float
    var_y: np.ndarray | float
    cov: np.ndarray | float

    @property
    def slope(self) -> np.ndarray | float:
        """The least-squares slope ``cov / var_x``; NaN where x is constant."""
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            return _unless_constant(np.divide(self.cov, self.var_x), (self.var_x, self.mean_x))

    @property
    def correlation(self) -> np.ndarray | float:
        """The correlation ``cov / sqrt(var_x * var_y)``, clipped to [-1, 1];
        NaN where x or y is constant."""
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            corr = np.clip(np.divide(self.cov, np.sqrt(self.var_x * self.var_y)), -1.0, 1.0)
            return _unless_constant(corr, (self.var_x, self.mean_x), (self.var_y, self.mean_y))


def _unless_constant(value, *series) -> np.ndarray | float:
    """``value``, NaN where one of ``series``, (variance, mean) pairs, is
    constant: its variance then only its mean's rounding, a sliver of its
    mean square."""
    constant = False
    for var, mean in series:
        constant = constant | (var <= 1e-30 * (var + mean * mean))
    out = np.where(constant, np.nan, value)
    return float(out) if out.ndim == 0 else out


def exp_weights(n: int, lam: float) -> np.ndarray:
    """Weights ``(1 - lam)**(n - 1 - t)`` for t = 0..n-1, normalized to sum 1."""
    if n < 1:
        raise ValueError("need at least one observation")
    if not 0.0 < lam < 1.0:
        raise ValueError(f"decay must lie in (0, 1), got {lam}")
    # build in log space so very long series do not underflow
    logw = np.arange(n - 1, -1, -1, dtype=float) * np.log1p(-lam)
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


def _weighted_sums(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    # row by row rather than through BLAS, whose blocking would make a
    # row's sums depend on the other rows summed with it
    return np.einsum("...j,j->...", a, w)


def exp_weighted_moments(x, y, lam: float) -> WeightedMoments:
    """Exponentially weighted means, variances and covariance along the
    last axis, one set per row (floats for 1-d series). Weights are
    ``(1 - lam)**(T - t)`` normalized to sum one. The rows are centered,
    then summed row by row: a row has the same bits in any batch, and
    ``cov(x, x) == var_x``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 0 or x.shape != y.shape:
        raise ValueError("x and y must be series of identical shapes")
    w = exp_weights(x.shape[-1], lam)
    mean_x, mean_y = _weighted_sums(x, w), _weighted_sums(y, w)
    dx, dy = x - mean_x[..., None], y - mean_y[..., None]
    var_x = _weighted_sums(dx * dx, w)
    var_y = _weighted_sums(dy * dy, w)
    dy *= dx    # in place: at most three (n, T) temporaries live at once
    moments = (mean_x, mean_y, var_x, var_y, _weighted_sums(dy, w))
    return WeightedMoments(*(map(float, moments) if x.ndim == 1 else moments))


def _equal_weighted_moments(x, y) -> WeightedMoments:
    """Equal-weight means, variances and covariance along the last axis,
    one set per row (floats for 1-d series), centered on ``np.mean``."""
    mean_x, mean_y = np.mean(x, axis=-1), np.mean(y, axis=-1)
    dx, dy = x - mean_x[..., None], y - mean_y[..., None]
    moments = (mean_x, mean_y) + tuple(np.einsum("...j,...j->...", a, b) / x.shape[-1]
                                       for a, b in ((dx, dx), (dy, dy), (dx, dy)))
    return WeightedMoments(*(map(float, moments) if x.ndim == 1 else moments))
