"""Price levels and reactive volatilities: the states and maps that
``ReactiveBetaEngine`` and the generators step.

The model maintains three EMAs of prices (a slow and a fast one for the
index, a slow one per stock) and combines them into "levels" that absorb
the leverage-driven part of volatility moves: returns divided by the
previous level are close to homoscedastic, and multiplying the smoothed
normalized volatility back by the level ratio yields a volatility that
reacts instantly to price moves.

The maps are elementwise: index-side quantities may be scalars (one
shared index) or arrays (one index per simulated path), and stock-side
quantities are arrays broadcastable against the index side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LevelState",
    "VolState",
    "filter_phi",
    "init_levels",
    "init_vols",
]


def filter_phi(z, phi: float):
    """Outlier filter ``tanh(phi * z) / phi`` applied to level gaps.

    Odd, monotone increasing, slope one at the origin and bounded by
    ``1/phi``; ``phi == 0`` is the identity.
    """
    if phi < 0.0:
        raise ValueError(f"phi must be >= 0, got {phi}")
    if phi == 0.0:
        return z
    return np.tanh(phi * np.asarray(z, dtype=float)) / phi


def _level_map(price, slow, ell, gap, phi: float, out=None):
    """The level ``price * (1 + filter_phi((slow - price) / price, phi)) *
    (1 + ell * gap)``: the filtered slow gap (retarded effect) times the
    fast index gap (panic effect), computed in place in ``out`` if given."""
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(slow), np.shape(price), np.shape(gap)))
    np.subtract(slow, price, out=out)
    out /= price
    out[...] = filter_phi(out, phi)
    out += 1.0
    out *= price
    out *= 1.0 + ell * gap
    return out[()]


def _check_positive(p, what: str) -> None:
    arr = np.asarray(p, dtype=float)
    finite = np.isfinite(arr)
    if np.any(arr[finite] <= 0.0):
        raise ValueError(f"{what} must be strictly positive")


@dataclass(frozen=True)
class LevelState:
    """Levels after one daily update.

    ``slow_index``/``fast_index``/``slow_stock`` are the price EMAs,
    ``index_level``/``stock_level`` the leverage-adjusted levels, and
    ``last_index``/``last_stock`` the prices the state was updated with.
    """

    slow_index: np.ndarray | float
    fast_index: np.ndarray | float
    slow_stock: np.ndarray | float
    index_level: np.ndarray | float
    stock_level: np.ndarray | float
    last_index: np.ndarray | float
    last_stock: np.ndarray | float


def init_levels(index_price, stock_prices) -> LevelState:
    """Seed every level with the first observed price (all gaps zero). A
    stock without one has NaN levels and a zero slow EMA until its first
    price seeds it."""
    _check_positive(index_price, "index price")
    _check_positive(stock_prices, "stock prices")
    i = np.asarray(index_price, dtype=float) + 0.0
    s = np.asarray(stock_prices, dtype=float) + 0.0
    return LevelState(
        slow_index=i, fast_index=i, slow_stock=np.where(np.isnan(s), 0.0, s),
        index_level=i, stock_level=s,
        last_index=i, last_stock=s,
    )


def _vol_map(tilde_var, seeded, level, price):
    """The reactive volatility ``sqrt(tilde_var) * level / price``, NaN unless seeded."""
    return np.where(seeded, np.sqrt(tilde_var) * level / price, np.nan)[()]


@dataclass(frozen=True)
class VolState:
    """Normalized variances and their reactive volatilities, NaN until seeded."""

    tilde_var_index: np.ndarray | float
    tilde_var_stock: np.ndarray | float
    sigma_index: np.ndarray | float
    sigma_stock: np.ndarray | float
    index_seeded: bool = False
    stock_seeded: np.ndarray | bool = False


def init_vols(index_shape=(), stock_shape=()) -> VolState:
    z_i = np.zeros(index_shape) if index_shape else 0.0
    z_s = np.zeros(stock_shape) if stock_shape else 0.0
    seeded = np.zeros(stock_shape, dtype=bool) if stock_shape else False
    return VolState(tilde_var_index=z_i, tilde_var_stock=z_s,
                    sigma_index=z_i + np.nan, sigma_stock=z_s + np.nan,
                    index_seeded=False, stock_seeded=seeded)
