"""Price levels and reactive volatilities.

The model maintains three EMAs of prices (a slow and a fast one for the
index, a slow one per stock) and combines them into "levels" that absorb
the leverage-driven part of volatility moves: returns divided by the
previous level are close to homoscedastic, and multiplying the smoothed
normalized volatility back by the level ratio yields a volatility that
reacts instantly to price moves.

All update functions are elementwise: index-side quantities may be
scalars (one shared index) or arrays (one index per simulated path), and
stock-side quantities are arrays broadcastable against the index side.
Stocks with a missing price on a given day keep their previous state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ReactiveParams

__all__ = [
    "LevelState",
    "VolState",
    "filter_phi",
    "init_levels",
    "update_levels",
    "normalized_returns",
    "fast_gap",
    "init_vols",
    "update_reactive_vols",
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
    stock without one has NaN levels and a zero slow EMA until
    :func:`update_levels` seeds it."""
    _check_positive(index_price, "index price")
    _check_positive(stock_prices, "stock prices")
    i = np.asarray(index_price, dtype=float) + 0.0
    s = np.asarray(stock_prices, dtype=float) + 0.0
    return LevelState(
        slow_index=i, fast_index=i, slow_stock=np.where(np.isnan(s), 0.0, s),
        index_level=i, stock_level=s,
        last_index=i, last_stock=s,
    )


def update_levels(
    state: LevelState,
    index_price,
    stock_prices,
    params: ReactiveParams,
) -> LevelState:
    """Advance the EMAs with today's prices and rebuild both levels.

    The index level couples the filtered slow gap (retarded effect) with
    ``ell`` times the fast gap (panic effect); the stock level couples the
    filtered per-stock slow gap with ``ell_prime`` times the same fast
    gap. Only the two slow, stock-specific gaps pass through the outlier
    filter; the fast systematic gap is already bounded by its short EMA.

    Stocks without a finite price today keep their previous state
    (prices are never interpolated); a stock priced for the first time
    seeds its slow EMA with today's price, as :func:`init_levels` does.
    """
    i = np.asarray(index_price, dtype=float)
    s = np.asarray(stock_prices, dtype=float)
    stock_mask = np.isfinite(s)
    if not np.all(np.isfinite(i)):
        raise ValueError("index price must be finite")
    _check_positive(i, "index price")
    _check_positive(np.where(stock_mask, s, 1.0), "stock prices")

    lam_s, lam_f = params.lambda_s, params.lambda_f
    slow_index = (1.0 - lam_s) * state.slow_index + lam_s * i
    fast_index = (1.0 - lam_f) * state.fast_index + lam_f * i
    slow_stock_new = np.where(np.isnan(state.last_stock), s,
                              (1.0 - lam_s) * state.slow_stock + lam_s * s)
    slow_stock = np.where(stock_mask, slow_stock_new, state.slow_stock)

    fgap = (fast_index - i) / fast_index
    index_level = _level_map(i, slow_index, params.ell, fgap, params.phi)
    s_safe = np.where(stock_mask, s, 1.0)
    stock_level_new = _level_map(s_safe, slow_stock, params.ell_prime, fgap, params.phi)
    stock_level = np.where(stock_mask, stock_level_new, state.stock_level)

    return LevelState(
        slow_index=slow_index,
        fast_index=fast_index,
        slow_stock=slow_stock,
        index_level=index_level,
        stock_level=stock_level,
        last_index=i,
        last_stock=np.where(stock_mask, s, state.last_stock),
    )


def normalized_returns(state: LevelState, index_price, stock_prices):
    """Price increments divided by the previous levels.

    Must be called with yesterday's state, before :func:`update_levels`.
    Stocks with a missing price yield NaN.
    """
    i = np.asarray(index_price, dtype=float)
    s = np.asarray(stock_prices, dtype=float)
    r_index = (i - state.last_index) / state.index_level
    with np.errstate(invalid="ignore"):
        r_stock = (s - state.last_stock) / state.stock_level
    return r_index, r_stock


def fast_gap(state: LevelState):
    """Relative gap between the fast index EMA and the price it saw last."""
    return (state.fast_index - state.last_index) / state.fast_index


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


def update_reactive_vols(
    vol: VolState,
    level: LevelState,
    r_index,
    r_stock,
    params: ReactiveParams,
) -> VolState:
    """Advance the normalized variances and convert them to reactive vols.

    The normalized variances are EMAs (weight ``lambda_sigma``) of squared
    normalized returns, each seeded with its first finite observation.
    Reactive vols restore the level ratio, NaN until a first return:
    ``sigma_index = tilde_sigma_index * L / I`` and likewise per stock, so
    the identity ``sigma * price == tilde_sigma * level`` holds exactly.
    """
    lam = params.lambda_sigma
    r_i = np.asarray(r_index, dtype=float)
    r_s = np.asarray(r_stock, dtype=float)
    stock_mask = np.isfinite(r_s)
    r_s_sq = np.where(stock_mask, r_s * r_s, 0.0)

    if vol.index_seeded:
        tv_index = (1.0 - lam) * vol.tilde_var_index + lam * r_i * r_i
    else:
        tv_index = r_i * r_i
    tv_stock = np.where(
        stock_mask,
        np.where(vol.stock_seeded,
                 (1.0 - lam) * vol.tilde_var_stock + lam * r_s_sq,
                 r_s_sq),
        vol.tilde_var_stock,
    )

    stock_seeded = vol.stock_seeded | stock_mask
    return VolState(
        tilde_var_index=tv_index,
        tilde_var_stock=tv_stock,
        sigma_index=_vol_map(tv_index, True, level.index_level, level.last_index),
        sigma_stock=_vol_map(tv_stock, stock_seeded, level.stock_level, level.last_stock),
        index_seeded=True,
        stock_seeded=stock_seeded,
    )
