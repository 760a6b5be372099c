"""The reactive beta estimator: price levels, reactive volatilities and
the leverage-aware beta of each stock, as one daily recursion.

The model maintains three EMAs of prices (a slow and a fast one for the
index, a slow one per stock) and combines them into "levels" that absorb
the leverage-driven part of volatility moves: returns divided by the
previous level are close to homoscedastic, and multiplying the smoothed
normalized volatility back by the level ratio yields a volatility that
reacts instantly to price moves. The estimator regresses these
renormalized returns on each other with an exponential look-back,
removes two sources of bias from the regression increments (the
correlation shift driven by index-level leverage, and the sensitivity of
beta to relative-volatility swings), and finally denormalizes the slope
with the current level ratio and both correction factors.

:class:`ReactiveBetaEngine` is the one implementation of the daily
recursion. It is elementwise over stocks, so it serves both a price
panel (one index, many stocks) and a batch of simulated paths (one index
per path): index-side quantities are scalars or arrays, and stock-side
quantities broadcast against them. The mc3-mc5 generators share the
level and volatility maps, mc5's the elasticity map too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DEFAULT_PARAMS, ReactiveParams
from .timeseries import block_rows, ema_rows

__all__ = [
    "BetaState",
    "LevelState",
    "ReactiveBetaEngine",
    "VolState",
    "beta_elasticity",
    "filter_phi",
    "init_beta_state",
    "init_levels",
    "init_vols",
    "reactive_beta_from_returns",
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


def _priced(index_prices, stock_prices):
    """Where ``stock_prices`` are finite (a stock is unpriced where not);
    ``ValueError`` unless every index price is finite and strictly positive
    and every finite stock price strictly positive."""
    if not np.all((index_prices > 0.0) & (index_prices < np.inf)):
        raise ValueError("index price must be finite and strictly positive")
    ok = np.isfinite(stock_prices)
    if np.any((stock_prices <= 0.0) & ok):
        raise ValueError("stock prices must be strictly positive")
    return ok


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
    """Seed every level with the first day's prices (all gaps zero). A
    stock unpriced that day has NaN levels and a zero slow EMA until its
    first price seeds it."""
    i = np.asarray(index_price, dtype=float) + 0.0
    s = np.asarray(stock_prices, dtype=float)
    ok = _priced(i, s)
    s = np.where(ok, s, np.nan)
    return LevelState(slow_index=i, fast_index=i, slow_stock=np.where(ok, s, 0.0),
                      index_level=i, stock_level=s, last_index=i, last_stock=s)


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


# Both correction factors divide the regression increments, so they are
# kept away from zero; values this small never occur on sane price data.
# mc5's model multiplies by them, so its leverage factor takes no floor.
_CORRECTION_FLOOR = 0.05

# reactive_beta_from_returns's first price; the estimator is scale invariant
_START_PRICE = 100.0


def beta_elasticity(tilde_beta, params: ReactiveParams, out=None):
    """Sensitivity of the normalized beta to its log squared relative
    volatility: zero below ``elasticity_lo``, then rising linearly until it
    saturates at ``elasticity_cap``. Continuous; in place in ``out`` if given."""
    b = np.asarray(tilde_beta, dtype=float)
    out = np.empty(b.shape) if out is None else out
    np.subtract(b, params.elasticity_lo, out=out)
    out *= params.elasticity_slope
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, params.elasticity_cap, out=out)[()]


def _leverage_map(gap, params: ReactiveParams):
    """``max(1 + (ell - ell_prime) * gap, _CORRECTION_FLOOR)``."""
    return np.maximum(1.0 + params.ell_diff * gap, _CORRECTION_FLOOR)


def _elasticity_map(b, delta, params: ReactiveParams, out, bad):
    """``max(1 + 2 f(b) / b * delta, _CORRECTION_FLOOR)``, one where not
    finite, in place in ``out`` with the boolean workspace ``bad``."""
    beta_elasticity(b, params, out=out)
    out *= 2.0
    out /= b
    out *= delta
    out += 1.0
    np.logical_not(np.isfinite(out, out=bad), out=bad)
    np.copyto(out, 1.0, where=bad)
    return np.maximum(out, _CORRECTION_FLOOR, out=out)


@dataclass(frozen=True)
class BetaState:
    """Regression EMAs and the betas derived from them, one per stock.

    ``cross`` and the two ``var_*`` fields are plain second moments of
    the renormalized returns; ``cross_corrected`` carries the same cross
    product divided by both correction factors. All four start at zero so
    their ratio is an exactly exponentially weighted regression. A stock's
    ``var_index`` advances from the day after its first price, as its
    cross moments do, so a stock listed late is not scaled down by index
    days it never saw. ``kappa`` tracks the squared relative volatility
    and is seeded with its first observation.
    """

    cross: np.ndarray | float
    cross_corrected: np.ndarray | float
    var_index: np.ndarray | float
    var_stock: np.ndarray | float
    kappa: np.ndarray | float
    kappa_seeded: np.ndarray | bool
    tilde_beta: np.ndarray | float
    beta: np.ndarray | float


def init_beta_state(stock_shape=()) -> BetaState:
    """The state before any return, every field shaped as the stocks."""
    zs = np.zeros(stock_shape) if stock_shape else 0.0
    nan_s = np.full(stock_shape, np.nan) if stock_shape else np.nan
    seeded = np.zeros(stock_shape, dtype=bool) if stock_shape else False
    return BetaState(
        cross=zs + 0.0, cross_corrected=zs + 0.0,
        var_index=zs + 0.0, var_stock=zs + 0.0,
        kappa=zs + 0.0, kappa_seeded=seeded,
        tilde_beta=nan_s, beta=nan_s,
    )


def _set_rows(x: np.ndarray, *values) -> None:
    """Write ``values`` (scalars or arrays) flattened into the rows of ``x``."""
    for row, value in zip(x, values):
        row[...] = np.reshape(value, -1)


class ReactiveBetaEngine:
    """Daily estimator over one index and any number of stocks.

    :meth:`advance` runs a block of days at a time. Every recursion but
    the corrected cross moment is linear in its own past, with a constant
    or mask-switched coefficient (price EMAs, normalized variances,
    regression moments, ``kappa``), so each steps in place with one
    multiply-add per day, and the maps between them (levels, returns, hat
    scale, corrections, vols, betas) run vectorised over the block. Only
    the corrected cross moment feeds back, through the elasticity
    correction of yesterday's normalized beta, in a loop of in-place
    operations per day. :meth:`step` is the same pass over one day. The
    states are plain values between calls; a stock without a finite
    price keeps its state for the day (``frozen_stock_days`` counts it).
    The engine is built from the first day's prices; a stock first priced
    later is seeded on that day, which has no return and so no beta.
    ``leverage_floor_stock_days`` and ``elasticity_floor_stock_days``
    count the stock-days that add a cross moment increment through a
    correction factor at ``_CORRECTION_FLOOR``.
    """

    def __init__(self, index_price, stock_prices, params: ReactiveParams = DEFAULT_PARAMS):
        """Seed all states with the first day of prices, which pass the
        check that :meth:`advance` makes of every later day."""
        self.params = params
        self.levels = init_levels(index_price, stock_prices)
        self.vols = init_vols(np.shape(index_price), np.shape(stock_prices))
        self.beta_state = init_beta_state(np.shape(stock_prices))
        self.frozen_stock_days: int = 0
        self.leverage_floor_stock_days: int = 0
        self.elasticity_floor_stock_days: int = 0

    def step(self, index_price, stock_prices) -> BetaState:
        """Consume one day of prices and return the updated beta state."""
        self.advance(np.asarray(index_price, dtype=float)[None],
                     np.asarray(stock_prices, dtype=float)[None])
        return self.beta_state

    def advance(self, index_prices, stock_prices, beta_out=None, sigma_out=None) -> None:
        """Consume the days of ``index_prices`` and ``stock_prices`` (days on
        the first axis, each day shaped like the first day's prices). Each
        day's reactive beta and reactive stock volatility, NaN for a stock
        without a return yet, go to the matching rows of ``beta_out`` and
        ``sigma_out`` when they are given.
        """
        p = self.params
        lam_s, lam_v, lam_b = p.lambda_s, p.lambda_sigma, p.lambda_beta
        lv, vol, st = self.levels, self.vols, self.beta_state
        index_shape, stock_shape = np.shape(lv.last_index), np.shape(lv.last_stock)
        k, n = math.prod(index_shape), math.prod(stock_shape)   # k is 1 or n
        T = len(stock_prices)
        index_prices = np.reshape(index_prices, (T, k))
        stock_prices = np.reshape(stock_prices, (T, n))
        L = block_rows(n, T)

        # Row 0 of each workspace array holds the state after the day
        # before the block, rows 1..m the block's days. Recursions that
        # step together share an array, their index side (columns :k)
        # broadcast to every stock.
        ema = np.empty((L + 1, 3, n))       # slow and fast index EMA, slow stock EMA
        tv = np.empty((L + 1, 2, n))        # normalized index and stock variances
        reg = np.empty((L + 1, 4, n))       # var_index, cross, var_stock, kappa
        price_i, level_i = np.empty((2, L + 1, k))
        price_s, level_s, cc, tb, beta = np.empty((5, L + 1, n))
        s_seeded, k_seeded = np.empty((2, n), dtype=bool)
        _set_rows(ema[0], lv.slow_index, lv.fast_index, lv.slow_stock)
        _set_rows(tv[0], vol.tilde_var_index, vol.tilde_var_stock)
        _set_rows(reg[0], st.var_index, st.cross, st.var_stock, st.kappa)
        _set_rows((price_i[0], level_i[0], price_s[0], level_s[0], cc[0], tb[0], beta[0],
                   s_seeded, k_seeded),
                  lv.last_index, lv.index_level, lv.last_stock, lv.stock_level,
                  st.cross_corrected, st.tilde_beta, st.beta, vol.stock_seeded,
                  st.kappa_seeded)
        index_seeded = bool(vol.index_seeded)
        decay = np.empty((L, 9, n))         # of ema, tv and reg, in that order
        decay[:, 0], decay[:, 1], decay[:, 3] = 1.0 - lam_s, 1.0 - p.lambda_f, 1.0 - lam_v
        stock, den = np.empty((2, L, n))
        f = np.empty(n)
        ela = np.empty((L, n))              # each day's elasticity factor
        bad = np.empty(n, dtype=bool)
        cols = np.arange(n)

        for t0 in range(0, T, L):
            m = min(L, T - t0)
            now, before = slice(1, m + 1), slice(0, m)
            i = price_i[now]
            i[:] = index_prices[t0:t0 + m]
            s = stock[:m]
            s[:] = stock_prices[t0:t0 + m]
            ok = _priced(i, s)
            blank = ~ok
            self.frozen_stock_days += int(np.count_nonzero(blank))
            # flat source of each held value: its last priced row, else row 0
            held = np.where(ok, np.arange(1, m + 1)[:, None], 0)
            np.maximum.accumulate(held, axis=0, out=held)
            held = held * n + cols

            def hold(x, new):
                x[now] = new
                x[now] = np.take(x, held)

            # levels: a stock's first price seeds its slow EMA (decay 0);
            # only a stock priced today and before has a return
            hold(price_s, s)
            listed = np.isfinite(price_s[before])
            has_ret = ok & listed
            no_ret = ~has_ret
            e, dec = ema[:m + 1], decay[:m]
            e[1:, 0], e[1:, 1] = lam_s * i, p.lambda_f * i
            e[1:, 2] = np.where(has_ret, lam_s * s, np.where(ok, s, 0.0))
            dec[:, 2] = np.where(has_ret, 1.0 - lam_s, blank)
            ema_rows(e, dec[:, :3])
            slow, fast = e[1:, 0, :k], e[1:, 1, :k]
            fgap = (fast - i) / fast
            _level_map(i, slow, p.ell, fgap, p.phi, out=level_i[now])
            with np.errstate(invalid="ignore"):
                hold(level_s, _level_map(s, e[1:, 2], p.ell_prime, fgap, p.phi))

            # normalized returns and variances, each variance seeded with
            # its first value
            r_i = (i - price_i[before]) / level_i[before]
            with np.errstate(invalid="ignore"):
                r_s = (s - price_s[before]) / level_s[before]
            r_s_sq = np.where(has_ret, r_s * r_s, 0.0)
            v = tv[:m + 1]
            v[1:, 0] = lam_v * r_i * r_i
            if not index_seeded:        # seeded with the first value
                v[1, 0] = r_i[0] * r_i[0]
                index_seeded = True
            seeded = np.logical_or.accumulate(np.vstack([s_seeded, has_ret]), axis=0)
            v[1:, 1] = np.where(seeded[:-1], lam_v * r_s_sq, r_s_sq)
            dec[:, 4] = np.where(has_ret, 1.0 - lam_v, 1.0)
            ema_rows(v, dec[:, 3:5])
            s_seeded[:] = seeded[-1]
            tv_i, tv_s = v[:, 0, :k], v[:, 1]

            # regression moments and kappa
            with np.errstate(invalid="ignore", divide="ignore"):
                if p.hat_normalize:
                    scale = 1.0 / np.sqrt(tv_i[:m])
                    index_ok = np.isfinite(scale)
                else:
                    scale = 1.0
                    index_ok = np.isfinite(r_i)
                hr_i = r_i * scale
                hr_s = np.where(has_ret, r_s, 0.0) * scale
                adv = has_ret & index_ok
                ratio = tv_s[1:] / tv_i[1:]
                ratio_ok = has_ret & np.isfinite(ratio) & (ratio > 0.0)
                k_before = np.logical_or.accumulate(np.vstack([k_seeded, ratio_ok[:-1]]),
                                                    axis=0)
                k_seeded |= ratio_ok.any(axis=0)
                adv_index = index_ok & listed   # from the day after the first price
                r = reg[:m + 1]
                r[1:, 0] = np.where(adv_index, lam_b * hr_i * hr_i, 0.0)
                r[1:, 1] = lam_b * np.where(adv, hr_s * hr_i, 0.0)
                r[1:, 2] = np.where(adv, lam_b * hr_s * hr_s, 0.0)
                r[1:, 3] = np.where(ratio_ok, np.where(k_before, lam_b * ratio, ratio), 0.0)
                gain_cc = r[1:, 1].copy()
                dec[:, 5] = np.where(adv_index, 1.0 - lam_b, 1.0)
                dec[:, 6] = dec[:, 7] = np.where(adv, 1.0 - lam_b, 1.0)
                dec[:, 8] = np.where(ratio_ok, 1.0 - lam_b, 1.0)
                ema_rows(r, dec[:, 5:])

                # both corrections from yesterday's state; delta is NaN
                # while kappa is unseeded, which sets the elasticity to one
                lev = _leverage_map((ema[:m, 1, :k] - price_i[before]) / ema[:m, 1, :k], p)
                delta = np.sqrt(tv_s[:m] / tv_i[:m]) / np.sqrt(reg[:m, 3]) - 1.0
                np.copyto(delta, np.nan, where=~k_before)
                var_pos = np.where(r[1:, 0] > 0.0, r[1:, 0], np.nan)

                # the feedback: corrected cross moment and normalized beta
                for d in range(m):
                    b = tb[d]
                    _elasticity_map(b, delta[d], p, ela[d], bad)
                    np.multiply(ela[d], lev[d], out=den[d])
                    np.divide(gain_cc[d], den[d], out=f)
                    np.multiply(cc[d], dec[d, 6], out=cc[d + 1])
                    cc[d + 1] += f
                    np.divide(cc[d + 1], var_pos[d], out=tb[d + 1])
                    np.copyto(tb[d + 1], b, where=no_ret[d])
                self.leverage_floor_stock_days += int(np.count_nonzero(
                    adv & (lev == _CORRECTION_FLOOR)))
                self.elasticity_floor_stock_days += int(np.count_nonzero(
                    adv & (ela[:m] == _CORRECTION_FLOOR)))

                hold(beta, tb[now] * ((level_s[now] * i) / (s * level_i[now])) * den[:m])
            if beta_out is not None:
                beta_out[t0:t0 + m] = beta[now].reshape((m,) + stock_shape)
            if sigma_out is not None:
                sigma_out[t0:t0 + m] = _vol_map(tv_s[1:], seeded[1:], level_s[now],
                                                price_s[now]).reshape((m,) + stock_shape)
            for x in (ema, tv, reg, price_i, level_i, price_s, level_s, cc, tb, beta):
                x[0] = x[m]

        def idx(x):     # row 0 of a workspace array, shaped as on the first day
            return x[:k].reshape(index_shape).copy()

        def stk(x):
            return x.reshape(stock_shape).copy()

        self.levels = LevelState(
            slow_index=idx(ema[0, 0]), fast_index=idx(ema[0, 1]), slow_stock=stk(ema[0, 2]),
            index_level=idx(level_i[0]), stock_level=stk(level_s[0]),
            last_index=idx(price_i[0]), last_stock=stk(price_s[0]))
        self.vols = VolState(
            tilde_var_index=idx(tv[0, 0]), tilde_var_stock=stk(tv[0, 1]),
            sigma_index=idx(_vol_map(tv[0, 0, :k], index_seeded, level_i[0], price_i[0])),
            sigma_stock=stk(_vol_map(tv[0, 1], s_seeded, level_s[0], price_s[0])),
            index_seeded=index_seeded, stock_seeded=stk(s_seeded))
        self.beta_state = BetaState(
            cross=stk(reg[0, 1]), cross_corrected=stk(cc[0]), var_index=stk(reg[0, 0]),
            var_stock=stk(reg[0, 2]), kappa=stk(reg[0, 3]), kappa_seeded=stk(k_seeded),
            tilde_beta=stk(tb[0]), beta=stk(beta[0]))


def reactive_beta_from_returns(
    r_index: np.ndarray,
    r_stock: np.ndarray,
    params: ReactiveParams = DEFAULT_PARAMS,
):
    """Run the estimator over return paths and report the final beta.

    ``r_index`` and ``r_stock`` hold arithmetic returns with time on the
    last axis; leading axes are independent paths. Prices are rebuilt
    from ``_START_PRICE`` a block of days at a time, each block's
    cumulative product led by the growth so far (the same products as over
    all days).
    """
    r_i = np.asarray(r_index, dtype=float)
    r_s = np.asarray(r_stock, dtype=float)
    if r_i.shape != r_s.shape:
        raise ValueError("return arrays must have identical shapes")
    growth = np.ones((2,) + r_i.shape[:-1] + (1,))      # index and stock
    engine = ReactiveBetaEngine(*_START_PRICE * growth[..., 0], params)
    T = r_i.shape[-1]
    days = block_rows(growth[0].size, T)
    for t0 in range(0, T, days):
        block = 1.0 + np.stack([r_i[..., t0:t0 + days], r_s[..., t0:t0 + days]])
        growth = np.cumprod(np.concatenate([growth[..., -1:], block], axis=-1), axis=-1)
        engine.advance(*np.moveaxis(_START_PRICE * growth[..., 1:], -1, 1))
    return engine.beta_state.beta
