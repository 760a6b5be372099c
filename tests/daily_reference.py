"""The estimator one day at a time: the test oracle of the block-wise engine.

``ReactiveBetaEngine.advance`` steps every linear recursion over a block
of days in place. This module composes the same model from per-day
forms that each take yesterday's state and return today's, so that a
test can check the engine, and the generators' level kernel, bit for bit
against an independent day-by-day composition:

- :func:`update_levels`, :func:`normalized_returns` and :func:`fast_gap`:
  the price EMAs and the leverage-adjusted levels;
- :func:`update_reactive_vols`: the normalized variances and the
  reactive vols;
- :func:`leverage_correction` and :func:`elasticity_correction`: the two
  correction factors, evaluated on yesterday's state;
- :func:`update_beta_reference`: the regression moments and the betas;
- :func:`reference_run`: all of them over a price panel.

Every form is elementwise: index-side quantities may be scalars (one
shared index) or arrays (one index per path), and stock-side quantities
are arrays broadcastable against them. A stock without a finite price on
a day keeps its state. The shared maps (``_level_map``, ``_vol_map``,
``_leverage_map`` and ``_elasticity_map``) are the package's own, which
the engine and the generators run too.
"""

import numpy as np

from reactivebeta.beta import (
    BetaState,
    LevelState,
    VolState,
    _elasticity_map,
    _level_map,
    _leverage_map,
    _vol_map,
    init_beta_state,
    init_levels,
    init_vols,
)
from reactivebeta.params import ReactiveParams


def _check_positive(p, what: str) -> None:
    arr = np.asarray(p, dtype=float)
    finite = np.isfinite(arr)
    if np.any(arr[finite] <= 0.0):
        raise ValueError(f"{what} must be strictly positive")


def degenerate_params(**overrides) -> ReactiveParams:
    """Parameters under which the model collapses to a plain exponentially
    weighted least-squares beta on raw returns (criterion 6)."""
    base = dict(lambda_s=1.0, lambda_f=1.0, ell=0.0, ell_prime=0.0,
                elasticity_slope=0.0, hat_normalize=False)
    base.update(overrides)
    return ReactiveParams(**base)


def update_levels(state: LevelState, index_price, stock_prices,
                  params: ReactiveParams) -> LevelState:
    """Advance the EMAs with today's prices and rebuild both levels.

    The index level couples the filtered slow gap (retarded effect) with
    ``ell`` times the fast gap (panic effect); the stock level couples the
    filtered per-stock slow gap with ``ell_prime`` times the same fast
    gap. A stock priced for the first time seeds its slow EMA with
    today's price, as ``init_levels`` does.
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
    """Price increments divided by yesterday's levels (call before
    :func:`update_levels`); NaN for a stock without a price."""
    i = np.asarray(index_price, dtype=float)
    s = np.asarray(stock_prices, dtype=float)
    r_index = (i - state.last_index) / state.index_level
    with np.errstate(invalid="ignore"):
        r_stock = (s - state.last_stock) / state.stock_level
    return r_index, r_stock


def fast_gap(state: LevelState):
    """Relative gap between the fast index EMA and the price it saw last."""
    return (state.fast_index - state.last_index) / state.fast_index


def update_reactive_vols(vol: VolState, level: LevelState, r_index, r_stock,
                         params: ReactiveParams) -> VolState:
    """Advance the normalized variances, EMAs of squared normalized returns
    each seeded with its first finite value, and turn them into reactive
    vols ``sqrt(tilde_var) * level / price``, NaN until a first return."""
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


def leverage_correction(level: LevelState, params: ReactiveParams):
    """``1 + (ell - ell_prime) * fast_gap`` on yesterday's levels, floored."""
    return _leverage_map(fast_gap(level), params)


def elasticity_correction(state: BetaState, vol: VolState, params: ReactiveParams):
    """``1 + (2 f(b) / b) * delta`` on yesterday's states, floored: ``b`` the
    normalized beta and ``delta`` the relative deviation of the volatility
    ratio from the square root of its tracked square; one while ``kappa``
    is unseeded."""
    b = np.asarray(state.tilde_beta, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.sqrt(np.asarray(vol.tilde_var_stock, dtype=float)
                      / np.asarray(vol.tilde_var_index, dtype=float))
        delta = np.where(state.kappa_seeded, rel / np.sqrt(state.kappa) - 1.0, np.nan)
        out = np.empty(np.broadcast_shapes(b.shape, delta.shape))
        return _elasticity_map(b, delta, params, out, np.empty(out.shape, dtype=bool))[()]


def update_beta_reference(state, r_index, r_stock, prev_tilde_var_index,
                          corr_leverage, corr_elasticity, level, vol,
                          index_price, stock_prices, params, stock_mask, stock_listed):
    """One daily advance of the regression moments and the betas;
    ``stock_mask`` marks the stocks with a return today, ``stock_listed``
    those priced on an earlier day."""
    lam = params.lambda_beta
    r_i = np.asarray(r_index, dtype=float)
    r_s = np.asarray(r_stock, dtype=float)
    prev_var = np.asarray(prev_tilde_var_index, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        if params.hat_normalize:
            scale = 1.0 / np.sqrt(prev_var)
            index_ok = np.isfinite(scale)
        else:
            scale = np.ones_like(prev_var)
            index_ok = np.isfinite(r_i)
        hr_i = r_i * scale
        hr_s = np.where(stock_mask, r_s, 0.0) * scale
        adv_stock = stock_mask & index_ok
        # from the day after the stock's first price, as its cross moments
        listed = index_ok & stock_listed
        var_index = np.where(listed, (1.0 - lam) * state.var_index + lam * hr_i * hr_i,
                             state.var_index)
        incr = np.where(adv_stock, hr_s * hr_i, 0.0)
        cross = np.where(adv_stock, (1.0 - lam) * state.cross + lam * incr, state.cross)
        denom = corr_leverage * corr_elasticity
        cross_corrected = np.where(
            adv_stock, (1.0 - lam) * state.cross_corrected + lam * incr / denom,
            state.cross_corrected)
        var_stock = np.where(adv_stock, (1.0 - lam) * state.var_stock + lam * hr_s * hr_s,
                             state.var_stock)
        ratio_sq = vol.tilde_var_stock / vol.tilde_var_index
        ratio_ok = stock_mask & np.isfinite(ratio_sq) & (ratio_sq > 0.0)
        kappa = np.where(ratio_ok, np.where(state.kappa_seeded,
                                            (1.0 - lam) * state.kappa + lam * ratio_sq,
                                            ratio_sq), state.kappa)
        tilde_beta = np.where(var_index > 0.0, cross_corrected / var_index, np.nan)
        level_ratio = (level.stock_level * index_price) / (stock_prices * level.index_level)
        beta = tilde_beta * level_ratio * denom
    return BetaState(
        cross=cross, cross_corrected=cross_corrected, var_index=var_index,
        var_stock=var_stock, kappa=kappa, kappa_seeded=state.kappa_seeded | ratio_ok,
        tilde_beta=np.where(stock_mask, tilde_beta, state.tilde_beta),
        beta=np.where(stock_mask, beta, state.beta))


def reference_run(index, stocks, params):
    """Per-day beta, normalized beta, stock volatility, both correction
    factors and whether the day adds a cross-moment increment (days
    1..T-1), and the final states, from the per-day forms."""
    levels = init_levels(index[0], stocks[0])
    vols = init_vols(np.shape(index[0]), np.shape(stocks[0]))
    state = init_beta_state(np.shape(stocks[0]))
    tracks = {name: np.full(stocks.shape, np.nan)
              for name in ("beta", "tilde_beta", "sigma_stock", "leverage", "elasticity")}
    tracks["increment"] = np.zeros(stocks.shape, dtype=bool)
    for t in range(1, len(stocks)):
        s = stocks[t]
        r_i, r_s = normalized_returns(levels, index[t], s)
        corr_lev = leverage_correction(levels, params)
        corr_ela = elasticity_correction(state, vols, params)
        prev_var = vols.tilde_var_index
        listed = np.isfinite(levels.last_stock)
        levels = update_levels(levels, index[t], s, params)
        vols = update_reactive_vols(vols, levels, r_i, r_s, params)
        # a stock has a return when priced today and on an earlier day
        state = update_beta_reference(state, r_i, r_s, prev_var, corr_lev, corr_ela,
                                      levels, vols, index[t], s, params, np.isfinite(r_s),
                                      listed)
        tracks["beta"][t], tracks["tilde_beta"][t] = state.beta, state.tilde_beta
        tracks["sigma_stock"][t] = vols.sigma_stock
        tracks["leverage"][t], tracks["elasticity"][t] = corr_lev, corr_ela
        with np.errstate(invalid="ignore", divide="ignore"):
            index_ok = np.isfinite(1.0 / np.sqrt(prev_var) if params.hat_normalize else r_i)
        tracks["increment"][t] = np.isfinite(r_s) & index_ok
    return tracks, (levels, vols, state)
