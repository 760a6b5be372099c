"""Beta-neutral factor construction and daily-rebalanced backtests.

Four classic long/short strategies (low volatility, short-term reversal,
momentum, size) are built per supersector: stocks are ranked by the
strategy indicator computed from data available before the position
date, the top and bottom quantiles form the legs, weights are inverse to
each stock's volatility (capped), and two leg multipliers enforce exact
beta neutrality against the chosen beta estimates. Hedging can use
either the plain exponentially weighted least-squares betas or the
leverage-aware ones, which is the comparison the backtest reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .params import DEFAULT_PARAMS, ReactiveParams
from .beta import ReactiveBetaEngine
from .evaluation import HedgeReport, strategy_bias_corstd
from .montecarlo import _daily_vols, _level_days
from .timeseries import WeightedMoments, block_rows, ema_rows

__all__ = [
    "STRATEGIES",
    "Universe",
    "UniversePanels",
    "FactorWeights",
    "BacktestResult",
    "auto_supersectors",
    "compute_panels",
    "indicator",
    "build_factors",
    "build_factor",
    "backtest",
    "synthetic_universe",
]

STRATEGIES = ("low_vol", "reversal", "momentum", "size")

#: selection quantile per strategy: each leg takes this share of a sector
STRATEGY_QUANTILE = {"low_vol": 0.30, "reversal": 0.15,
                     "momentum": 0.15, "size": 0.30}

#: indicator look-back in trading days (0 = uses current snapshot)
INDICATOR_WINDOW = {"low_vol": 0, "reversal": 21, "momentum": 504, "size": 0}

N_SUPERSECTORS = 6

#: position days whose factors ``backtest`` builds in one pass; bounds the
#: (days x stocks) work arrays
_BLOCK_DAYS = 64


@dataclass(frozen=True)
class Universe:
    """Aligned daily price panel with capitalizations and sector labels.

    ``prices`` and ``caps`` are (time x stock) arrays; missing prices are
    NaN and freeze the affected stock downstream.
    """

    dates: np.ndarray
    tickers: tuple
    prices: np.ndarray
    index_prices: np.ndarray
    supersector: np.ndarray
    caps: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        T, n = self.prices.shape
        if len(self.dates) != T:
            raise ValueError("dates and price rows differ in length")
        if len(self.tickers) != n:
            raise ValueError("tickers and price columns differ in length")
        if self.index_prices.shape != (T,):
            raise ValueError("index series misaligned with the panel")
        if self.supersector.shape != (n,):
            raise ValueError("every stock needs a supersector label")
        if self.caps is not None and self.caps.shape != (T, n):
            raise ValueError("caps panel misaligned with prices")

    @property
    def n_days(self) -> int:
        return self.prices.shape[0]


def auto_supersectors(caps) -> np.ndarray:
    """Partition stocks into ``N_SUPERSECTORS`` similarly sized groups by
    the rank of their mean capitalization over the priced days of ``caps``
    (time x stock).

    Intended for synthetic universes without real sector data; real data
    should supply its own labels.
    """
    caps = np.atleast_2d(np.asarray(caps, dtype=float))
    count = np.count_nonzero(~np.isnan(caps), axis=0)
    # np.nanmean, without its warning on a stock never priced: NaN, ranked last
    mean_cap = np.divide(np.nansum(caps, axis=0), count,
                         out=np.full(count.shape, np.nan), where=count > 0)
    order = np.argsort(np.argsort(-mean_cap, kind="stable"), kind="stable")
    return (order * N_SUPERSECTORS) // mean_cap.size


@dataclass(frozen=True)
class UniversePanels:
    """Per-day estimator tracks aligned with a universe.

    ``ols_beta``/``ols_sigma`` come from plain exponentially weighted
    moments of raw returns; ``re_beta``/``re_sigma`` from the
    leverage-aware engine. All shapes are (time x stock).
    ``frozen_stock_days`` counts the blank prices the engine held over;
    ``leverage_floor_stock_days`` and ``elasticity_floor_stock_days`` the
    stock-days whose correction factor sat at its floor (see
    :class:`ReactiveBetaEngine`).
    """

    returns: np.ndarray
    index_returns: np.ndarray
    ols_beta: np.ndarray
    ols_sigma: np.ndarray
    re_beta: np.ndarray
    re_sigma: np.ndarray
    frozen_stock_days: int = 0
    leverage_floor_stock_days: int = 0
    elasticity_floor_stock_days: int = 0


def compute_panels(universe: Universe,
                   params: ReactiveParams = DEFAULT_PARAMS) -> UniversePanels:
    """Run both beta estimators over the whole panel once.

    The reactive track is :meth:`ReactiveBetaEngine.advance` over days
    1..T-1. The least-squares track carries per-stock weight masses and
    centered means and co-moments (West's weighted update), so a frozen
    (missing-price) stock keeps the exact exponentially weighted moments
    of its returns, and its first return gives a NaN slope. Both step in
    place a block of days at a time.
    """
    prices = universe.prices
    index = universe.index_prices
    T, n = prices.shape

    returns = np.full((T, n), np.nan)   # in place: an estimate run peaks in memory here
    with np.errstate(invalid="ignore"):
        np.divide(prices[1:], prices[:-1], out=returns[1:])
    returns[1:] -= 1.0
    index_returns = np.concatenate([[np.nan], index[1:] / index[:-1] - 1.0])

    ols_beta = np.full((T, n), np.nan)
    ols_sigma = np.full((T, n), np.nan)
    re_beta = np.full((T, n), np.nan)
    re_sigma = np.full((T, n), np.nan)

    engine = ReactiveBetaEngine(params)
    engine.start(index[0], prices[0])
    engine.advance(index[1:], prices[1:], beta_out=re_beta[1:], sigma_out=re_sigma[1:])

    lam_b, lam_s = params.lambda_beta, params.lambda_sigma
    L = block_rows(n, T - 1)
    # row 0 carries the day before the block: the masses of weight lam_b
    # and lam_s and the lam_s-weighted y*y; the means of x and y; the
    # co-moments of x with x and y. A return moves each mean by its share of
    # the mass and adds lam_b (x - old mean x)(z - new mean z) to a co-moment.
    masses = np.zeros((L + 1, 3, n))
    means = np.zeros((L + 1, 2, n))
    comoments = np.zeros((L + 1, 2, n))
    for t0 in range(1, T, L):
        m = min(L, T - t0)
        days = slice(t0, t0 + m)
        x = index_returns[days, None]
        y = returns[days]
        ok = np.isfinite(y)
        y0 = np.where(ok, y, 0.0)
        gain, gain_s = np.where(ok, lam_b, 0.0), np.where(ok, lam_s, 0.0)
        decay, decay_s = 1.0 - gain, 1.0 - gain_s
        ms = masses[:m + 1]
        ms[1:] = np.stack([gain, gain_s, gain_s * y0 * y0], axis=1)
        ema_rows(ms, np.stack([decay, decay_s, decay_s], axis=1))
        mass = ms[1:, 0]
        share = np.divide(gain, mass, out=np.zeros_like(gain), where=ok)
        mu = means[:m + 1]
        mu[1:] = np.stack([share * x, share * y0], axis=1)
        ema_rows(mu, (1.0 - share)[:, None])
        mean_x, mean_y = mu[1:, 0], mu[1:, 1]
        cm = comoments[:m + 1]
        cm[1:] = (gain * (x - mu[:-1, 0]))[:, None] * np.stack([x - mean_x, y0 - mean_y], axis=1)
        ema_rows(cm, decay[:, None])

        with np.errstate(invalid="ignore", divide="ignore"):
            # no var_y: the slope does not read it
            ols_beta[days] = WeightedMoments(mean_x, mean_y, cm[1:, 0] / mass, np.nan,
                                             cm[1:, 1] / mass).slope
            mean_yy = ms[1:, 2] / ms[1:, 1]
        ols_sigma[days] = np.sqrt(np.maximum(mean_yy - mean_y * mean_y, 0.0))
        masses[0], means[0], comoments[0] = ms[m], mu[m], cm[m]

    return UniversePanels(returns=returns, index_returns=index_returns,
                          ols_beta=ols_beta, ols_sigma=ols_sigma,
                          re_beta=re_beta, re_sigma=re_sigma,
                          frozen_stock_days=engine.frozen_stock_days,
                          leverage_floor_stock_days=engine.leverage_floor_stock_days,
                          elasticity_floor_stock_days=engine.elasticity_floor_stock_days)


def indicator(strategy: str, universe: Universe, t, panels: UniversePanels) -> np.ndarray:
    """Ranking values at day ``t`` (a day or an array of days, giving one
    row per day); higher values go into the long leg.

    Low volatility ranks on the plain least-squares beta, high betas long
    (selection always uses the standard estimate, whatever hedges the
    factor); reversal flips the sign of the one-month return so losers
    rank first; momentum uses the two-year return; size the cap. Stocks
    lacking the required history return NaN and are excluded for the day.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "low_vol":
        return panels.ols_beta[t].copy()
    if strategy == "size":
        if universe.caps is None:
            raise ValueError("size strategy requires capitalization data")
        return universe.caps[t].copy()
    past = np.asarray(t) - INDICATOR_WINDOW[strategy]
    with np.errstate(invalid="ignore"):
        growth = universe.prices[t] / universe.prices[np.maximum(past, 0)] - 1.0
    growth[past < 0] = np.nan
    return -growth if strategy == "reversal" else growth


@dataclass(frozen=True)
class FactorWeights:
    """Aggregated per-stock weights for one position date.

    The beta-neutrality condition holds per supersector and therefore in
    aggregate; sector weights are averaged so the gross exposure stays at
    or below one.
    """

    date: object
    tickers: tuple
    weights: np.ndarray
    mu_plus: dict
    mu_minus: dict


def build_factors(universe: Universe, days, strategy: str,
                  panels: UniversePanels, beta_source: str = "ols"):
    """Beta-neutral weights for position dates ``days + 1``, each from data
    available through its day in ``days``, all days in one pass.

    Per day and supersector: rank by indicator (ties broken by ticker),
    select the top and bottom ``round(p * N)`` stocks at the strategy's
    quantile ``p = STRATEGY_QUANTILE[strategy]`` (at least one, never
    overlapping), weight them inversely to volatility capped at the
    sector mean, then scale whichever leg carries the larger aggregate
    beta so the sector satisfies exact neutrality; the non-reduced leg's
    multiplier is pinned at ``1 / (2k)`` for leg size ``k``, which keeps
    the sector gross exposure at one. Sector weights are averaged over
    the sectors with eligible stocks.

    The stocks are laid out sector-major, each supersector's stocks in
    ticker order and padded to the largest sector, so one sort of a
    ``(D, m, S)`` array ranks every (day, sector) cell. A cell whose
    indicator values tie is sorted again stably, which keeps tied stocks
    in ticker order. Counts, ranks and sums come from positions in the
    sorted layout, and each sum adds down the ranks in order.

    Returns ``(weights, mu_plus, mu_minus, skipped)``: weights ``(D, n)``;
    leg multipliers ``(D, m)`` with one column per label of
    ``np.unique(universe.supersector)``, NaN for a sector without a pair
    of eligible stocks; and ``skipped`` ``(D,)``, true where some sector's
    neutrality is unsolvable or no sector is usable. Skipped days carry
    zero weights and NaN multipliers.
    """
    if beta_source not in ("ols", "reactive"):
        raise ValueError("beta_source must be 'ols' or 'reactive'")
    p = STRATEGY_QUANTILE[strategy]
    days = np.asarray(days)
    ind = indicator(strategy, universe, days, panels)
    beta = (panels.ols_beta if beta_source == "ols" else panels.re_beta)[days]
    sigma = (panels.ols_sigma if beta_source == "ols" else panels.re_sigma)[days]
    D, n = ind.shape
    labels, sector = np.unique(universe.supersector, return_inverse=True)
    m = labels.size

    eligible = np.isfinite(ind) & np.isfinite(beta) & np.isfinite(sigma) \
        & (sigma > 0.0) & np.isfinite(universe.prices[days])
    # sector-major layout (D, m, S): row s holds sector s's stocks in ticker
    # order, padded to the largest sector; place[i] is stock i's flat slot
    # and stock[j] the stock in slot j (0 on a pad)
    size = np.bincount(sector, minlength=m)
    S = int(size.max())
    place = np.empty(n, dtype=np.intp)
    place[np.argsort(sector, kind="stable")] = \
        np.arange(n) + np.repeat(np.arange(m) * S - (np.cumsum(size) - size), size)
    stock = np.zeros(m * S, dtype=np.intp)
    stock[place] = np.arange(n)

    # one sort ranks every (day, sector) row by falling indicator, eligible
    # stocks first; a row with tied keys is sorted again, stably, so tied
    # stocks keep ticker order
    np.negative(ind, out=ind)
    ind[~eligible] = np.inf
    key = np.full((D, m, S), np.inf)
    key.reshape(D, m * S)[:, place] = ind
    del ind
    order = np.argsort(key, axis=-1)
    ranked = np.take_along_axis(key, order, axis=-1)
    tied = ((ranked[..., 1:] == ranked[..., :-1]) & (ranked[..., 1:] < np.inf)).any(axis=-1)
    if tied.any():
        order[tied] = np.argsort(key[tied], axis=-1, kind="stable")
    N = np.count_nonzero(ranked < np.inf, axis=-1)
    del key, ranked
    k = np.minimum(np.maximum(np.rint(p * N), 1.0), N // 2)
    used = k >= 1

    # the flat (day, stock) index of each ranked slot
    order += (np.arange(m) * S)[:, None]
    src = stock[order]
    del order
    src += (np.arange(D) * n)[:, None, None]
    rank = np.arange(S)
    ok = rank < N[..., None]
    long_leg = rank < k[..., None]
    short_leg = ok & (rank >= (N - k)[..., None])

    # sums run down the ranks in order, as a sequential pass adds them
    base = np.take(sigma, src)
    del sigma
    with np.errstate(invalid="ignore", divide="ignore"):
        sigma_mean = _sum_down(np.where(ok, base, 0.0)) / N
        np.minimum(1.0, np.divide(sigma_mean[..., None], base, out=base), out=base)
    base[~ok] = 0.0
    exposure = np.take(beta, src)
    del beta
    exposure *= base
    b_plus = _sum_down(np.where(long_leg, exposure, 0.0))
    exposure[~short_leg] = 0.0
    b_minus = _sum_down(exposure)
    del exposure

    unsolvable = used & ((b_plus <= 0.0) | (b_minus <= 0.0))
    n_used = used.sum(axis=1)
    skipped = unsolvable.any(axis=1) | (n_used == 0)

    long_heavy = b_plus >= b_minus
    with np.errstate(invalid="ignore", divide="ignore"):
        cap = 1.0 / (2.0 * k)
        mu_p = np.where(long_heavy, cap * b_minus / b_plus, cap)
        mu_m = np.where(long_heavy, cap, cap * b_plus / b_minus)
    dropped = ~used | skipped[:, None]
    mu_p[dropped] = np.nan
    mu_m[dropped] = np.nan

    legs = np.where(long_leg, mu_p[..., None], 0.0)
    np.copyto(legs, -mu_m[..., None], where=short_leg)
    legs *= base
    del base
    legs[skipped] = 0.0
    legs /= np.maximum(n_used, 1)[:, None, None]
    # C-contiguous rows: on strided rows, backtest's per-day dot product rounds differently
    leg = long_leg | short_leg
    weights = np.zeros((D, n))
    weights.ravel()[src[leg]] = legs[leg]
    return weights, mu_p, mu_m, skipped


def _sum_down(x):
    """Sums along the last axis of ``x``, added in order (in place)."""
    return np.cumsum(x, axis=-1, out=x)[..., -1]


def _factor_weights(universe: Universe, t: int, weights, mu_plus,
                    mu_minus) -> FactorWeights:
    """One day's row of ``build_factors`` as a FactorWeights."""
    labels = np.unique(universe.supersector)
    used = np.isfinite(mu_plus)
    date = universe.dates[t + 1] if t + 1 < universe.n_days else universe.dates[-1]
    return FactorWeights(
        date=date, tickers=universe.tickers, weights=weights,
        mu_plus={int(s): float(v) for s, v in zip(labels[used], mu_plus[used])},
        mu_minus={int(s): float(v) for s, v in zip(labels[used], mu_minus[used])})


def build_factor(universe: Universe, t: int, strategy: str,
                 panels: UniversePanels,
                 beta_source: str = "ols") -> Optional[FactorWeights]:
    """Construct beta-neutral weights for position date ``t + 1`` from
    data available through day ``t``: ``build_factors`` for the single
    day ``t``. ``mu_plus``/``mu_minus`` map each used supersector to its
    leg multiplier. Returns None (factor skipped) when any sector's
    neutrality is unsolvable.
    """
    weights, mu_p, mu_m, skipped = build_factors(universe, [t], strategy, panels,
                                                 beta_source)
    if skipped[0]:
        return None
    return _factor_weights(universe, t, weights[0], mu_p[0], mu_m[0])


@dataclass(frozen=True)
class BacktestResult:
    strategy: str
    beta_source: str
    dates: np.ndarray
    returns: np.ndarray
    report: HedgeReport
    skipped_days: int
    weights: Optional[list] = field(default=None, repr=False)


def backtest(universe: Universe, strategy: str, beta_source: str = "ols",
             params: ReactiveParams = DEFAULT_PARAMS, *, panels: UniversePanels,
             keep_weights: bool = False) -> BacktestResult:
    """Daily-rebalanced backtest of one strategy under one beta source,
    on the universe's ``panels`` from ``compute_panels`` at ``params``.

    Position weights for day ``d`` are built from data through ``d - 1``, by
    ``build_factors`` at ``STRATEGY_QUANTILE`` in blocks of ``_BLOCK_DAYS`` days;
    the factor return on day ``d`` is the weighted sum of that day's
    stock returns (missing returns contribute zero, matching the frozen
    price). The report quotes the hedge bias (full-sample correlation
    with the index) and the dispersion of its 90-day rolling correlation.
    """
    window = INDICATOR_WINDOW[strategy]
    start = max(params.burn_in, window + 1, 90)
    T = universe.n_days
    if T - 1 - start <= 91:
        raise ValueError("universe too short for this strategy's warm-up")

    rets, traded, kept = [], [], []
    skipped = 0
    for lo in range(start, T - 1, _BLOCK_DAYS):
        days = np.arange(lo, min(lo + _BLOCK_DAYS, T - 1))
        weights, mu_p, mu_m, skip = build_factors(universe, days, strategy, panels,
                                                  beta_source)
        skipped += int(skip.sum())
        day_ret = panels.returns[days + 1]
        day_ret = np.where(np.isfinite(day_ret), day_ret, 0.0)
        for i in np.flatnonzero(~skip):
            rets.append(float(weights[i] @ day_ret[i]))
            traded.append(days[i] + 1)
            if keep_weights:
                kept.append(_factor_weights(universe, days[i], weights[i],
                                            mu_p[i], mu_m[i]))

    if len(rets) < 92:
        raise ValueError("not enough tradable days after warm-up")
    rets_arr = np.asarray(rets)
    traded = np.asarray(traded, dtype=int)
    dates = universe.dates[traded]
    idx = panels.index_returns[traded]
    report = strategy_bias_corstd(rets_arr, idx)
    return BacktestResult(
        strategy=strategy, beta_source=beta_source,
        dates=dates, returns=rets_arr,
        report=report, skipped_days=skipped,
        weights=kept if keep_weights else None,
    )


# ---------------------------------------------------------------------------
# synthetic universe (level-driven dynamics shared across stocks)


def synthetic_universe(n_stocks: int = 100, T: int = 1400, seed: int = 0,
                       params: ReactiveParams = DEFAULT_PARAMS) -> Universe:
    """Generate a panel whose conditional betas move with stock over- and
    underperformance, the dynamics the leverage-aware estimator targets.

    One index drives all stocks, at the benchmark protocol's vols
    (``montecarlo._daily_vols``); normalized returns with unit normalized beta
    are mapped through the price-level recursion, so measured betas
    drift as each stock's price diverges from its slow average. Caps are
    fixed share counts times prices; supersectors are auto-partitioned.
    """
    if n_stocks < 1 or T < 2:
        raise ValueError(f"need at least 1 stock and 2 days, got {n_stocks} and {T}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 9001])))
    s_index, _, s_resid = _daily_vols()

    # the shared index repeats in every column of the level kernel
    L = block_rows(n_stocks, T - 1)
    px, slow, lvl = np.full((3, L + 1, 2, n_stocks), 100.0)
    fast, gap = np.full(n_stocks, 100.0), np.zeros(n_stocks)
    tr = np.empty((L, 2, n_stocks))
    index_prices = np.empty(T)
    prices = np.empty((T, n_stocks))
    index_prices[0] = 100.0
    prices[0] = 100.0
    for t0 in range(1, T, L):
        m = min(L, T - t0)
        z = rng.standard_normal((m, 1 + n_stocks))     # each day: index, then stocks
        tr[:m, 0] = s_index * z[:, :1]
        tr[:m, 1] = tr[:m, 0] + s_resid * z[:, 1:]
        _level_days(px[:m + 1], slow[:m + 1], lvl[:m + 1], fast, gap, tr[:m], params)
        index_prices[t0:t0 + m] = px[1:m + 1, 0, 0]
        prices[t0:t0 + m] = px[1:m + 1, 1]
        for x in (px, slow, lvl):
            x[0] = x[m]

    shares = np.exp(rng.normal(0.0, 1.0, n_stocks))
    caps = prices * shares[None, :]
    tickers = tuple(f"S{i:03d}" for i in range(n_stocks))
    supersector = auto_supersectors(caps)
    return Universe(dates=np.arange(T), tickers=tickers, prices=prices,
                    index_prices=index_prices, supersector=supersector,
                    caps=caps)
