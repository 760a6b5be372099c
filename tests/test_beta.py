import numpy as np
import pytest

from reactivebeta.params import ReactiveParams
from reactivebeta.beta import (
    _CORRECTION_FLOOR,
    BetaState,
    ReactiveBetaEngine,
    beta_elasticity,
    elasticity_correction,
    init_beta_state,
    leverage_correction,
    reactive_beta_from_returns,
)
from reactivebeta.strategies import Universe, compute_panels, synthetic_universe
from reactivebeta.timeseries import WeightedMoments, exp_weights
from reactivebeta.volatility import (
    LevelState,
    VolState,
    init_levels,
    init_vols,
    normalized_returns,
    update_levels,
    update_reactive_vols,
)

PARAMS = ReactiveParams()


class TestElasticity:
    def test_three_regimes(self):
        assert beta_elasticity(0.3, PARAMS) == 0.0
        assert beta_elasticity(1.0, PARAMS) == pytest.approx(0.3)
        assert beta_elasticity(2.5, PARAMS) == pytest.approx(0.6)

    def test_continuity_at_knots(self):
        eps = 1e-9
        upper = PARAMS.elasticity_lo + PARAMS.elasticity_cap / PARAMS.elasticity_slope
        assert upper == pytest.approx(1.5)
        for knot in (PARAMS.elasticity_lo, upper):
            below = beta_elasticity(knot - eps, PARAMS)
            above = beta_elasticity(knot + eps, PARAMS)
            assert below == pytest.approx(above, abs=1e-8)

    def test_vectorized(self):
        b = np.array([-1.0, 0.5, 1.05, 1.6, 3.0])
        f = beta_elasticity(b, PARAMS)
        assert f == pytest.approx([0.0, 0.0, 0.33, 0.6, 0.6])

    def test_monotone_and_capped(self):
        b = np.linspace(-2, 4, 10_001)
        f = beta_elasticity(b, PARAMS)
        assert np.all(np.diff(f) >= 0.0)
        assert f.max() == PARAMS.elasticity_cap


def _levels(fast, last_index):
    return LevelState(slow_index=last_index, fast_index=fast, slow_stock=last_index,
                      index_level=last_index, stock_level=last_index,
                      last_index=last_index, last_stock=last_index)


class TestLeverageCorrection:
    def test_zero_gap(self):
        assert leverage_correction(_levels(100.0, 100.0), PARAMS) == pytest.approx(1.0)

    def test_market_below_fast_level(self):
        assert leverage_correction(_levels(100.0, 90.0), PARAMS) == pytest.approx(1.091)

    def test_market_above_fast_level(self):
        assert leverage_correction(_levels(100.0, 110.0), PARAMS) == pytest.approx(0.909)

    def test_above_one_iff_price_below_fast_level(self):
        rng = np.random.default_rng(0)
        fast = 100.0 * np.exp(0.05 * rng.standard_normal(10_000))
        last = 100.0 * np.exp(0.05 * rng.standard_normal(10_000))
        corr = leverage_correction(_levels(fast, last), PARAMS)
        assert np.all((corr >= 1.0) == (last <= fast))


def _vol_state(tilde_var_stock, tilde_var_index=1.0):
    return VolState(tilde_var_index=tilde_var_index, tilde_var_stock=tilde_var_stock,
                    sigma_index=np.sqrt(tilde_var_index),
                    sigma_stock=np.sqrt(tilde_var_stock),
                    index_seeded=True, stock_seeded=True)


def _beta_state(tilde_beta, kappa):
    state = init_beta_state()
    object.__setattr__(state, "tilde_beta", tilde_beta)
    object.__setattr__(state, "kappa", kappa)
    object.__setattr__(state, "kappa_seeded", True)
    return state


class TestElasticityCorrection:
    def test_ratio_at_tracked_level(self):
        state = _beta_state(tilde_beta=1.0, kappa=4.0)
        vols = _vol_state(tilde_var_stock=4.0)
        assert elasticity_correction(state, vols, PARAMS) == pytest.approx(1.0)

    def test_unit_beta_positive_deviation(self):
        # ratio 10% above its tracked square root: 1 + 2 * 0.3 * 0.1
        state = _beta_state(tilde_beta=1.0, kappa=1.0)
        vols = _vol_state(tilde_var_stock=1.21)
        assert elasticity_correction(state, vols, PARAMS) == pytest.approx(1.06)

    def test_low_beta_regime_is_neutral(self):
        state = _beta_state(tilde_beta=0.4, kappa=1.0)
        for var in (0.25, 4.0, 100.0):
            assert elasticity_correction(state, _vol_state(var), PARAMS) == 1.0

    def test_undefined_beta_is_neutral(self):
        state = _beta_state(tilde_beta=float("nan"), kappa=1.0)
        assert elasticity_correction(state, _vol_state(2.0), PARAMS) == 1.0

    def test_neutral_when_elasticity_zero(self):
        rng = np.random.default_rng(1)
        betas = rng.uniform(-2.0, PARAMS.elasticity_lo, 10_000)
        state = _beta_state(tilde_beta=betas, kappa=np.ones(10_000))
        vols = _vol_state(tilde_var_stock=rng.uniform(0.5, 2.0, 10_000))
        assert np.all(elasticity_correction(state, vols, PARAMS) == 1.0)


class TestReactiveBetaEngine:
    def test_stock_identical_to_index(self):
        rng = np.random.default_rng(4)
        prices = 100.0 * np.cumprod(1 + 0.01 * rng.standard_normal(800))
        engine = ReactiveBetaEngine(PARAMS)
        engine.start(prices[0], prices[0])
        for p in prices[1:]:
            out = engine.step(p, p)
        # index and stock leverage intensities differ, so the level ratios
        # cancel only to first order in the fast gap
        assert float(out.tilde_beta) == pytest.approx(1.0, abs=0.02)
        assert float(out.beta) == pytest.approx(1.0, abs=0.02)

    def test_reduced_model_recovery(self):
        # paths whose true conditional beta is the slow-level ratio
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model="mc3", T=1000, n_paths=400, seed=6))
        est = reactive_beta_from_returns(batch.r_index, batch.r_stock, PARAMS)
        err = est - batch.true_beta[:, -1]
        assert abs(err.mean()) < 0.02
        assert np.abs(err).mean() < 0.25

    def test_degenerate_equivalence_plain(self):
        rng = np.random.default_rng(9)
        params = ReactiveParams.degenerate()
        w = exp_weights(400, params.lambda_beta)
        for _ in range(20):
            r_i = 0.01 * rng.standard_normal(400)
            r_s = 1.2 * r_i + 0.02 * rng.standard_normal(400)
            beta = reactive_beta_from_returns(r_i, r_s, params)
            ls = (w @ (r_i * r_s)) / (w @ (r_i * r_i))
            assert abs(float(beta) - ls) < 1e-10

    def test_degenerate_equivalence_variance_weighted(self):
        # with the trailing-volatility normalization on, the degenerate
        # estimator is the least-squares slope reweighted by that variance
        rng = np.random.default_rng(10)
        params = ReactiveParams.degenerate(hat_normalize=True)
        T = 400
        base_w = exp_weights(T, params.lambda_beta)
        for _ in range(10):
            r_i = 0.01 * rng.standard_normal(T)
            r_s = 0.8 * r_i + 0.02 * rng.standard_normal(T)
            beta = reactive_beta_from_returns(r_i, r_s, params)
            # trailing normalized index variance, seeded at first observation
            var = np.empty(T)
            var[0] = r_i[0] ** 2
            lam = params.lambda_sigma
            for t in range(1, T):
                var[t] = (1 - lam) * var[t - 1] + lam * r_i[t] ** 2
            w = base_w[1:] / var[:-1]
            ls = (w @ (r_i[1:] * r_s[1:])) / (w @ (r_i[1:] * r_i[1:]))
            assert abs(float(beta) - ls) < 1e-10

    def test_leverage_response_sign(self):
        # index flat, stock drops: the denormalization factor rises
        prices = np.full(300, 100.0)
        engine = ReactiveBetaEngine(PARAMS)
        engine.start(100.0, 100.0)
        rng = np.random.default_rng(3)
        stock = 100.0 * np.cumprod(1 + 0.015 * rng.standard_normal(300))
        for t in range(1, 300):
            engine.step(prices[t], stock[t])
        levels = engine.levels

        def factor(lv, s_price, i_price):
            return float(lv.stock_level * i_price / (s_price * lv.index_level))

        from reactivebeta.volatility import update_levels
        drop = update_levels(levels, 100.0, float(stock[-1]) * 0.95, PARAMS)
        flat = update_levels(levels, 100.0, float(stock[-1]), PARAMS)
        assert factor(drop, stock[-1] * 0.95, 100.0) > factor(flat, stock[-1], 100.0)

    def test_single_stock_scale_invariance(self):
        rng = np.random.default_rng(12)
        r_i = 0.01 * rng.standard_normal(300)
        r_a = 0.02 * rng.standard_normal(300)
        r_b = 0.02 * rng.standard_normal(300)
        prices_i = 100 * np.cumprod(1 + r_i)
        stocks = np.column_stack([100 * np.cumprod(1 + r_a), 100 * np.cumprod(1 + r_b)])

        def run(scale_second):
            engine = ReactiveBetaEngine(PARAMS)
            s = stocks * np.array([1.0, scale_second])
            engine.start(100.0, s[0])
            for t in range(1, 300):
                out = engine.step(prices_i[t], s[t])
            return np.asarray(out.beta)

        assert run(1.0) == pytest.approx(run(37.5), rel=1e-12)

    def test_missing_price_freezes_beta(self):
        rng = np.random.default_rng(13)
        engine = ReactiveBetaEngine(PARAMS)
        engine.start(100.0, np.array([100.0, 100.0]))
        prev = None
        for t in range(1, 200):
            i = 100.0 * (1 + 0.01 * rng.standard_normal())
            s0 = 100.0 * (1 + 0.02 * rng.standard_normal())
            if t == 150:
                out = engine.step(i, np.array([s0, np.nan]))
                assert out.beta[1] == prev
                assert engine.frozen_stock_days == 1
            else:
                out = engine.step(i, np.array([s0, 100.0 * (1 + 0.02 * rng.standard_normal())]))
                prev = out.beta[1]

    def test_undefined_before_warmup(self):
        engine = ReactiveBetaEngine(PARAMS)
        engine.start(100.0, 100.0)
        out = engine.step(101.0, 101.0)
        assert np.isnan(float(out.beta))

    def test_filter_sensitivity_is_mild(self):
        # the outlier filter only matters for extreme gaps; on ordinary
        # Gaussian paths disabling it moves the estimates marginally
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model="mc3", T=1000, n_paths=150, seed=21))
        with_filter = reactive_beta_from_returns(batch.r_index, batch.r_stock, PARAMS)
        without = reactive_beta_from_returns(batch.r_index, batch.r_stock,
                                             PARAMS.replace(phi=0.0))
        assert np.mean(np.abs(with_filter - without)) < 0.01
        assert not np.allclose(with_filter, without)


# ---------------------------------------------------------------------------
# the block-wise engine against the per-day functions, composed day by day


def _update_beta_reference(state, r_index, r_stock, prev_tilde_var_index,
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


def _reference_run(index, stocks, params):
    """Per-day beta, normalized beta, stock volatility, both correction
    factors and whether the day adds a cross-moment increment (days
    1..T-1), and the final states, from the per-day functions."""
    levels = init_levels(index[0], stocks[0])
    vols = init_vols(np.shape(index[0]), np.shape(stocks[0]))
    state = init_beta_state(np.shape(index[0]), np.shape(stocks[0]))
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
        state = _update_beta_reference(state, r_i, r_s, prev_var, corr_lev, corr_ela,
                                       levels, vols, index[t], s, params, np.isfinite(r_s),
                                       listed)
        tracks["beta"][t], tracks["tilde_beta"][t] = state.beta, state.tilde_beta
        tracks["sigma_stock"][t] = vols.sigma_stock
        tracks["leverage"][t], tracks["elasticity"][t] = corr_lev, corr_ela
        with np.errstate(invalid="ignore", divide="ignore"):
            index_ok = np.isfinite(1.0 / np.sqrt(prev_var) if params.hat_normalize else r_i)
        tracks["increment"][t] = np.isfinite(r_s) & index_ok
    return tracks, (levels, vols, state)


def _ols_reference(returns, index_returns, params):
    """The EW least-squares track, one day at a time, with per-stock masses
    and West's centered update of the means and co-moments."""
    T, n = returns.shape
    lam_b, lam_s = params.lambda_beta, params.lambda_sigma
    mass, mean_x, mean_y, cxx, cxy, vol_mass, eyy = np.zeros((7, n))
    beta, sigma = np.full((2, T, n), np.nan)
    for t in range(1, T):
        x, y = index_returns[t], returns[t]
        ok = np.isfinite(y)
        y0 = np.where(ok, y, 0.0)
        decay, gain = np.where(ok, 1.0 - lam_b, 1.0), np.where(ok, lam_b, 0.0)
        mass = decay * mass + gain
        share = np.divide(gain, mass, out=np.zeros(n), where=ok)
        prev_x = mean_x
        mean_x = (1.0 - share) * mean_x + share * x
        mean_y = (1.0 - share) * mean_y + share * y0
        cxx = decay * cxx + gain * (x - prev_x) * (x - mean_x)
        cxy = decay * cxy + gain * (x - prev_x) * (y0 - mean_y)
        decay_s, gain_s = np.where(ok, 1.0 - lam_s, 1.0), np.where(ok, lam_s, 0.0)
        vol_mass = decay_s * vol_mass + gain_s
        eyy = decay_s * eyy + gain_s * y0 * y0
        with np.errstate(invalid="ignore", divide="ignore"):
            beta[t] = WeightedMoments(mean_x, mean_y, cxx / mass, np.nan, cxy / mass).slope
            sigma[t] = np.sqrt(np.maximum(eyy / vol_mass - mean_y * mean_y, 0.0))
    return beta, sigma


def _frozen_panel(seed, n=12, T=203):
    """A synthetic universe with blank 10-day runs: from day 1, across a
    block boundary, at the end, and back to back; and a stock blank over
    days 0-14, first priced on day 15."""
    uni = synthetic_universe(n_stocks=n, T=T, seed=seed)
    prices = uni.prices.copy()
    for col, start in ((0, 1), (1, 28), (2, T - 5), (3, 60), (3, 70), (4, 95), (7, 150)):
        prices[start:start + 10, col] = np.nan
    prices[:15, 9] = np.nan
    return Universe(dates=uni.dates, tickers=uni.tickers, prices=prices,
                    index_prices=uni.index_prices, supersector=uni.supersector)


def _assert_states_equal(engine, states):
    for got, want in zip((engine.levels, engine.vols, engine.beta_state), states):
        for name, value in vars(want).items():
            assert np.array_equal(getattr(got, name), value, equal_nan=True), name


class TestBlockwiseEngine:
    @pytest.mark.parametrize("block", [7, 32])      # neither divides 202 days
    @pytest.mark.parametrize("hat", [True, False])
    def test_panel_matches_daily_composition(self, monkeypatch, block, hat):
        import reactivebeta.beta as beta_module
        import reactivebeta.strategies as strategies_module
        for module in (beta_module, strategies_module):
            monkeypatch.setattr(module, "block_rows", lambda width, total: min(block, total))
        params = PARAMS.replace(hat_normalize=hat)
        uni = _frozen_panel(seed=block)
        expect, (levels, vols, state) = _reference_run(uni.index_prices, uni.prices, params)
        panels = compute_panels(uni, params)
        assert np.array_equal(panels.re_beta, expect["beta"], equal_nan=True)
        assert np.array_equal(panels.re_sigma, expect["sigma_stock"], equal_nan=True)
        assert panels.frozen_stock_days == 65 + 14     # day 0 seeds, days 1.. advance
        assert np.isfinite(panels.re_beta[-1, 5:]).all()
        assert np.isnan(panels.re_beta[:16, 9]).all()     # no return before day 16
        assert np.isfinite(panels.re_beta[16:, 9]).all()
        ols_beta, ols_sigma = _ols_reference(panels.returns, panels.index_returns, params)
        assert np.array_equal(panels.ols_beta, ols_beta, equal_nan=True)
        assert np.array_equal(panels.ols_sigma, ols_sigma, equal_nan=True)

        # the same days a day at a time, and the states after the last
        engine = ReactiveBetaEngine(params)
        engine.start(uni.index_prices[0], uni.prices[0])
        for t in range(1, uni.n_days):
            out = engine.step(uni.index_prices[t], uni.prices[t])
            assert np.array_equal(out.tilde_beta, expect["tilde_beta"][t], equal_nan=True)
        _assert_states_equal(engine, (levels, vols, state))

    @pytest.mark.parametrize("floor, changes", [
        ("leverage", {"ell_prime": 0.0}),
        ("elasticity", {"elasticity_slope": 20.0, "elasticity_cap": 20.0}),
    ])
    def test_correction_floor_binds(self, floor, changes):
        # a 30-day index rally drives the fast gap far below zero, and a
        # steep elasticity turns small drops of the relative vol into
        # factors below the floor
        params = PARAMS.replace(**changes)
        uni = _frozen_panel(seed=5)
        index = uni.index_prices.copy()
        index[100:] *= np.concatenate([1.023 ** np.arange(1, 31), np.full(73, 1.023 ** 30)])
        expect, states = _reference_run(index, uni.prices, params)
        assert np.any(expect[floor] == _CORRECTION_FLOOR)
        engine = ReactiveBetaEngine(params)
        engine.start(index[0], uni.prices[0])
        beta, sigma = np.full((2,) + uni.prices.shape, np.nan)
        engine.advance(index[1:], uni.prices[1:], beta_out=beta[1:], sigma_out=sigma[1:])
        assert np.array_equal(beta, expect["beta"], equal_nan=True)
        assert np.array_equal(sigma, expect["sigma_stock"], equal_nan=True)
        _assert_states_equal(engine, states)
        # each count is the reference's floored days among those adding an
        # increment, in the engine and on the panels; only the forced
        # factor reaches its floor
        panels = compute_panels(Universe(dates=uni.dates, tickers=uni.tickers, prices=uni.prices,
                                         index_prices=index, supersector=uni.supersector), params)
        for name in ("leverage", "elasticity"):
            hits = np.count_nonzero(expect["increment"]
                                    & (expect[name] == _CORRECTION_FLOOR))
            assert getattr(engine, f"{name}_floor_stock_days") == hits
            assert getattr(panels, f"{name}_floor_stock_days") == hits
            assert (hits > 0) == (name == floor)

    def test_late_listed_stock_is_not_scaled_down(self):
        # stocks 0-9 first priced on day 300: each one's var_index starts
        # with its cross moments, so 90 and 180 days after listing their
        # mean reactive beta is within 10% of the always-priced run's (the
        # index-wide var_index read 0.63 and 0.87 of it, 1 - (89/90)^k)
        uni = synthetic_universe(n_stocks=20, T=900, seed=3)
        prices = uni.prices.copy()
        prices[:300, :10] = np.nan
        late = Universe(dates=uni.dates, tickers=uni.tickers, prices=prices,
                        index_prices=uni.index_prices, supersector=uni.supersector)
        always = compute_panels(uni, PARAMS).re_beta
        listed = compute_panels(late, PARAMS).re_beta
        for k in (90, 180):
            ratio = listed[300 + k, :10].mean() / always[300 + k, :10].mean()
            assert abs(ratio - 1.0) < 0.1, (k, ratio)
        assert np.array_equal(listed[:, 10:], always[:, 10:], equal_nan=True)

    def test_sigma_blank_until_first_return(self):
        uni = synthetic_universe(n_stocks=4, T=60, seed=0)
        prices = uni.prices.copy()
        prices[:3, 0] = np.nan      # first priced on day 3, first return on day 4
        prices[1, 1] = np.nan       # first return on day 2, against day 0
        uni = Universe(dates=uni.dates, tickers=uni.tickers, prices=prices,
                       index_prices=uni.index_prices, supersector=uni.supersector)
        assert np.isnan(init_vols((), (4,)).sigma_stock).all()
        expect, _ = _reference_run(uni.index_prices, prices, PARAMS)
        for sigma in (expect["sigma_stock"], compute_panels(uni, PARAMS).re_sigma):
            assert np.isnan(sigma[:4, 0]).all() and np.isnan(sigma[:2, 1]).all()
            assert (sigma[4:, 0] > 0.0).all() and (sigma[2:, 1] > 0.0).all()

    def test_path_alone_matches_block_and_composition(self):
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model="mc5", T=150, n_paths=37, seed=8))
        together = reactive_beta_from_returns(batch.r_index, batch.r_stock, PARAMS)
        index = 100.0 * np.cumprod(1.0 + batch.r_index, axis=1)
        stocks = 100.0 * np.cumprod(1.0 + batch.r_stock, axis=1)
        start = np.full((37, 1), 100.0)
        expect, _ = _reference_run(np.hstack([start, index]).T,
                                   np.hstack([start, stocks]).T, PARAMS)
        assert np.array_equal(together, expect["beta"][-1])
        for k in (0, 17, 36):
            alone = reactive_beta_from_returns(batch.r_index[k], batch.r_stock[k], PARAMS)
            assert alone.shape == ()
            assert alone == together[k]
