import copy
import dataclasses

import numpy as np
import pytest

from daily_reference import degenerate_params, reference_run
from reactivebeta.params import ReactiveParams
from reactivebeta.beta import (
    _CORRECTION_FLOOR,
    ReactiveBetaEngine,
    _elasticity_map,
    _leverage_map,
    beta_elasticity,
    init_vols,
    reactive_beta_from_returns,
)
from reactivebeta.strategies import Universe, compute_panels, synthetic_universe
from reactivebeta.timeseries import WeightedMoments, exp_weights

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


def _leverage(fast, last_index):
    """The engine's leverage factor on yesterday's fast EMA and index price."""
    return _leverage_map((fast - last_index) / fast, PARAMS)


class TestLeverageCorrection:
    def test_zero_gap(self):
        assert _leverage(100.0, 100.0) == pytest.approx(1.0)

    def test_market_below_fast_level(self):
        assert _leverage(100.0, 90.0) == pytest.approx(1.091)

    def test_market_above_fast_level(self):
        assert _leverage(100.0, 110.0) == pytest.approx(0.909)

    def test_above_one_iff_price_below_fast_level(self):
        rng = np.random.default_rng(0)
        fast = 100.0 * np.exp(0.05 * rng.standard_normal(10_000))
        last = 100.0 * np.exp(0.05 * rng.standard_normal(10_000))
        corr = _leverage(fast, last)
        assert np.all((corr >= 1.0) == (last <= fast))


def _elasticity(tilde_beta, tilde_var_stock, kappa=1.0):
    """The engine's elasticity factor on yesterday's normalized beta, the
    normalized stock variance (the index one at 1) and ``kappa``, with
    ``delta`` formed as ``advance`` forms it."""
    b = np.asarray(tilde_beta, dtype=float)
    delta = np.sqrt(np.asarray(tilde_var_stock)) / np.sqrt(kappa) - 1.0
    out = np.empty(np.broadcast_shapes(b.shape, delta.shape))
    with np.errstate(invalid="ignore", divide="ignore"):
        return _elasticity_map(b, delta, PARAMS, out, np.empty(out.shape, dtype=bool))[()]


class TestElasticityCorrection:
    def test_ratio_at_tracked_level(self):
        assert _elasticity(1.0, 4.0, kappa=4.0) == pytest.approx(1.0)

    def test_unit_beta_positive_deviation(self):
        # ratio 10% above its tracked square root: 1 + 2 * 0.3 * 0.1
        assert _elasticity(1.0, 1.21) == pytest.approx(1.06)

    def test_low_beta_regime_is_neutral(self):
        for var in (0.25, 4.0, 100.0):
            assert _elasticity(0.4, var) == 1.0

    def test_undefined_beta_is_neutral(self):
        assert _elasticity(float("nan"), 2.0) == 1.0

    def test_neutral_when_elasticity_zero(self):
        rng = np.random.default_rng(1)
        betas = rng.uniform(-2.0, PARAMS.elasticity_lo, 10_000)
        assert np.all(_elasticity(betas, rng.uniform(0.5, 2.0, 10_000)) == 1.0)


class TestReactiveBetaEngine:
    def test_stock_identical_to_index(self):
        rng = np.random.default_rng(4)
        prices = 100.0 * np.cumprod(1 + 0.01 * rng.standard_normal(800))
        engine = ReactiveBetaEngine(prices[0], prices[0], PARAMS)
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
        params = degenerate_params()
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
        params = degenerate_params(hat_normalize=True)
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
        engine = ReactiveBetaEngine(100.0, 100.0, PARAMS)
        rng = np.random.default_rng(3)
        stock = 100.0 * np.cumprod(1 + 0.015 * rng.standard_normal(300))
        engine.advance(np.full(299, 100.0), stock[1:])

        def factor(stock_price):
            # one more day on a copy of the engine, the index flat
            day = copy.deepcopy(engine)
            day.step(100.0, stock_price)
            lv = day.levels
            return float(lv.stock_level * 100.0 / (stock_price * lv.index_level))

        assert factor(stock[-1] * 0.95) > factor(stock[-1])

    @pytest.mark.slow
    def test_elasticity_lifts_mc5_normalized_beta(self):
        # the mechanism of mc5's reactive bias: on the same paths, the
        # elasticity correction lifts the final normalized beta by more
        # than five standard errors of the paired mean difference
        from reactivebeta.montecarlo import McConfig, generate_batch
        n = 2048
        batch = generate_batch(McConfig(model="mc5", T=1000, n_paths=n, seed=0), tracks=False)
        index = 100.0 * np.cumprod(1.0 + batch.r_index, axis=1).T
        stocks = 100.0 * np.cumprod(1.0 + batch.r_stock, axis=1).T
        final = []
        for slope in (PARAMS.elasticity_slope, 0.0):
            engine = ReactiveBetaEngine(np.full(n, 100.0), np.full(n, 100.0),
                                        dataclasses.replace(PARAMS, elasticity_slope=slope))
            engine.advance(index, stocks)
            final.append(engine.beta_state.tilde_beta)
        diff = final[0] - final[1]
        assert diff.mean() > 5.0 * diff.std(ddof=1) / np.sqrt(n)

    def test_single_stock_scale_invariance(self):
        rng = np.random.default_rng(12)
        r_i = 0.01 * rng.standard_normal(300)
        r_a = 0.02 * rng.standard_normal(300)
        r_b = 0.02 * rng.standard_normal(300)
        prices_i = 100 * np.cumprod(1 + r_i)
        stocks = np.column_stack([100 * np.cumprod(1 + r_a), 100 * np.cumprod(1 + r_b)])

        def run(scale_second):
            s = stocks * np.array([1.0, scale_second])
            engine = ReactiveBetaEngine(100.0, s[0], PARAMS)
            for t in range(1, 300):
                out = engine.step(prices_i[t], s[t])
            return np.asarray(out.beta)

        assert run(1.0) == pytest.approx(run(37.5), rel=1e-12)

    def test_missing_price_freezes_beta(self):
        rng = np.random.default_rng(13)
        engine = ReactiveBetaEngine(100.0, np.array([100.0, 100.0]), PARAMS)
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
        engine = ReactiveBetaEngine(100.0, 100.0, PARAMS)
        out = engine.step(101.0, 101.0)
        assert np.isnan(float(out.beta))

    def test_filter_sensitivity_is_mild(self):
        # the outlier filter only matters for extreme gaps; on ordinary
        # Gaussian paths disabling it moves the estimates marginally
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model="mc3", T=1000, n_paths=150, seed=21))
        with_filter = reactive_beta_from_returns(batch.r_index, batch.r_stock, PARAMS)
        without = reactive_beta_from_returns(batch.r_index, batch.r_stock,
                                             dataclasses.replace(PARAMS, phi=0.0))
        assert np.mean(np.abs(with_filter - without)) < 0.01
        assert not np.allclose(with_filter, without)


# ---------------------------------------------------------------------------
# the block-wise engine against the per-day forms of daily_reference


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
        params = dataclasses.replace(PARAMS, hat_normalize=hat)
        uni = _frozen_panel(seed=block)
        expect, (levels, vols, state) = reference_run(uni.index_prices, uni.prices, params)
        panels = compute_panels(uni, params)
        assert np.array_equal(panels.re_beta, expect["beta"], equal_nan=True)
        assert np.array_equal(panels.re_sigma, expect["sigma_stock"], equal_nan=True)
        assert panels.frozen_stock_days == 65 + 14     # day 0 seeds, days 1.. advance
        assert np.isfinite(panels.re_beta[-1, 5:]).all()
        assert np.isnan(panels.re_beta[:16, 9]).all()     # no return before day 16
        assert np.isfinite(panels.re_beta[16:, 9]).all()
        returns = np.full(uni.prices.shape, np.nan)
        returns[1:] = uni.prices[1:] / uni.prices[:-1] - 1.0
        ols_beta, ols_sigma = _ols_reference(returns, panels.index_returns, params)
        assert np.array_equal(panels.ols_beta, ols_beta, equal_nan=True)
        assert np.array_equal(panels.ols_sigma, ols_sigma, equal_nan=True)

        # the same days a day at a time, and the states after the last
        engine = ReactiveBetaEngine(uni.index_prices[0], uni.prices[0], params)
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
        params = dataclasses.replace(PARAMS, **changes)
        uni = _frozen_panel(seed=5)
        index = uni.index_prices.copy()
        index[100:] *= np.concatenate([1.023 ** np.arange(1, 31), np.full(73, 1.023 ** 30)])
        expect, states = reference_run(index, uni.prices, params)
        assert np.any(expect[floor] == _CORRECTION_FLOOR)
        engine = ReactiveBetaEngine(index[0], uni.prices[0], params)
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
        expect, _ = reference_run(uni.index_prices, prices, PARAMS)
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
        expect, _ = reference_run(np.hstack([start, index]).T,
                                   np.hstack([start, stocks]).T, PARAMS)
        assert np.array_equal(together, expect["beta"][-1])
        for k in (0, 17, 36):
            alone = reactive_beta_from_returns(batch.r_index[k], batch.r_stock[k], PARAMS)
            assert alone.shape == ()
            assert alone == together[k]
