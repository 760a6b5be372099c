import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from daily_reference import normalized_returns, update_levels
from reactivebeta.beta import ReactiveBetaEngine
from reactivebeta.params import ReactiveParams
from reactivebeta.volatility import filter_phi, init_levels

PARAMS = ReactiveParams()


class TestFilter:
    def test_zero(self):
        assert filter_phi(0.0, 3.3) == 0.0
        assert filter_phi(0.0, 0.0) == 0.0

    def test_saturation(self):
        assert filter_phi(10.0, 3.3) == pytest.approx(math.tanh(33.0) / 3.3)
        assert filter_phi(10.0, 3.3) == pytest.approx(1.0 / 3.3, rel=1e-12)

    def test_small_argument(self):
        val = filter_phi(0.05, 3.3)
        assert val == pytest.approx(math.tanh(0.165) / 3.3)
        assert val == pytest.approx(0.0496, abs=2e-4)

    def test_no_filter_limit(self):
        z = np.linspace(-2, 2, 11)
        assert filter_phi(z, 0.0) is z

    def test_rejects_negative_phi(self):
        with pytest.raises(ValueError):
            filter_phi(0.1, -1.0)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 10))
    @settings(max_examples=300)
    def test_odd_monotone_bounded(self, z1, z2, phi):
        f1, f2 = filter_phi(z1, phi), filter_phi(z2, phi)
        assert filter_phi(-z1, phi) == pytest.approx(-f1, rel=1e-12, abs=1e-15)
        if z1 < z2:
            assert f1 <= f2
        assert abs(f1) <= 1.0 / phi + 1e-15

    def test_unit_slope_at_origin(self):
        for phi in (0.5, 3.3, 8.0):
            assert filter_phi(1e-9, phi) / 1e-9 == pytest.approx(1.0, rel=1e-6)


def _engine(price=100.0, n_stocks=1, params=PARAMS):
    """An engine started on one day of equal prices: every gap zero."""
    engine = ReactiveBetaEngine(params)
    engine.start(price, np.full(n_stocks, price) if n_stocks > 1 else price)
    return engine


class TestLevels:
    def test_constant_prices_fixed_point(self):
        engine = _engine()
        engine.advance(np.full(50, 100.0), np.full(50, 100.0))
        assert engine.levels.index_level == pytest.approx(100.0, rel=1e-14)
        assert engine.levels.stock_level == pytest.approx(100.0, rel=1e-14)

    def test_index_drop_hand_recursion(self):
        # steady state then a single -1% index move, stepped by hand
        c, new = 100.0, 99.0
        engine = _engine()
        engine.step(new, new)

        slow = (1 - PARAMS.lambda_s) * c + PARAMS.lambda_s * new
        fast = (1 - PARAMS.lambda_f) * c + PARAMS.lambda_f * new
        gap_f = (fast - new) / fast
        z_slow = (slow - new) / new
        expect = new * (1 + math.tanh(PARAMS.phi * z_slow) / PARAMS.phi) \
                     * (1 + PARAMS.ell * gap_f)
        assert engine.levels.index_level == pytest.approx(expect, rel=1e-14)
        # systematic term alone lifts the level ratio by ~ ell * 1% * (1 - lambda_f)
        assert PARAMS.ell * gap_f == pytest.approx(
            PARAMS.ell * 0.01 * (1 - PARAMS.lambda_f), rel=0.02)

    def test_stock_underperformance_lifts_stock_level(self):
        # index flat, stock loses 1%: stock level gains ~1% on the price
        engine = _engine()
        engine.step(100.0, 99.0)
        ratio = engine.levels.stock_level / 99.0
        z = (100.0 * (1 - PARAMS.lambda_s) + PARAMS.lambda_s * 99.0 - 99.0) / 99.0
        assert ratio == pytest.approx(1 + math.tanh(PARAMS.phi * z) / PARAMS.phi, rel=1e-14)
        assert ratio - 1 == pytest.approx(0.01, abs=2e-3)

    def test_rejects_bad_prices(self):
        for index, stock in ((-1.0, 100.0), (100.0, 0.0), (float("nan"), 100.0)):
            with pytest.raises(ValueError):
                _engine().step(index, stock)

    def test_missing_stock_freezes_state(self):
        engine = _engine(n_stocks=3)
        engine.step(101.0, np.array([101.0, np.nan, 99.0]))
        levels = engine.levels
        assert levels.slow_stock[1] == 100.0
        assert levels.stock_level[1] == 100.0
        assert levels.last_stock[1] == 100.0
        assert levels.slow_stock[0] != 100.0
        assert engine.frozen_stock_days == 1


class TestNormalizedReturns:
    # a first return seeds its normalized variance with its square
    def test_steady_state_move(self):
        engine = _engine()
        engine.step(101.0, 101.0)
        assert math.sqrt(engine.vols.tilde_var_index) == pytest.approx(0.01)
        assert math.sqrt(engine.vols.tilde_var_stock) == pytest.approx(0.01)

    def test_level_twice_price(self):
        engine = _engine()
        engine.levels = dataclasses.replace(engine.levels, index_level=200.0, stock_level=200.0)
        engine.step(101.0, 101.0)
        assert math.sqrt(engine.vols.tilde_var_index) == pytest.approx(0.005)

    def test_against_plain_python_recursion(self):
        # independent scalar re-implementation of the reference's
        # level/return recursion, which the engine is checked against
        rng = np.random.default_rng(11)
        prices_i = 100.0 * np.cumprod(1 + 0.01 * rng.standard_normal(100))
        prices_s = 100.0 * np.cumprod(1 + 0.02 * rng.standard_normal(100))
        p = PARAMS

        levels = init_levels(prices_i[0], prices_s[0])
        got = []
        for t in range(1, 100):
            r_i, r_s = normalized_returns(levels, prices_i[t], prices_s[t])
            got.append((float(r_i), float(r_s)))
            levels = update_levels(levels, prices_i[t], prices_s[t], p)

        ls = lf = prices_i[0]
        lis = prices_s[0]
        L, Li = prices_i[0], prices_s[0]
        expected = []
        for t in range(1, 100):
            I, S = prices_i[t], prices_s[t]
            expected.append(((I - prices_i[t - 1]) / L, (S - prices_s[t - 1]) / Li))
            ls = (1 - p.lambda_s) * ls + p.lambda_s * I
            lf = (1 - p.lambda_f) * lf + p.lambda_f * I
            lis = (1 - p.lambda_s) * lis + p.lambda_s * S
            g = (lf - I) / lf
            L = I * (1 + math.tanh(p.phi * (ls - I) / I) / p.phi) * (1 + p.ell * g)
            Li = S * (1 + math.tanh(p.phi * (lis - S) / S) / p.phi) * (1 + p.ell_prime * g)
        assert np.allclose(got, expected, rtol=1e-13, atol=1e-16)

    def test_uninitialized_state_error(self):
        engine = ReactiveBetaEngine()
        with pytest.raises(RuntimeError):
            engine.step(100.0, 100.0)


class TestReactiveVols:
    def test_constant_return_fixed_point(self):
        # a steady 2% daily move: the level ratio settles, and the
        # reactive vol at the fixed point is the move itself
        engine = _engine()
        prices = 100.0 * 1.02 ** np.arange(1, 2001)
        engine.advance(prices, prices)
        assert engine.vols.sigma_index == pytest.approx(0.02, rel=1e-9)
        assert engine.vols.sigma_stock == pytest.approx(0.02, rel=1e-9)

    def test_level_ratio_conversion(self):
        engine = _engine()
        engine.levels = dataclasses.replace(engine.levels, index_level=108.0)
        engine.step(101.0, 101.0)
        assert engine.vols.sigma_index == pytest.approx(
            (1.0 / 108.0) * engine.levels.index_level / 101.0, rel=1e-14)
        assert engine.levels.index_level / 101.0 != pytest.approx(1.0, abs=1e-3)

    def test_identity_sigma_price_equals_tilde_level(self):
        rng = np.random.default_rng(5)
        prices_i = 100 * np.cumprod(1 + 0.01 * rng.standard_normal(300))
        prices_s = 100 * np.cumprod(1 + 0.02 * rng.standard_normal(300))
        engine = ReactiveBetaEngine(PARAMS)
        engine.start(prices_i[0], prices_s[0])
        for t in range(1, 300):
            engine.step(prices_i[t], prices_s[t])
            levels, vols = engine.levels, engine.vols
            assert vols.sigma_index * prices_i[t] == pytest.approx(
                math.sqrt(vols.tilde_var_index) * levels.index_level, rel=1e-12)
            assert vols.sigma_stock * prices_s[t] == pytest.approx(
                math.sqrt(vols.tilde_var_stock) * levels.stock_level, rel=1e-12)

    def test_estimation_noise_scale(self):
        # EMA variance of iid Gaussian input has relative std ~ sqrt(2 * lam);
        # with both level EMAs at weight one and no leverage the level is the
        # price, so the normalized returns are the iid raw returns
        rng = np.random.default_rng(2)
        prices = 100.0 * np.cumprod(1 + 0.01 * rng.standard_normal(5000))
        engine = _engine(params=PARAMS.replace(lambda_s=1.0, lambda_f=1.0,
                                               ell=0.0, ell_prime=0.0))
        sigma = np.empty(5000)
        engine.advance(prices, prices, sigma_out=sigma)
        track = sigma[201:] ** 2
        rel_std = track.std() / track.mean()
        assert 0.12 < rel_std < 0.20
        frac_close = np.mean(np.abs(np.sqrt(track) / 0.01 - 1) < 0.16)
        assert frac_close > 0.9


class TestScaleInvariance:
    def test_global_price_rescaling(self):
        rng = np.random.default_rng(8)
        r_i = 0.01 * rng.standard_normal(120)
        r_s = 0.02 * rng.standard_normal(120)
        for k in (0.5, 100.0):
            out = {}
            for scale in (1.0, k):
                prices_i = scale * 100 * np.cumprod(1 + r_i)
                prices_s = scale * 100 * np.cumprod(1 + r_s)
                engine = ReactiveBetaEngine(PARAMS)
                engine.start(prices_i[0], prices_s[0])
                engine.advance(prices_i[1:], prices_s[1:])
                vols, levels = engine.vols, engine.levels
                out[scale] = (float(vols.tilde_var_index), float(vols.tilde_var_stock),
                              float(vols.sigma_index), float(vols.sigma_stock),
                              float(levels.index_level / prices_i[-1]))
            assert out[1.0] == pytest.approx(out[k], rel=1e-12)

    def test_all_constant_fixed_point_vols_zero(self):
        engine = _engine()
        engine.advance(np.full(10, 100.0), np.full(10, 100.0))
        assert engine.vols.sigma_index == 0.0
        assert engine.vols.sigma_stock == 0.0
        assert engine.levels.index_level / 100.0 == pytest.approx(1.0, rel=1e-14)

    def test_fast_gap_sign(self):
        # the fast index EMA lags the price: above it after a drop
        for move, sign in ((99.0, 1.0), (101.0, -1.0)):
            engine = _engine()
            engine.step(move, move)
            levels = engine.levels
            assert sign * (levels.fast_index - levels.last_index) / levels.fast_index > 0.0
