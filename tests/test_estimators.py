import itertools
import json
import math
import warnings

import numpy as np
import pytest

from reactivebeta.benchmark import ESTIMATORS, run_benchmark
from reactivebeta.estimators import (
    ASYMMETRIC_DCC_COEFFS,
    ASYMMETRIC_GARCH_COEFFS,
    SYMMETRIC_DCC_COEFFS,
    SYMMETRIC_GARCH_COEFFS,
    DccParams,
    GarchParams,
    dcc_beta_batch,
    dcc_calibrate,
    dcc_step,
    init_dcc_state,
    ols_beta_batch,
    quantile_beta_batch,
    quantile_objective,
    trimean_beta_batch,
    _dcc_filter,
)
from reactivebeta.montecarlo import MODELS
from reactivebeta.params import DEFAULT_PARAMS
from reactivebeta.timeseries import exp_weights

DEFAULT_LAM = DEFAULT_PARAMS.lambda_beta


def combinatorial_quantile_oracle(x, y, lam, theta):
    """Exhaustive search over lines through pairs of points: an optimal
    solution of the weighted pinball fit interpolates two observations."""
    i, j = np.triu_indices(len(x), 1)
    i, j = i[x[i] != x[j]], j[x[i] != x[j]]
    b = (y[j] - y[i]) / (x[j] - x[i])
    a = y[i] - b * x[i]
    obj = quantile_objective(x, y, lam, theta, a, b)
    k = np.argmin(obj)
    return obj[k], a[k], b[k]


class TestOls:
    def test_noise_free_line(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        assert ols_beta_batch(x, 2.0 * x, 0.1) == pytest.approx(2.0)

    def test_constant_target_zero_slope(self):
        x = np.random.default_rng(1).standard_normal(30)
        assert ols_beta_batch(x, np.full(30, 5.0), 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_against_normal_equations(self):
        rng = np.random.default_rng(2)
        lam = 1.0 / 90.0
        for _ in range(20):
            x = rng.standard_normal(1000)
            y = 0.7 * x + rng.standard_normal(1000)
            got = ols_beta_batch(x, y, lam)
            w = exp_weights(1000, lam)
            X = np.column_stack([np.ones(1000), x])
            coef = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (w * y))
            assert abs(got - coef[1]) < 1e-10

    def test_degenerate_regressor_marked(self):
        assert math.isnan(ols_beta_batch(np.full(20, 3.0), np.arange(20.0), 0.1))

    def test_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        lam = 0.05
        base = ols_beta_batch(x, y, lam)
        assert ols_beta_batch(x, 3.0 * y, lam) == pytest.approx(3.0 * base)
        assert ols_beta_batch(x, y + 2.0 * x, lam) == pytest.approx(base + 2.0)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 300))
        y = rng.standard_normal((5, 300))
        batch = ols_beta_batch(x, y, 0.02)
        for k in range(5):
            assert batch[k] == pytest.approx(ols_beta_batch(x[k], y[k], 0.02))

    @pytest.mark.parametrize("T", [33, 250, 1000])
    def test_batch_rows_bitwise_independent(self, T):
        # a path's slope (and pinball objective) must not depend on the
        # other paths in its block, as it would through BLAS blocking
        rng = np.random.default_rng(T)
        x = rng.standard_normal((37, T))
        y = 0.8 * x + rng.standard_normal((37, T))
        batch = ols_beta_batch(x, y, 0.02)
        obj = quantile_objective(x, y, 0.02, 0.5, 0.1, batch)
        for k in range(37):
            assert ols_beta_batch(x[k:k + 1], y[k:k + 1], 0.02)[0] == batch[k]
            assert quantile_objective(x[k], y[k], 0.02, 0.5, 0.1, batch[k]) == obj[k]


class TestQuantileRegression:
    def test_exact_line_any_theta(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(40)
        for theta in (0.2, 0.5, 0.8):
            (alpha,), (beta,) = quantile_beta_batch(x, 3.0 * x, theta, 0.05)
            assert alpha == pytest.approx(0.0, abs=1e-9)
            assert beta == pytest.approx(3.0, abs=1e-9)

    def test_median_ignores_symmetric_outliers(self):
        x = np.linspace(-1, 1, 41)
        y = x.copy()
        y[5] += 30.0
        y[35] -= 30.0
        _, (beta,) = quantile_beta_batch(x, y, 0.5, 0.01)
        assert beta == pytest.approx(1.0, abs=1e-8)

    def test_combinatorial_oracle_small_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            n = int(rng.integers(3, 9))
            x = rng.standard_normal(n)
            y = 0.5 * x + rng.standard_normal(n)
            theta = float(rng.uniform(0.1, 0.9))
            lam = float(rng.uniform(0.01, 0.3))
            (a_hat,), (b_hat,) = quantile_beta_batch(x, y, theta, lam)
            obj_hat = quantile_objective(x, y, lam, theta, a_hat, b_hat)
            obj_star = combinatorial_quantile_oracle(x, y, lam, theta)[0]
            assert obj_hat <= obj_star + 1e-8

    @pytest.mark.parametrize("step, most", [(0.01, 60), (0.001, 120)])
    def test_combinatorial_oracle_gridded_returns(self, step, most):
        # returns rounded to a grid put three or more observations on one
        # line, a degenerate vertex, where rotating the line about its last
        # two anchors alone can stop above the optimum
        rng = np.random.default_rng(26)
        for _ in range(300):
            n = int(rng.integers(most // 3, most + 1))
            x = np.round(0.02 * rng.standard_normal(n) / step) * step
            y = np.round((0.8 * x + 0.02 * rng.standard_normal(n)) / step) * step
            theta = float(rng.choice([0.25, 0.5, 0.75]))
            lam = float(rng.uniform(0.01, 0.1))
            (a_hat,), (b_hat,) = quantile_beta_batch(x, y, theta, lam)
            obj_hat = quantile_objective(x, y, lam, theta, a_hat, b_hat)
            assert obj_hat <= combinatorial_quantile_oracle(x, y, lam, theta)[0] * (1.0 + 1e-12)

    def test_slopes_sort_without_nan(self, monkeypatch):
        # numpy sorts a row holding a NaN off its SIMD path, several times
        # slower, so observations tied in x with the anchor must not be NaN
        import reactivebeta.estimators as estimators

        pick, caps = estimators._quantile_pick, []

        def checked(values, mass, target, last):
            assert not np.isnan(values).any()
            caps.append(np.min(last, initial=values.shape[1]))
            return pick(values, mass, target, last)

        monkeypatch.setattr(estimators, "_quantile_pick", checked)
        rng = np.random.default_rng(27)
        x = np.round(rng.standard_normal((4, 200)), 1)
        y = 0.7 * x + rng.standard_normal((4, 200))
        for theta in (0.25, 0.5, 0.75):
            assert np.isfinite(quantile_beta_batch(x, y, theta, 0.02)[1]).all()
        assert min(caps) < 200 - 2   # some anchor had a tie besides itself

    def test_degenerate_regressor_marked(self):
        x = np.random.default_rng(22).standard_normal((3, 10))
        x[1] = 1.0
        y = np.arange(30.0).reshape(3, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, (beta,) = quantile_beta_batch(x[1], y[1], 0.5, 0.1)
            _, batch = quantile_beta_batch(x, y, 0.5, 0.1)
        assert math.isnan(beta)
        assert math.isnan(batch[1]) and np.isfinite(batch[[0, 2]]).all()

    def test_nan_rows_match_least_squares(self):
        # constant, all-zero and varying regressors: the quantile fit starts
        # from the least-squares line, so both skip the same rows
        rng = np.random.default_rng(23)
        x = rng.standard_normal((5, 50))
        x[0], x[1], x[3] = 0.01, 0.0, -7.5
        y = 0.5 * x + rng.standard_normal((5, 50))
        ols = ols_beta_batch(x, y, 0.05)
        np.testing.assert_array_equal(np.isnan(ols), [True, True, False, True, False])
        for theta in (0.25, 0.5):
            np.testing.assert_array_equal(np.isnan(quantile_beta_batch(x, y, theta, 0.05)[1]),
                                          np.isnan(ols))

    def test_optimal_against_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(120)
        y = 1.5 * x + rng.standard_normal(120)
        lam = 1.0 / 90.0
        for theta in (0.25, 0.5, 0.75):
            (alpha,), (beta,) = quantile_beta_batch(x, y, theta, lam)
            got = quantile_objective(x, y, lam, theta, alpha, beta)
            assert got - combinatorial_quantile_oracle(x, y, lam, theta)[0] <= 1e-12

    def test_stopping_certificate(self):
        # the fitted line interpolates two observations; tilting it about
        # either of them must not lower the objective
        rng = np.random.default_rng(24)
        x = rng.standard_normal(1000)
        y = 0.9 * x + rng.standard_t(3, 1000)
        lam = 1.0 / 90.0
        for theta in (0.25, 0.5, 0.75):
            (alpha,), (beta,) = quantile_beta_batch(x, y, theta, lam)
            resid = np.abs(y - alpha - beta * x)
            for p in np.argsort(resid)[:2]:
                base = quantile_objective(x, y, lam, theta, y[p] - beta * x[p], beta)
                for tilt in (-1e-9, 1e-9):
                    b = beta + tilt
                    assert quantile_objective(x, y, lam, theta, y[p] - b * x[p], b) >= base

    def test_beats_annealed_irls_on_mc4(self):
        # mc4 seed 3, path 10 of 60 x 1000: the annealed IRLS with a
        # six-point vertex polish stopped at this objective, 2e-8 above
        # the optimum
        from reactivebeta.montecarlo import McConfig, generate_batch
        irls_objective = 0.008122902311709366
        batch = generate_batch(McConfig(model="mc4", T=1000, n_paths=60, seed=3), 10, 1)
        x, y = batch.r_index[0], batch.r_stock[0]
        (alpha,), (beta,) = quantile_beta_batch(x, y, 0.5, 1.0 / 90.0)
        got = quantile_objective(x, y, 1.0 / 90.0, 0.5, alpha, beta)
        assert got < irls_objective * (1.0 - 1e-8)

    def test_batch_matches_single_paths_bitwise(self):
        # also where x repeats values, and where y does too, so that lines
        # through three or more observations occur
        rng = np.random.default_rng(25)
        x = rng.standard_normal((6, 301))
        y = 0.7 * x + rng.standard_t(4, (6, 301))
        x_grid = np.round(x, 1)
        for x, y in ((x, y), (x_grid, y), (x_grid, np.round(y, 1))):
            for theta in (0.25, 0.5, 0.75):
                alpha, beta = quantile_beta_batch(x, y, theta, 0.02)
                for k in range(6):
                    a_k, b_k = quantile_beta_batch(x[k], y[k], theta, 0.02)
                    assert (a_k[0], b_k[0]) == (alpha[k], beta[k])

    def test_degenerate_vertex_scratch_stays_small(self):
        # returns rounded to 0.01 put many observations on a line, and the
        # stopping paths then rotate about 1,400 pivots at once: they go
        # in slices no taller than the batch, and each path keeps its bits
        import tracemalloc
        rng = np.random.default_rng(0)
        x = np.round(0.01 * rng.standard_normal((256, 1000)), 2)
        y = np.round(0.9 * x + 0.015 * rng.standard_normal(x.shape), 2)
        tracemalloc.start()
        try:
            alpha, beta = quantile_beta_batch(x, y, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * x.nbytes
        for k in range(0, 256, 16):
            a_k, b_k = quantile_beta_batch(x[k], y[k], 0.5)
            assert (a_k[0], b_k[0]) == (alpha[k], beta[k])

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            quantile_beta_batch(np.arange(5.0), np.arange(5.0), 0.0, 0.1)


class TestTrimean:
    def test_exact_line(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(30)
        assert trimean_beta_batch(x, 3.0 * x, 0.05)[0] == pytest.approx(3.0, abs=1e-8)

    def test_weighted_average_of_quartiles(self):
        assert 0.25 * 1.0 + 0.5 * 2.0 + 0.25 * 3.0 == pytest.approx(2.0)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(200)
        y = 0.8 * x + rng.standard_normal(200)
        parts = [quantile_beta_batch(x, y, q, 0.02)[1][0] for q in (0.25, 0.5, 0.75)]
        expect = 0.25 * parts[0] + 0.5 * parts[1] + 0.25 * parts[2]
        assert trimean_beta_batch(x, y, 0.02)[0] == pytest.approx(expect, rel=1e-12)

    def test_agrees_with_ols_for_gaussian_residuals(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(1000)
        y = 1.1 * x + 0.5 * rng.standard_normal(1000)
        lam = 5e-3
        assert trimean_beta_batch(x, y, lam)[0] == pytest.approx(ols_beta_batch(x, y, lam), abs=0.05)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 200))
        y = 0.6 * x + rng.standard_normal((4, 200))
        batch = trimean_beta_batch(x, y, 0.02)
        for k in range(4):
            assert batch[k] == trimean_beta_batch(x[k], y[k], 0.02)[0]


def _gp(sigma, coeffs):
    return GarchParams(unconditional_sigma=sigma, **coeffs)


class TestDccStep:
    def test_pure_decay_converges_to_unconditional(self):
        gp = GarchParams(a=0.0, b=0.5, gamma=0.0, unconditional_sigma=0.02)
        dp = DccParams(rho_bar=0.3, **SYMMETRIC_DCC_COEFFS)
        state = init_dcc_state(_gp(0.05, dict(a=0.0, b=0.5, gamma=0.0)), gp, dp)
        # overwrite the stock sigma away from its unconditional level
        state = type(state)(sigma_stock=0.05, sigma_index=0.02, q_stock=1.0,
                            q_index=1.0, q_cross=0.3, rho=0.3, beta=0.75)
        gp_s = GarchParams(a=0.0, b=0.5, gamma=0.0, unconditional_sigma=0.02)
        for _ in range(200):
            state = dcc_step(state, 0.0, 0.0, gp_s, gp, dp)
        assert float(state.sigma_stock) == pytest.approx(0.02, rel=1e-9)

    def test_constant_correlation_when_static(self):
        gp = _gp(0.02, SYMMETRIC_GARCH_COEFFS)
        dp = DccParams(a_rho=0.0, b_rho=0.0, gamma_rho=0.0, rho_bar=0.42)
        state = init_dcc_state(gp, gp, dp)
        rng = np.random.default_rng(13)
        for _ in range(50):
            state = dcc_step(state, 0.02 * rng.standard_normal(),
                             0.02 * rng.standard_normal(), gp, gp, dp)
            assert float(state.rho) == pytest.approx(0.42, rel=1e-12)

    def test_against_scalar_reimplementation(self):
        def scalar_path(r_s, r_I, gs, gI, dp):
            var_s, var_I = gs["u"] ** 2, gI["u"] ** 2
            qs = qi = 1.0
            qc = dp["rho"]
            betas = []
            for t in range(len(r_s)):
                xs = r_s[t] / math.sqrt(var_s)
                xI = r_I[t] / math.sqrt(var_I)
                xms = xs if xs < 0.0 else 0.0
                xmI = xI if xI < 0.0 else 0.0
                var_s = (1 - gs["a"] - gs["b"] - gs["g"] / 2) * gs["u"] ** 2 \
                    + var_s * (gs["a"] * xs * xs + gs["b"] + gs["g"] * xms * xms)
                var_I = (1 - gI["a"] - gI["b"] - gI["g"] / 2) * gI["u"] ** 2 \
                    + var_I * (gI["a"] * xI * xI + gI["b"] + gI["g"] * xmI * xmI)
                qs = (1 - dp["a"] - dp["b"] - dp["g"] / 2) + dp["a"] * xs * xs \
                    + dp["b"] * qs + dp["g"] * xms * xms
                qi = (1 - dp["a"] - dp["b"] - dp["g"] / 2) + dp["a"] * xI * xI \
                    + dp["b"] * qi + dp["g"] * xmI * xmI
                qc = (1 - dp["a"] - dp["b"] - dp["g"] / 4) * dp["rho"] \
                    + dp["a"] * xs * xI + dp["b"] * qc + dp["g"] * xms * xmI
                rho = max(-0.999, min(0.999, qc / math.sqrt(qs * qi)))
                betas.append(rho * math.sqrt(var_s / var_I))
            return betas

        rng = np.random.default_rng(14)
        for coeffs, dcoeffs in ((SYMMETRIC_GARCH_COEFFS, SYMMETRIC_DCC_COEFFS),
                                (ASYMMETRIC_GARCH_COEFFS, ASYMMETRIC_DCC_COEFFS)):
            for _ in range(10):
                r_s = 0.02 * rng.standard_normal(10)
                r_i = 0.01 * rng.standard_normal(10)
                gp_s = _gp(0.025, coeffs)
                gp_i = _gp(0.009, coeffs)
                dp = DccParams(rho_bar=0.375, **dcoeffs)
                state = init_dcc_state(gp_s, gp_i, dp)
                mine = []
                for t in range(10):
                    state = dcc_step(state, r_s[t], r_i[t], gp_s, gp_i, dp)
                    mine.append(float(state.beta))
                ref = scalar_path(
                    r_s, r_i,
                    dict(a=gp_s.a, b=gp_s.b, g=gp_s.gamma, u=0.025),
                    dict(a=gp_i.a, b=gp_i.b, g=gp_i.gamma, u=0.009),
                    dict(a=dp.a_rho, b=dp.b_rho, g=dp.gamma_rho, rho=0.375))
                assert max(abs(a - b) for a, b in zip(mine, ref)) < 1e-12

    def test_zero_asymmetry_matches_symmetric_bitwise(self):
        rng = np.random.default_rng(15)
        r_s = 0.02 * rng.standard_normal(60)
        r_i = 0.01 * rng.standard_normal(60)
        gp_sym = _gp(0.02, SYMMETRIC_GARCH_COEFFS)
        gp_zero = GarchParams(a=SYMMETRIC_GARCH_COEFFS["a"], b=SYMMETRIC_GARCH_COEFFS["b"],
                              gamma=0.0, unconditional_sigma=0.02)
        dp_sym = DccParams(rho_bar=0.3, **SYMMETRIC_DCC_COEFFS)
        dp_zero = DccParams(a_rho=SYMMETRIC_DCC_COEFFS["a_rho"],
                            b_rho=SYMMETRIC_DCC_COEFFS["b_rho"],
                            gamma_rho=0.0, rho_bar=0.3)
        s1 = init_dcc_state(gp_sym, gp_sym, dp_sym)
        s2 = init_dcc_state(gp_zero, gp_zero, dp_zero)
        # without asymmetry the sign of the shocks cannot matter, so the
        # mirrored returns give the same beta
        for t in range(60):
            s1 = dcc_step(s1, r_s[t], r_i[t], gp_sym, gp_sym, dp_sym)
            s2 = dcc_step(s2, -r_s[t], -r_i[t], gp_zero, gp_zero, dp_zero)
            assert float(s1.beta) == float(s2.beta)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(16)
        gp = _gp(0.02, ASYMMETRIC_GARCH_COEFFS)
        dp = DccParams(rho_bar=0.375, **ASYMMETRIC_DCC_COEFFS)
        n = 10_000
        state = init_dcc_state(gp, gp, dp, shape=(n,))
        for _ in range(30):
            r_s = np.asarray(state.sigma_stock) * rng.standard_t(3, n) * 0.5
            r_i = np.asarray(state.sigma_index) * rng.standard_t(3, n) * 0.5
            state = dcc_step(state, r_s, r_i, gp, gp, dp)
            assert np.all(np.asarray(state.sigma_stock) > 0)
            assert np.all(np.asarray(state.q_stock) > 0)
            assert np.all(np.asarray(state.q_index) > 0)
            assert np.all(np.abs(np.asarray(state.rho)) <= 0.999)

    def test_stationarity_validation(self):
        with pytest.raises(ValueError):
            GarchParams(a=0.5, b=0.5, gamma=0.2, unconditional_sigma=0.02)
        with pytest.raises(ValueError):
            DccParams(a_rho=0.5, b_rho=0.5, gamma_rho=0.2, rho_bar=0.3)
        with pytest.raises(ValueError):
            DccParams(a_rho=0.1, b_rho=0.1, gamma_rho=0.0, rho_bar=1.5)

    def test_normalized_variances_stay_positive(self):
        # q_stock and q_index step with the constant 1 - a_rho - b_rho -
        # gamma_rho/2, so stationarity counts half the asymmetry; the first
        # coefficients' constant is -0.025, and zero returns would drive
        # q_stock to -0.167
        with pytest.raises(ValueError):
            DccParams(a_rho=0.1, b_rho=0.85, gamma_rho=0.15, rho_bar=0.3)
        gp = _gp(0.02, SYMMETRIC_GARCH_COEFFS)
        dp = DccParams(a_rho=0.1, b_rho=0.85, gamma_rho=0.09, rho_bar=0.3)
        state = init_dcc_state(gp, gp, dp)
        for _ in range(500):
            state = dcc_step(state, 0.0, 0.0, gp, gp, dp)
        assert float(state.q_stock) > 0.0 and float(state.q_index) > 0.0


class TestDccCalibration:
    def test_moment_matching_without_dynamics(self):
        # with all dynamics switched off the likelihood is a plain
        # weighted Gaussian fit: sigma equals the weighted sample std
        rng = np.random.default_rng(17)
        n, T = 40, 1000
        z1 = rng.standard_normal((n, T))
        z2 = rng.standard_normal((n, T))
        si, sI, rho = 0.025, 0.009, 0.375
        r_i = sI * z1
        r_s = si * (rho * z1 + np.sqrt(1 - rho * rho) * z2)
        static_g = dict(a=0.0, b=0.0, gamma=0.0)
        static_d = dict(a_rho=0.0, b_rho=0.0, gamma_rho=0.0)
        cal = dcc_calibrate(r_s, r_i, static_g, static_d, lam=1.0 / 90.0)
        w = exp_weights(T, 1.0 / 90.0)
        # no-mean-subtraction weighted std, matching the zero-mean likelihood
        std_s = np.sqrt((r_s * r_s) @ w)
        std_i = np.sqrt((r_i * r_i) @ w)
        assert np.median(np.abs(cal.sigma_stock / std_s - 1)) < 0.02
        assert np.median(np.abs(cal.sigma_index / std_i - 1)) < 0.02
        assert np.median(cal.rho_bar) == pytest.approx(rho, abs=0.05)
        assert cal.converged.all()

    def test_likelihood_highest_near_truth_on_average(self):
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model="mc6", T=400, n_paths=60, seed=18))
        si, sI, rho = 0.4 / math.sqrt(255), 0.15 / math.sqrt(255), 0.375
        n = batch.n_paths
        ll_true = _dcc_filter(np.full(n, si), np.full(n, sI), np.full(n, rho),
                              batch.r_stock, batch.r_index,
                              SYMMETRIC_GARCH_COEFFS, SYMMETRIC_DCC_COEFFS, 1.0 / 90.0)[0]
        for fac in (0.8, 1.2):
            ll_pert = _dcc_filter(np.full(n, fac * si), np.full(n, fac * sI),
                                  np.full(n, rho), batch.r_stock, batch.r_index,
                                  SYMMETRIC_GARCH_COEFFS, SYMMETRIC_DCC_COEFFS, 1.0 / 90.0)[0]
            assert ll_true.mean() > ll_pert.mean()

    @pytest.mark.slow
    def test_recovery_from_generated_paths(self):
        # generate from the symmetric model with known unconditional
        # parameters, recover them by weighted quasi maximum likelihood;
        # with a 90-day look-back the median drifts high single digits,
        # and tightens towards truth as the look-back grows
        from reactivebeta.montecarlo import McConfig, generate_batch
        si, sI, rho = 0.4 / math.sqrt(255), 0.15 / math.sqrt(255), 0.375
        batch = generate_batch(McConfig(model="mc6", T=1000, n_paths=500, seed=23))
        cal = dcc_calibrate(batch.r_stock, batch.r_index,
                            SYMMETRIC_GARCH_COEFFS, SYMMETRIC_DCC_COEFFS)
        assert abs(np.median(cal.sigma_stock) / si - 1) < 0.10
        assert abs(np.median(cal.sigma_index) / sI - 1) < 0.10
        assert abs(np.median(cal.rho_bar) / rho - 1) < 0.10

        long_cfg = McConfig(model="mc6", T=4000, n_paths=100, seed=5)
        long_batch = generate_batch(long_cfg)
        cal_long = dcc_calibrate(long_batch.r_stock, long_batch.r_index,
                                 SYMMETRIC_GARCH_COEFFS, SYMMETRIC_DCC_COEFFS,
                                 lam=1.0 / 1000.0)
        assert abs(np.median(cal_long.sigma_stock) / si - 1) < 0.04
        assert abs(np.median(cal_long.sigma_index) / sI - 1) < 0.04

    def test_short_sample_rejected(self):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError):
            dcc_calibrate(rng.standard_normal((2, 50)), rng.standard_normal((2, 50)),
                          SYMMETRIC_GARCH_COEFFS, SYMMETRIC_DCC_COEFFS)

    @pytest.mark.parametrize("garch, dcc", [
        (dict(a=0.1, b=0.9, gamma=0.0), SYMMETRIC_DCC_COEFFS),
        (dict(a=0.099, b=0.89, gamma=-0.1), SYMMETRIC_DCC_COEFFS),
        (SYMMETRIC_GARCH_COEFFS, dict(a_rho=0.0, b_rho=1.0, gamma_rho=0.0)),
        (SYMMETRIC_GARCH_COEFFS, dict(a_rho=-0.01, b_rho=0.9261, gamma_rho=0.0)),
        (SYMMETRIC_GARCH_COEFFS, dict(a_rho=0.2, b_rho=0.85, gamma_rho=0.0)),
        (ASYMMETRIC_GARCH_COEFFS, dict(a_rho=0.1, b_rho=0.85, gamma_rho=0.15)),
    ], ids=["garch_unit_root", "garch_negative_gamma", "dcc_unit_b_rho",
            "dcc_negative_a_rho", "dcc_nonstationary", "dcc_half_asymmetry"])
    def test_invalid_coefficients_rejected(self, garch, dcc):
        # the coefficient dicts pass the GarchParams and DccParams checks,
        # or the calibration refuses them before it filters anything
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError):
            dcc_calibrate(0.01 * rng.standard_normal((2, 120)),
                          0.01 * rng.standard_normal((2, 120)), garch, dcc)

    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_batch_matches_single_paths_bitwise(self, asymmetric):
        # the moment start, the search and the final filter work path by
        # path, so a block must reproduce each path solved alone, and its
        # evaluation count must be the sum of theirs
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model="mc6", T=150, n_paths=12, seed=3))
        beta, cal = dcc_beta_batch(batch.r_stock, batch.r_index, asymmetric=asymmetric)
        evaluations = 0
        for k in range(batch.n_paths):
            b1, c1 = dcc_beta_batch(batch.r_stock[k:k + 1], batch.r_index[k:k + 1],
                                    asymmetric=asymmetric)
            assert b1[0] == beta[k]
            for field in ("sigma_stock", "sigma_index", "rho_bar", "loglik", "beta",
                          "converged", "at_bound"):
                assert getattr(c1, field)[0] == getattr(cal, field)[k], field
            evaluations += c1.evaluations
        assert cal.evaluations == evaluations

    def test_backtracks_when_a_step_does_not_raise_the_likelihood(self, monkeypatch):
        # the first trial is made to lower the likelihood: the search keeps
        # its point, retries half the step, and still converges; the step
        # moves the vols relative to the point, so it halves in the vols
        import reactivebeta.estimators as estimators
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model="mc6", T=250, n_paths=3, seed=26))
        points, filtered = [], estimators._dcc_filter

        def spoiled(cs, ci, cr, *args):
            out = filtered(cs, ci, cr, *args)
            points.append(np.stack([cs, ci, cr]))
            if len(points) == 2:
                return (out[0] - 1e6,) + out[1:]
            return out

        monkeypatch.setattr(estimators, "_dcc_filter", spoiled)
        cal = dcc_calibrate(batch.r_stock, batch.r_index,
                            SYMMETRIC_GARCH_COEFFS, SYMMETRIC_DCC_COEFFS)
        start, trial, retry = points[:3]
        np.testing.assert_allclose(retry - start, 0.5 * (trial - start), rtol=1e-9)
        assert cal.converged.all()

    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_path_with_nan_start_stops_after_one_pass(self, asymmetric):
        # a NaN return makes the starting likelihood NaN, which no step can
        # beat: the path stops after its first pass, beta NaN and flagged
        # neither converged nor at the bound, and leaves the others' bits
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model="mc6", T=250, n_paths=8, seed=28))
        r_s = batch.r_stock.copy()
        r_s[5, 100] = np.nan
        beta, cal = dcc_beta_batch(r_s, batch.r_index, asymmetric=asymmetric)
        keep = np.arange(batch.n_paths) != 5
        _, ref = dcc_beta_batch(r_s[keep], batch.r_index[keep], asymmetric=asymmetric)
        assert np.isnan(beta[5]) and not cal.converged[5] and not cal.at_bound[5]
        assert cal.evaluations == ref.evaluations + 1
        for field in ("sigma_stock", "sigma_index", "rho_bar", "loglik", "beta",
                      "converged", "at_bound", "rho_clamped_days"):
            assert np.array_equal(getattr(cal, field)[keep], getattr(ref, field)), field

    def test_counts_the_days_the_rho_clamp_holds(self):
        # the last path's stock is nearly 1.5 times the index, so at
        # rho_bar 0.98 its correlation runs into the clamp: the filter
        # counts the days on which dcc_step's correlation is clamped. The
        # calibration keeps the count of its returned point, and a stock
        # that is the index holds the clamp every day at the bound
        from reactivebeta.montecarlo import McConfig, generate_batch
        gcoef, dcoef = ASYMMETRIC_GARCH_COEFFS, ASYMMETRIC_DCC_COEFFS
        batch = generate_batch(McConfig(model="mc6", T=300, n_paths=4, seed=25))
        r_s, r_i = batch.r_stock.copy(), batch.r_index
        noise = np.random.default_rng(25).standard_normal(batch.T)
        r_s[3] = 1.5 * r_i[3] + 0.1 * np.std(r_i[3]) * noise
        point = np.array([[0.03, 0.02, 0.025, 0.015], [0.011, 0.008, 0.010, 0.010],
                          [0.3, -0.2, 0.5, 0.98]])
        counted = _dcc_filter(*point, r_s, r_i, gcoef, dcoef, DEFAULT_LAM)[4]
        gp_s, gp_i = _gp(point[0], gcoef), _gp(point[1], gcoef)
        dp = DccParams(rho_bar=point[2], **dcoef)
        state = init_dcc_state(gp_s, gp_i, dp, shape=(4,))
        held = np.zeros(4, dtype=int)
        for t in range(batch.T):   # day t's likelihood reads the state before it
            held += np.abs(state.rho) == 0.999
            state = dcc_step(state, r_s[:, t], r_i[:, t], gp_s, gp_i, dp)
        assert np.array_equal(counted, held)
        assert held[3] > 0 and not held[:3].any()

        r_s[2] = r_i[2]
        cal = dcc_calibrate(r_s, r_i, gcoef, dcoef)
        fitted = _dcc_filter(cal.sigma_stock, cal.sigma_index, cal.rho_bar, r_s, r_i,
                             gcoef, dcoef, DEFAULT_LAM)[4]
        assert np.array_equal(cal.rho_clamped_days, fitted)
        assert cal.at_bound[2] and cal.rho_clamped_days[2] == batch.T

    def test_evaluations_per_path_on_mc6(self):
        # Newton steps in the vols, relative to the current vol, close the
        # gap from the moment start in about 4-4.6 passes per path here
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model="mc6", T=250, n_paths=60, seed=0))
        for asymmetric in (False, True):
            _, cal = dcc_beta_batch(batch.r_stock, batch.r_index, asymmetric=asymmetric)
            assert cal.converged.all()
            assert cal.evaluations <= 4.8 * batch.n_paths, asymmetric

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("model, n_paths", [("mc7", 1), ("mc6", 3), ("mc7", 60)])
    def test_filter_block_length_keeps_every_bit(self, monkeypatch, block, model, n_paths):
        # every map of the filter is elementwise per day and path and the
        # likelihood sums in day order, so its blocks of days change no bit
        import reactivebeta.estimators as estimators
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model=model, T=300, n_paths=n_paths, seed=27))
        gcoef, dcoef = ASYMMETRIC_GARCH_COEFFS, ASYMMETRIC_DCC_COEFFS
        expect = dcc_calibrate(batch.r_stock, batch.r_index, gcoef, dcoef)
        monkeypatch.setattr(estimators, "block_rows", lambda width, total: min(block, total))
        got = dcc_calibrate(batch.r_stock, batch.r_index, gcoef, dcoef)
        for field in ("sigma_stock", "sigma_index", "rho_bar", "loglik", "beta",
                      "converged", "at_bound", "evaluations"):
            assert np.array_equal(getattr(got, field), getattr(expect, field)), field

    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_stopping_certificate(self, asymmetric):
        # at the returned point no tilt of 1e-6 in log sigma_stock, log
        # sigma_index or rho_bar raises the likelihood by more than 1e-12
        # relative; the search spends a few passes per path
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model="mc6", T=1000, n_paths=4, seed=24))
        gcoef = ASYMMETRIC_GARCH_COEFFS if asymmetric else SYMMETRIC_GARCH_COEFFS
        dcoef = ASYMMETRIC_DCC_COEFFS if asymmetric else SYMMETRIC_DCC_COEFFS
        cal = dcc_calibrate(batch.r_stock, batch.r_index, gcoef, dcoef)
        assert cal.converged.all() and not cal.at_bound.any()
        assert cal.evaluations <= 12 * batch.n_paths
        point = np.stack([cal.sigma_stock, cal.sigma_index, cal.rho_bar])
        for j, sign in itertools.product(range(3), (-1.0, 1.0)):
            tilted = point.copy()
            if j < 2:
                tilted[j] *= math.exp(sign * 1e-6)
            else:
                tilted[j] += sign * 1e-6
            ll = _dcc_filter(*tilted, batch.r_stock, batch.r_index, gcoef, dcoef,
                             DEFAULT_LAM)[0]
            assert np.all(ll - cal.loglik <= 1e-12 * np.abs(cal.loglik)), (j, sign)


class TestDccDerivatives:
    @pytest.mark.parametrize("model", ["mc6", "mc7"])
    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_score_and_hessian_match_central_differences(self, model, asymmetric):
        # the score against central differences of the likelihood, and the
        # Hessian against central differences of the score, in (log
        # sigma_stock, log sigma_index, rho_bar); the last path's stock is
        # nearly 1.5 times the index, so its correlation runs near the clamp
        from reactivebeta.montecarlo import McConfig, generate_batch
        gcoef = ASYMMETRIC_GARCH_COEFFS if asymmetric else SYMMETRIC_GARCH_COEFFS
        dcoef = ASYMMETRIC_DCC_COEFFS if asymmetric else SYMMETRIC_DCC_COEFFS
        batch = generate_batch(McConfig(model=model, T=300, n_paths=4, seed=25))
        r_s, r_i = batch.r_stock.copy(), batch.r_index
        noise = np.random.default_rng(25).standard_normal(batch.T)
        r_s[3] = 1.5 * r_i[3] + 0.1 * np.std(r_i[3]) * noise
        point = np.array([np.log([0.03, 0.02, 0.025, 0.015]),
                          np.log([0.011, 0.008, 0.010, 0.010]),
                          [0.3, -0.2, 0.5, 0.97 if asymmetric else 0.98]])

        def filtered(x):
            return _dcc_filter(np.exp(x[0]), np.exp(x[1]), x[2], r_s, r_i,
                               gcoef, dcoef, DEFAULT_LAM)

        gp_s = _gp(math.exp(point[0, 3]), gcoef)
        gp_i = _gp(math.exp(point[1, 3]), gcoef)
        dp = DccParams(rho_bar=point[2, 3], **dcoef)
        state, top = init_dcc_state(gp_s, gp_i, dp), 0.0
        for t in range(batch.T):
            top = max(top, abs(float(state.rho)))
            state = dcc_step(state, r_s[3, t], r_i[3, t], gp_s, gp_i, dp)
        assert 0.98 < top < 0.999

        _, _, score, hess, _ = filtered(point)
        h = 1e-6   # near the clamp the curvature in rho_bar changes fast
        for j in range(3):
            up, down = point.copy(), point.copy()
            up[j] += h
            down[j] -= h
            ll_up, _, score_up, _, _ = filtered(up)
            ll_down, _, score_down, _, _ = filtered(down)
            gap = np.abs((ll_up - ll_down) / (2.0 * h) - score[j])
            assert np.all(gap <= 1e-6 * np.abs(score).max(axis=0)), j
            gap = np.abs((score_up - score_down) / (2.0 * h) - hess[:, j])
            assert np.all(gap <= 1e-6 * np.abs(hess).max(axis=(0, 1))), j
        assert np.array_equal(hess, hess.transpose(1, 0, 2))


class TestSharedLookBack:
    def test_every_estimator_reads_lambda_beta(self):
        # simulate --config sets lambda_beta, and every rival follows it
        from reactivebeta.benchmark import estimate_batch
        from reactivebeta.montecarlo import McConfig, generate_batch
        from reactivebeta.params import ReactiveParams
        batch = generate_batch(McConfig(model="mc6", T=150, n_paths=3, seed=2))
        r_s, r_i, lam = batch.r_stock, batch.r_index, 0.05
        expect = {
            "ols": ols_beta_batch(r_i, r_s, lam),
            "mad": quantile_beta_batch(r_i, r_s, 0.5, lam)[1],
            "trm": trimean_beta_batch(r_i, r_s, lam),
            "dcc": dcc_beta_batch(r_s, r_i, lam=lam)[0],
            "adcc": dcc_beta_batch(r_s, r_i, asymmetric=True, lam=lam)[0],
        }
        for name, want in expect.items():
            assert np.array_equal(estimate_batch(name, batch, ReactiveParams(lambda_beta=lam)),
                                  want), name
            assert not np.array_equal(estimate_batch(name, batch), want), name


class TestSharedMedianFit:
    @pytest.mark.parametrize("names", [("mad", "trm"), ("trm", "mad")])
    def test_median_solved_once_per_block(self, monkeypatch, names):
        # mad and trm read one median fit per block, and their rows are
        # bit for bit those of runs that score each alone
        import reactivebeta.benchmark as benchmark

        solve = benchmark.quantile_beta_batch
        levels = []

        def counting(x, y, theta, lam):
            levels.append(theta)
            return solve(x, y, theta, lam)

        monkeypatch.setattr(benchmark, "quantile_beta_batch", counting)
        monkeypatch.setattr(benchmark, "_BLOCK_PATHS", 4)
        run = dict(model="mc4", n_paths=10, T=150, seed=3)   # blocks of 4, 4, 2
        shared = benchmark.run_benchmark(estimators=names, **run)
        per_block = [0.5, 0.25, 0.75] if names[0] == "mad" else [0.25, 0.5, 0.75]
        assert levels == 3 * per_block
        for name in names:
            alone = benchmark.run_benchmark(estimators=[name], **run)
            assert repr(shared.rows[name].to_dict()) == repr(alone.rows[name].to_dict())


def _record_estimates(monkeypatch, benchmark):
    """Wrap ``benchmark._estimate`` so that each call's estimates are kept
    by estimator name, in block order."""
    estimate, kept = benchmark._estimate, {}

    def recording(name, batch, params, slopes):
        est, counts = estimate(name, batch, params, slopes)
        kept.setdefault(name, []).append(est)
        return est, counts

    monkeypatch.setattr(benchmark, "_estimate", recording)
    return kept


class TestSolveParts:
    def test_parts_keep_every_bit(self, monkeypatch):
        # ols and each quantile level are solved over blocks of at most
        # _BLOCK_PATHS paths, which leaves every estimate's bits
        import reactivebeta.benchmark as benchmark
        from reactivebeta.montecarlo import McConfig, generate_batch

        batch = generate_batch(McConfig(model="mc4", T=150, n_paths=10, seed=3))
        whole = {name: benchmark.estimate_batch(name, batch) for name in ("ols", "mad", "trm")}
        solve, sizes = benchmark.quantile_beta_batch, []

        def counting(x, y, theta, lam):
            sizes.append(len(x))
            return solve(x, y, theta, lam)

        monkeypatch.setattr(benchmark, "quantile_beta_batch", counting)
        monkeypatch.setattr(benchmark, "_BLOCK_PATHS", 4)
        kept = _record_estimates(monkeypatch, benchmark)
        benchmark.run_benchmark("mc4", tuple(whole), n_paths=10, T=150, seed=3)
        for name, est in whole.items():
            assert np.array_equal(np.concatenate(kept[name]), est), name
        # each block solves its median once for mad and trm, then q25 and q75
        assert sizes == 3 * [4] + 3 * [4] + 3 * [2]

    @pytest.mark.parametrize("name", ["dcc", "adcc"])
    def test_dcc_parts_keep_every_bit(self, monkeypatch, name):
        # (A)DCC is calibrated over blocks of at most _BLOCK_PATHS paths too;
        # the betas and the summed counts are those of one whole-batch fit
        import reactivebeta.benchmark as benchmark
        from reactivebeta.montecarlo import McConfig, generate_batch

        batch = generate_batch(McConfig(model="mc6", T=150, n_paths=20, seed=3))
        beta, cal = dcc_beta_batch(batch.r_stock, batch.r_index, asymmetric=name == "adcc",
                                   lam=DEFAULT_LAM)
        fit, widths = benchmark.dcc_beta_batch, []

        def recording(r_stock, r_index, **kwargs):
            widths.append(len(r_stock))
            return fit(r_stock, r_index, **kwargs)

        monkeypatch.setattr(benchmark, "dcc_beta_batch", recording)
        monkeypatch.setattr(benchmark, "_BLOCK_PATHS", 7)
        kept = _record_estimates(monkeypatch, benchmark)
        result = benchmark.run_benchmark("mc6", (name,), n_paths=20, T=150, seed=3)
        assert widths == [7, 7, 6]
        assert np.array_equal(np.concatenate(kept[name]), beta, equal_nan=True)
        assert result.diagnostics[name] == {
            "paths": 20,
            "converged": int(np.count_nonzero(cal.converged)),
            "at_bound": int(np.count_nonzero(cal.at_bound)),
            "evaluations": cal.evaluations,
            "rho_clamped_days": int(np.sum(cal.rho_clamped_days))}


class TestBlockSize:
    def test_rows_do_not_depend_on_block_size(self, monkeypatch):
        # each path draws its own stream and its estimates have the same
        # bits in any batch, so blocks of 7 paths (7, 7, 6) give the rows
        # and the (A)DCC counts of one block of 20
        import reactivebeta.benchmark as benchmark

        runs = [dict(model=model, estimators=ESTIMATORS, n_paths=20, T=150, seed=3)
                for model in ("mc4", "mc6")]
        whole = [benchmark.run_benchmark(**run) for run in runs]
        monkeypatch.setattr(benchmark, "_BLOCK_PATHS", 7)
        for run, one in zip(runs, whole):
            blocks = benchmark.run_benchmark(**run)
            for name in ESTIMATORS:
                assert repr(blocks.rows[name].to_dict()) == repr(one.rows[name].to_dict()), \
                    (run["model"], name)
            assert blocks.diagnostics == one.diagnostics, run["model"]


class TestBlockRelease:
    @pytest.mark.parametrize("model", ["mc3", "mc6"])
    def test_no_earlier_block_alive_at_generation(self, monkeypatch, model):
        # run_benchmark keeps a copy of each block's final true beta, so
        # when a block is generated no earlier block, and none of its
        # arrays or the arrays they view, is still alive
        import weakref
        import reactivebeta.benchmark as benchmark

        generate, made, starts = benchmark.generate_batch, [], []

        def tracking(config, start, count, tracks=True):
            starts.append(start)
            alive = [ref() for ref in made if ref() is not None]
            assert not alive, f"{len(alive)} objects of earlier blocks alive at path {start}"
            batch = generate(config, start, count, tracks)
            made.append(weakref.ref(batch))
            for array in (batch.r_index, batch.r_stock, batch.true_beta, batch.true_rho,
                          batch.true_sigma_index, batch.true_sigma_stock):
                while isinstance(array, np.ndarray):
                    made.append(weakref.ref(array))
                    array = array.base
            return batch

        monkeypatch.setattr(benchmark, "generate_batch", tracking)
        monkeypatch.setattr(benchmark, "_BLOCK_PATHS", 4)
        result = benchmark.run_benchmark(model, ("ols",), n_paths=10, T=150, seed=3)
        assert starts == [0, 4, 8] and result.rows["ols"].n == 10


class TestBenchmarkResult:
    @pytest.mark.parametrize("model", MODELS)
    def test_counts_are_python_ints(self, model):
        result = run_benchmark(model, ("ols",), n_paths=8, T=120)
        for key in ("clamped", "clamped_index", "clamped_rho"):
            assert type(getattr(result, key)) is int, key
        json.dumps(result.to_dict())

    @pytest.mark.parametrize("model", MODELS)
    def test_every_estimator_finite_on_every_path(self, model):
        # a NaN estimate is a skipped row entry, what perfbench counts as failed
        for seed in range(3):
            result = run_benchmark(model, ESTIMATORS, n_paths=24, T=250, seed=seed)
            assert {name: row.n_skipped for name, row in result.rows.items()} \
                == dict.fromkeys(ESTIMATORS, 0), seed


class TestDccBeta:
    def test_stock_equals_index(self):
        # the correlation clamp at 0.999 caps the perfect-dependence case;
        # rho_bar runs into its bound, where the search stops and says so
        rng = np.random.default_rng(20)
        r = 0.01 * rng.standard_normal(300)
        for asymmetric in (False, True):
            beta, cal = dcc_beta_batch(r, r, asymmetric=asymmetric)
            assert beta[0] == pytest.approx(1.0, abs=2e-3)
            assert cal.rho_bar[0] == 0.999
            assert cal.at_bound[0] and not cal.converged[0]
            assert cal.evaluations <= 20

    def test_loglik_consistent_with_step_filter(self):
        # one path: the likelihood filter must see the same conditional
        # state sequence as dcc_step; T is not a multiple of the block
        rng = np.random.default_rng(21)
        T = 137
        r_s = 0.02 * rng.standard_normal(T)
        r_i = 0.01 * rng.standard_normal(T)
        lam = 1.0 / 90.0
        decay = 1.0 - lam
        for gcoef, dcoef in ((SYMMETRIC_GARCH_COEFFS, SYMMETRIC_DCC_COEFFS),
                             (ASYMMETRIC_GARCH_COEFFS, ASYMMETRIC_DCC_COEFFS)):
            gp_s = _gp(0.02, gcoef)
            gp_i = _gp(0.01, gcoef)
            dp = DccParams(rho_bar=0.3, **dcoef)
            state = init_dcc_state(gp_s, gp_i, dp)
            total = 0.0
            for t in range(T):
                xi_s = r_s[t] / float(state.sigma_stock)
                xi_i = r_i[t] / float(state.sigma_index)
                rho = float(state.rho)
                one_m = 1.0 - rho * rho
                ll_v = -(xi_s ** 2 + xi_i ** 2) \
                    - 2.0 * math.log(float(state.sigma_stock)) \
                    - 2.0 * math.log(float(state.sigma_index))
                ll_c = -math.log(one_m) \
                    - (xi_s ** 2 - 2 * rho * xi_s * xi_i + xi_i ** 2) / one_m \
                    + (xi_s ** 2 + xi_i ** 2)
                total += decay ** (T - 1 - t) * (ll_v + ll_c)
                state = dcc_step(state, r_s[t], r_i[t], gp_s, gp_i, dp)
            got = _dcc_filter(np.array([0.02]), np.array([0.01]), np.array([0.3]),
                              r_s[None, :], r_i[None, :], gcoef, dcoef, lam)[0]
            assert float(got[0]) == pytest.approx(0.5 * total, rel=1e-12)

    @pytest.mark.parametrize("asymmetric", [False, True])
    def test_final_beta_matches_step_filter(self, asymmetric):
        from reactivebeta.montecarlo import McConfig, generate_batch
        batch = generate_batch(McConfig(model="mc6", T=137, n_paths=4, seed=6))
        beta, cal = dcc_beta_batch(batch.r_stock, batch.r_index, asymmetric=asymmetric)
        gcoef = ASYMMETRIC_GARCH_COEFFS if asymmetric else SYMMETRIC_GARCH_COEFFS
        dcoef = ASYMMETRIC_DCC_COEFFS if asymmetric else SYMMETRIC_DCC_COEFFS
        gp_s = _gp(cal.sigma_stock, gcoef)
        gp_i = _gp(cal.sigma_index, gcoef)
        dp = DccParams(rho_bar=cal.rho_bar, **dcoef)
        state = init_dcc_state(gp_s, gp_i, dp, shape=(batch.n_paths,))
        for t in range(batch.T):
            state = dcc_step(state, batch.r_stock[:, t], batch.r_index[:, t],
                             gp_s, gp_i, dp)
        np.testing.assert_allclose(beta, state.beta, rtol=1e-12, atol=0.0)
