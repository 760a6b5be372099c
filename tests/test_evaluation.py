import math

import numpy as np
import pytest

from reactivebeta.evaluation import (
    NumericalFailure,
    SelectionBiasInputs,
    calibrate_ell_diff,
    elasticity_diagnostic,
    inverse_erf,
    selection_bias,
    strategy_bias_corstd,
    table2_stats,
)


def _samples(errors, true=None, winner=None, low=None):
    """``table2_stats``'s estimates, truths, winner flags and low flags."""
    errors = np.asarray(errors, dtype=float)
    true = np.ones_like(errors) if true is None else np.asarray(true, dtype=float)
    n = errors.size
    return (true + errors, true,
            np.zeros(n, dtype=bool) if winner is None else np.asarray(winner),
            np.zeros(n, dtype=bool) if low is None else np.asarray(low))


class TestTable2Stats:
    def test_zero_errors(self):
        row = table2_stats(*_samples(np.zeros(100)), reference_variance=None)
        assert row.bias == 0.0
        assert row.absd == 0.0
        assert not row.bias_star and not row.winner_star and not row.loser_star

    def test_bias_decomposition(self):
        rng = np.random.default_rng(0)
        errors = rng.standard_normal(500)
        winner = rng.random(500) < 0.4
        row = table2_stats(*_samples(errors, winner=winner), None)
        f = winner.mean()
        assert row.bias == pytest.approx(f * row.winner_bias + (1 - f) * row.loser_bias)

    def test_variance_ratio_of_reference_is_one(self):
        rng = np.random.default_rng(1)
        errors = rng.standard_normal(400)
        samples = _samples(errors)
        base = table2_stats(*samples, None)
        row = table2_stats(*samples, reference_variance=base.error_variance)
        assert row.variance_ratio == pytest.approx(1.0)

    def test_constant_unit_truth_leaves_low_high_undefined(self):
        row = table2_stats(*_samples(np.zeros(50)), None)
        assert math.isnan(row.low_bias) and math.isnan(row.high_bias)
        assert not row.low_star and not row.high_star

    def test_undefined_estimates_skipped_and_counted(self):
        errors = np.array([0.1, np.nan, -0.1, np.nan])
        row = table2_stats(*_samples(errors), None)
        assert row.n == 2
        assert row.n_skipped == 2
        assert row.bias == pytest.approx(0.0)

    def test_star_threshold(self):
        rng = np.random.default_rng(2)
        noise = rng.standard_normal(10_000) * 0.1
        row = table2_stats(*_samples(noise + 0.05), None)
        assert row.bias_star  # 0.05 is ~50 standard errors here
        row2 = table2_stats(*_samples(noise - noise.mean()), None)
        assert not row2.bias_star

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            table2_stats(*_samples([]), None)

    def test_no_valid_path_is_numerical_failure(self):
        with pytest.raises(NumericalFailure, match="no valid paths"):
            table2_stats(*_samples(np.full(5, np.nan)), None)
        assert not issubclass(NumericalFailure, ValueError)


class TestStrategyBiasCorstd:
    def test_strategy_equals_index(self):
        rng = np.random.default_rng(3)
        r = 0.01 * rng.standard_normal(600)
        report = strategy_bias_corstd(r, r)
        assert report.bias == pytest.approx(1.0)
        assert report.corstd == pytest.approx(0.0, abs=1e-9)

    def test_independent_noise_floor(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(60_000)
        b = rng.standard_normal(60_000)
        report = strategy_bias_corstd(a, b)
        assert abs(report.bias) < 0.02
        assert report.corstd == pytest.approx(1.0 / np.sqrt(90), abs=0.01)

    def test_alternating_sign_hedge(self):
        rng = np.random.default_rng(5)
        index = 0.01 * rng.standard_normal(5000)
        strategy = index * np.where(np.arange(5000) % 2 == 0, 1.0, -1.0)
        report = strategy_bias_corstd(strategy, index)
        assert abs(report.bias) < 0.05
        assert report.corstd > 0.05

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        s = 0.01 * rng.standard_normal(400)
        i = 0.01 * rng.standard_normal(400)
        a = strategy_bias_corstd(s, i)
        b = strategy_bias_corstd(25.0 * s, i)
        assert a.bias == pytest.approx(b.bias, rel=1e-12)
        assert a.corstd == pytest.approx(b.corstd, rel=1e-12)

    def test_constant_strategy_has_no_bias(self):
        i = 0.01 * np.random.default_rng(7).standard_normal(200)
        report = strategy_bias_corstd(np.full(200, 0.001), i)
        assert np.isnan(report.bias) and np.isnan(report.corstd)
        assert report.n_undefined_windows == report.n_windows == 111

    def test_needs_enough_data(self):
        with pytest.raises(ValueError):
            strategy_bias_corstd(np.zeros(90), np.zeros(90))


class TestInverseErf:
    def test_paper_anchor(self):
        assert inverse_erf(2 * 0.3 - 1) == pytest.approx(-0.3708, abs=1e-4)

    def test_round_trip_accuracy(self):
        for x in np.linspace(-1.8, 1.8, 361):
            assert abs(inverse_erf(math.erf(x)) - x) < 1e-9

    def test_odd(self):
        for y in (0.1, 0.5, 0.9):
            assert inverse_erf(-y) == pytest.approx(-inverse_erf(y), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            inverse_erf(1.0)


class TestSelectionBias:
    def test_published_inputs(self):
        res = selection_bias(SelectionBiasInputs())
        assert res.sigma_eta == pytest.approx(1.53 * math.sqrt(1 / 90), rel=1e-12)
        assert abs(res.beta_low_factor) == pytest.approx(0.0334, abs=5e-4)
        assert res.beta_low_factor < 0.0
        assert res.rho_low_factor == pytest.approx(0.191, abs=0.002)

    def test_perfect_measurement_limit(self):
        res = selection_bias(SelectionBiasInputs(sigma_eta=1e-9))
        assert res.B == pytest.approx(0.0, abs=1e-9)

    def test_exact_variant_against_simulation(self):
        rng = np.random.default_rng(7)
        inp = SelectionBiasInputs()
        res = selection_bias(inp, exact=True)
        n = 2_000_000
        beta_t = 1.0 + inp.sigma_beta * rng.standard_normal(n)
        eta = res.sigma_eta * rng.standard_normal(n)
        measured = beta_t + eta
        sel = measured < np.quantile(measured, inp.p)
        assert res.B == pytest.approx(-(eta[sel]).mean(), rel=0.01)

    def test_published_form_overshoots_simulation_slightly(self):
        # the published display places the selection threshold using the
        # true-beta spread alone; at the default inputs it sits ~1.7%
        # above the exact bottom-quantile expectation
        inp = SelectionBiasInputs()
        ratio = selection_bias(inp).B / selection_bias(inp, exact=True).B
        assert ratio == pytest.approx(1.017, abs=0.003)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            SelectionBiasInputs(p=0.6)
        with pytest.raises(ValueError):
            SelectionBiasInputs(sigma_beta=-1.0)


class TestCalibrateEllDiff:
    @staticmethod
    def _leverage_path(rng, T=2000):
        lf = np.zeros(T)
        for t in range(1, T):
            lf[t] = 0.85 * lf[t - 1] + 0.006 * rng.standard_normal()
        return lf

    def test_noise_free_recovery(self):
        # rescaling by the sample mean of the correlation leaves a
        # 1 + slope * mean(leverage) factor, so recovery is exact only up
        # to that ~0.1% finite-sample term
        rng = np.random.default_rng(8)
        lf = self._leverage_path(rng)
        rho = 0.5 * (1.0 + 2 * 0.91 * lf)
        fit = calibrate_ell_diff(rho, lf)
        assert fit.slope == pytest.approx(2 * 0.91 / (1 + 2 * 0.91 * lf.mean()), rel=1e-9)
        assert fit.slope == pytest.approx(2 * 0.91, rel=5e-3)
        assert fit.r2 == pytest.approx(1.0, abs=1e-9)
        assert fit.ell_diff == pytest.approx(0.91, rel=5e-3)

    def test_noisy_round_trip_single_replication(self):
        rng = np.random.default_rng(9)
        lf = self._leverage_path(rng)
        signal = 0.5 * (1.0 + 2 * 0.91 * lf)
        sig_var = np.var(np.diff(signal / signal.mean()))
        eps_sd = np.sqrt(sig_var * (1 / 0.13 - 1) / 2.0) * signal.mean()
        fit = calibrate_ell_diff(signal + eps_sd * rng.standard_normal(lf.size), lf)
        assert fit.slope == pytest.approx(1.82, abs=0.4)
        assert 0.05 < fit.r2 < 0.25
        assert fit.tstat > 8.0

    def test_degenerate_leverage_rejected(self):
        with pytest.raises(ValueError):
            calibrate_ell_diff(np.linspace(0.4, 0.6, 100), np.zeros(100))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            calibrate_ell_diff(np.ones(10), np.ones(10))


class TestElasticityDiagnostic:
    def test_constant_correlation_bucket_recovery(self):
        # local slope built to be exactly beta/2
        rng = np.random.default_rng(10)
        n_stocks, T = 160, 2500
        base = np.linspace(0.3, 2.3, n_stocks)
        x = 0.06 * rng.standard_normal((T, n_stocks))
        relvol = np.exp(x / 2.0)
        beta = base[None, :] + (base[None, :] / 2.0) * x \
            + 0.005 * rng.standard_normal((T, n_stocks))
        diag = elasticity_diagnostic(beta, relvol, bucket_size=10_000)
        err = diag.bucket_slope - diag.bucket_beta / 2.0
        # edge buckets are quantile-truncated; the interior must recover
        assert np.abs(err[1:-1]).max() < 0.05
        assert diag.n_buckets_skipped == 0

    def test_constant_relvol_all_buckets_skipped(self):
        rng = np.random.default_rng(11)
        beta = 1.0 + 0.1 * rng.standard_normal((500, 30))
        relvol = np.full((500, 30), 2.5)
        diag = elasticity_diagnostic(beta, relvol, bucket_size=1000)
        assert diag.bucket_slope.size == 0
        assert diag.n_buckets_skipped > 0

    def test_relative_volatility_regression_slope(self):
        # stock vols co-move with the index vol with coefficient 0.4
        rng = np.random.default_rng(12)
        T, n = 4000, 25
        log_iv = np.zeros(T)
        for t in range(1, T):
            log_iv[t] = 0.98 * log_iv[t - 1] + 0.05 * rng.standard_normal()
        index_vol = 0.01 * np.exp(log_iv)
        noise = 0.02 * rng.standard_normal((T, n))
        sigma = 0.02 * np.exp(0.4 * log_iv[:, None] + noise)
        relvol = sigma / index_vol[:, None]
        beta = 1.0 + 0.1 * rng.standard_normal((T, n))
        diag = elasticity_diagnostic(beta, relvol, bucket_size=5000,
                                     index_vol=index_vol)
        assert diag.relvol_slope == pytest.approx(0.4, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            elasticity_diagnostic(np.ones((10, 2)), np.ones((10, 3)))
        with pytest.raises(ValueError):
            elasticity_diagnostic(np.ones((10, 2)), np.ones((10, 2)), bucket_size=1)

    @pytest.mark.slow
    def test_full_model_panel_signature(self):
        # Panels measured on full-model paths carry the built-in
        # elasticity, but the cross section of true normalized betas is
        # narrow (~0.09) against the correlated measurement noise of the
        # two panels, so the local slopes are strongly attenuated. The
        # recoverable end-to-end signature is a positive, increasing
        # slope profile away from the selection-dominated edge buckets;
        # exact recovery is established on the constructed panel above.
        from reactivebeta.params import ReactiveParams
        from reactivebeta.beta import ReactiveBetaEngine
        from reactivebeta.montecarlo import McConfig, generate_batch

        params = ReactiveParams()
        batch = generate_batch(McConfig(model="mc5", T=1000, n_paths=300, seed=4))
        n, T = batch.r_stock.shape
        pi = 100 * np.cumprod(1 + batch.r_index, axis=1)
        ps = 100 * np.cumprod(1 + batch.r_stock, axis=1)
        engine = ReactiveBetaEngine(np.full(n, 100.0), np.full(n, 100.0), params)
        beta_panel = np.full((T, n), np.nan)
        relvol_panel = np.full((T, n), np.nan)
        for t in range(T):
            engine.step(pi[:, t], ps[:, t])
            # the uncorrected regression ratio and the ratio of the
            # renormalized vols, both read off the regression moments
            state = engine.beta_state
            with np.errstate(invalid="ignore", divide="ignore"):
                beta_panel[t] = np.where(state.var_index > 0.0,
                                         state.cross / state.var_index, np.nan)
                relvol_panel[t] = np.sqrt(state.var_stock / state.var_index)
        diag = elasticity_diagnostic(beta_panel[params.burn_in:],
                                     relvol_panel[params.burn_in:],
                                     bucket_size=10_000)
        interior = slice(1, -1)
        slopes = diag.bucket_slope[interior]
        betas = diag.bucket_beta[interior]
        # increasing trend, positive in the upper half of the beta range
        trend = np.corrcoef(betas, slopes)[0, 1]
        assert trend > 0.6
        assert slopes[betas > np.median(betas)].mean() > 0.0
        assert diag.global_slope > 0.0
