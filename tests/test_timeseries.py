import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reactivebeta.timeseries import (
    _equal_weighted_moments,
    ema_rows,
    exp_weighted_moments,
    exp_weights,
    rolling_correlation,
)


def _ema(lam, xs):
    """The EMA of ``xs`` seeded with its first value, through ema_rows."""
    rows = np.concatenate(([xs[0]], lam * np.asarray(xs[1:], dtype=float)))
    return ema_rows(rows, 1.0 - lam)[-1]


class TestEma:
    def test_half_weight_step(self):
        assert _ema(0.5, [1.0, 2.0]) == pytest.approx(1.5)

    def test_unit_weight_tracks_input(self):
        assert _ema(1.0, [7.0, 3.0]) == 3.0

    def test_constant_input_fixed_point(self):
        assert _ema(0.0241, [5.0] * 1000) == pytest.approx(5.0, abs=1e-12)

    def test_unit_decay_zero_increment_holds_state(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((9, 3, 4))
        decay = rng.uniform(0.5, 1.0, (8, 1, 4))
        hold = rng.random((8, 1, 4)) < 0.4
        decay[hold] = 1.0
        x[1:][np.broadcast_to(hold, x[1:].shape)] = 0.0
        expect = x.copy()
        for t in range(1, 9):
            expect[t] = decay[t - 1] * expect[t - 1] + expect[t]
        ema_rows(x, decay)
        assert np.array_equal(x, expect)
        held = np.broadcast_to(hold, x[1:].shape)
        assert np.array_equal(x[1:][held], x[:-1][held])

    @given(st.floats(0.01, 1.0), st.integers(1, 50),
           st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    @settings(max_examples=200)
    def test_burn_in_invariance(self, lam, n_burn, xs):
        seeded = _ema(lam, [xs[0]] * n_burn + xs)
        assert seeded == pytest.approx(_ema(lam, xs), rel=1e-12, abs=1e-12)

    @given(st.floats(0.01, 1.0),
           st.lists(st.floats(-50, 50), min_size=1, max_size=60))
    @settings(max_examples=200)
    def test_stays_within_range(self, lam, xs):
        assert min(xs) - 1e-9 <= _ema(lam, xs) <= max(xs) + 1e-9


class TestRollingCorrelation:
    def test_perfect_dependence(self):
        x = np.random.default_rng(0).standard_normal(200)
        assert rolling_correlation(x, 2.0 * x, 30) == pytest.approx(1.0, abs=1e-9)
        assert rolling_correlation(x, -x, 30) == pytest.approx(-1.0, abs=1e-9)

    def test_independent_gaussians_noise_floor(self):
        # sample std of 90-day correlations of independent series is ~1/sqrt(90)
        rng = np.random.default_rng(42)
        n = 100_000
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        corr = rolling_correlation(x, y, 90)
        # thin to roughly independent windows before taking the std
        sampled = corr[::90]
        assert np.std(sampled) == pytest.approx(1.0 / np.sqrt(90), abs=0.01)

    def test_zero_variance_window_marked(self):
        x = np.array([1.0, 1.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        out = rolling_correlation(x, y, 3)
        assert np.isnan(out[0])
        assert np.isfinite(out[-1])

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(500)
        y = 0.3 * x + rng.standard_normal(500)
        a = rolling_correlation(x, y, 20)
        b = rolling_correlation(y, x, 20)
        assert a == pytest.approx(b, rel=1e-12)
        assert np.all(np.abs(a[np.isfinite(a)]) <= 1.0)

    @pytest.mark.parametrize("shift", [1.0, 10.0, 100.0, 1000.0])
    def test_shift_invariance(self, shift):
        # each window is centered on its own means, so an offset far above
        # the returns' scale costs no digits
        rng = np.random.default_rng(11)
        x = 0.01 * rng.standard_normal(600)
        y = 0.5 * x + 0.01 * rng.standard_normal(600)
        np.testing.assert_allclose(rolling_correlation(x + shift, y, 90),
                                   rolling_correlation(x, y, 90), rtol=0.0, atol=1e-9)

    def test_length_and_validation(self):
        x = np.arange(10.0)
        assert rolling_correlation(x, x, 4).shape == (7,)
        with pytest.raises(ValueError):
            rolling_correlation(x, x[:5], 3)
        with pytest.raises(ValueError):
            rolling_correlation(x, x, 1)


class TestCorrelation:
    def test_matches_corrcoef_and_is_symmetric(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((30, 250))
        y = rng.uniform(-1.0, 1.0, (30, 1)) * x + rng.standard_normal((30, 250))
        corr = _equal_weighted_moments(x, y).correlation
        expect = [np.corrcoef(a, b)[0, 1] for a, b in zip(x, y)]
        np.testing.assert_allclose(corr, expect, rtol=0.0, atol=1e-12)
        assert corr.tobytes() == _equal_weighted_moments(y, x).correlation.tobytes()
        weighted = exp_weighted_moments(x, y, 0.05).correlation
        assert weighted.tobytes() == exp_weighted_moments(y, x, 0.05).correlation.tobytes()

    def test_constant_side_gives_nan(self):
        ramp, flat = np.arange(50.0), np.full(50, 3.0)
        assert np.isnan(exp_weighted_moments(flat, ramp, 0.1).correlation)
        assert np.isnan(exp_weighted_moments(ramp, flat, 0.1).correlation)
        assert exp_weighted_moments(ramp, 2.0 * ramp, 0.1).correlation == 1.0


class TestExpWeightedMoments:
    def test_constant_series(self):
        m = exp_weighted_moments(np.full(50, 3.0), np.arange(50.0), 0.1)
        assert m.var_x == pytest.approx(0.0, abs=1e-18)
        assert m.mean_x == pytest.approx(3.0)

    def test_two_point_hand_computation(self):
        # weights proportional to (0.5, 1), normalized to (1/3, 2/3)
        m = exp_weighted_moments([1.0, 4.0], [2.0, 8.0], 0.5)
        mean_x = (0.5 * 1.0 + 1.0 * 4.0) / 1.5
        assert m.mean_x == pytest.approx(mean_x)
        var_x = (0.5 * (1 - mean_x) ** 2 + 1.0 * (4 - mean_x) ** 2) / 1.5
        assert m.var_x == pytest.approx(var_x)
        assert m.cov == pytest.approx(2.0 * var_x)

    def test_iid_unit_variance_recovery(self):
        # decay small enough that the weights are nearly uniform over T
        rng = np.random.default_rng(7)
        x = rng.standard_normal(10_000)
        m = exp_weighted_moments(x, x, 2e-4)
        assert m.var_x == pytest.approx(1.0, abs=0.05)

    def test_cov_xx_equals_var(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(300)
        m = exp_weighted_moments(x, x, 0.05)
        assert m.cov == m.var_x

    @pytest.mark.parametrize("T", [2, 33, 1000])
    def test_batch_rows_match_single_series_bitwise(self, T):
        rng = np.random.default_rng(T)
        x = rng.standard_normal((9, T))
        y = 0.6 * x + rng.standard_normal((9, T))
        batch = exp_weighted_moments(x, y, 0.02)
        halves = [exp_weighted_moments(x[k], y[k], 0.02) for k in (slice(0, 4), slice(4, 9))]
        for field in ("mean_x", "mean_y", "var_x", "var_y", "cov"):
            values = getattr(batch, field)
            assert values.shape == (9,)
            assert [getattr(exp_weighted_moments(x[k], y[k], 0.02), field)
                    for k in range(9)] == values.tolist()
            assert np.concatenate([getattr(h, field) for h in halves]).tobytes() \
                == values.tobytes()

    def test_batch_cov_xx_equals_var(self):
        x = np.random.default_rng(5).standard_normal((40, 260))
        m = exp_weighted_moments(x, x, 0.05)
        assert m.cov.tobytes() == m.var_x.tobytes()

    def test_single_series_gives_floats(self):
        m = exp_weighted_moments([1.0, 4.0, 2.0], [2.0, 8.0, 5.0], 0.5)
        assert all(type(v) is float for v in (m.mean_x, m.var_y, m.cov, m.slope))

    def test_weights_normalized_and_increasing(self):
        w = exp_weights(100, 1.0 / 90.0)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) > 0)

    def test_long_series_no_underflow(self):
        w = exp_weights(1_000_000, 0.1)
        assert np.isfinite(w).all() and w[-1] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            exp_weighted_moments([1.0], [1.0, 2.0], 0.1)
        with pytest.raises(ValueError):
            exp_weights(0, 0.1)
        with pytest.raises(ValueError):
            exp_weights(10, 1.5)
