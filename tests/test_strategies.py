import numpy as np
import pytest

from reactivebeta.estimators import ols_beta_batch
from reactivebeta.params import ReactiveParams
from reactivebeta.strategies import (
    INDICATOR_WINDOW,
    STRATEGIES,
    STRATEGY_QUANTILE,
    Universe,
    auto_supersectors,
    backtest,
    build_factor,
    build_factors,
    compute_panels,
    indicator,
    synthetic_universe,
)
from reactivebeta.timeseries import exp_weighted_moments

PARAMS = ReactiveParams()


def reference_factor(universe, t, strategy, panels, beta_source="ols"):
    """One day's factor, one supersector at a time: the loop the batch
    construction replaced. Returns None or (weights, mu_plus, mu_minus)."""
    p = STRATEGY_QUANTILE[strategy]
    ind = indicator(strategy, universe, t, panels)
    beta = panels.ols_beta[t] if beta_source == "ols" else panels.re_beta[t]
    sigma = panels.ols_sigma[t] if beta_source == "ols" else panels.re_sigma[t]

    n = universe.prices.shape[1]
    weights = np.zeros(n)
    mu_plus, mu_minus = {}, {}
    tick_order = np.arange(n)
    sectors_used = 0
    for sector in np.unique(universe.supersector):
        members = np.flatnonzero(universe.supersector == sector)
        ok = np.isfinite(ind[members]) & np.isfinite(beta[members]) \
            & np.isfinite(sigma[members]) & (sigma[members] > 0.0) \
            & np.isfinite(universe.prices[t, members])
        eligible = members[ok]
        N = eligible.size
        k = min(max(int(np.rint(p * N)), 1), N // 2)
        if k < 1:
            continue
        order = eligible[np.lexsort((tick_order[eligible], -ind[eligible]))]
        long_leg, short_leg = order[:k], order[-k:]
        base = np.minimum(1.0, float(sigma[order].mean()) / sigma[order])
        base_map = dict(zip(order, base))
        b_plus = float(sum(beta[i] * base_map[i] for i in long_leg))
        b_minus = float(sum(beta[i] * base_map[i] for i in short_leg))
        if b_plus <= 0.0 or b_minus <= 0.0:
            return None
        cap = 1.0 / (2.0 * k)
        if b_plus >= b_minus:
            mu_p, mu_m = cap * b_minus / b_plus, cap
        else:
            mu_p, mu_m = cap, cap * b_plus / b_minus
        mu_plus[int(sector)] = mu_p
        mu_minus[int(sector)] = mu_m
        for i in long_leg:
            weights[i] = mu_p * base_map[i]
        for i in short_leg:
            weights[i] = -mu_m * base_map[i]
        sectors_used += 1
    if sectors_used == 0:
        return None
    return weights / sectors_used, mu_plus, mu_minus


def _flat_universe(n_stocks=8, T=30, price=100.0):
    prices = np.full((T, n_stocks), price)
    return Universe(
        dates=np.arange(T),
        tickers=tuple(f"S{i}" for i in range(n_stocks)),
        prices=prices,
        index_prices=np.full(T, price),
        supersector=np.zeros(n_stocks, dtype=int),
        caps=prices.copy(),
    )


def _panels_with(universe, ols_beta=None, ols_sigma=None):
    panels = compute_panels(universe, PARAMS)
    if ols_beta is not None:
        panels.ols_beta[:] = ols_beta
    if ols_sigma is not None:
        panels.ols_sigma[:] = ols_sigma
    return panels


class TestIndicator:
    def test_reversal_ranks_losers_long(self):
        uni = _flat_universe(n_stocks=2, T=30)
        uni.prices[:, 0] *= np.linspace(1.0, 1.10, 30)   # +10% winner
        uni.prices[:, 1] *= np.linspace(1.0, 0.90, 30)   # -10% loser
        panels = compute_panels(uni, PARAMS)
        vals = indicator("reversal", uni, 29, panels)
        assert vals[1] > vals[0]

    def test_momentum_needs_two_years(self):
        uni = _flat_universe(T=100)
        panels = compute_panels(uni, PARAMS)
        assert np.all(np.isnan(indicator("momentum", uni, 99, panels)))

    def test_size_uses_caps(self):
        uni = _flat_universe(n_stocks=3)
        uni.caps[:] = np.array([3.0, 1.0, 2.0])
        panels = compute_panels(uni, PARAMS)
        vals = indicator("size", uni, 10, panels)
        assert list(np.argsort(-vals)) == [0, 2, 1]

    def test_low_vol_orientation_switch(self):
        uni = _flat_universe(n_stocks=3)
        panels = _panels_with(uni, ols_beta=np.array([0.5, 1.0, 1.5]))
        assert np.argmax(indicator("low_vol", uni, 10, panels)) == 2

    def test_unknown_strategy(self):
        uni = _flat_universe()
        with pytest.raises(ValueError):
            indicator("carry", uni, 5, compute_panels(uni, PARAMS))


class TestBuildFactor:
    def test_low_vol_legs(self):
        # betas {0.5, 1.0, 1.5}, one per leg: long the highest beta
        uni = _flat_universe(n_stocks=3)
        panels = _panels_with(uni, ols_beta=np.array([0.5, 1.0, 1.5]),
                              ols_sigma=np.array([0.02, 0.02, 0.02]))
        fw = build_factor(uni, 10, "low_vol", panels, "ols")
        assert fw.weights[2] > 0.0
        assert fw.weights[0] < 0.0
        assert fw.weights[1] == 0.0

    def test_equal_betas_symmetric_multipliers(self):
        uni = _flat_universe(n_stocks=8)
        panels = _panels_with(uni, ols_beta=np.ones(8),
                              ols_sigma=np.full(8, 0.02))
        panels.ols_beta[:] = 1.0
        fw = build_factor(uni, 10, "size", panels, "ols")
        k = 2  # round(0.3 * 8)
        assert fw.mu_plus[0] == pytest.approx(1.0 / (2 * k))
        assert fw.mu_minus[0] == pytest.approx(1.0 / (2 * k))
        assert np.abs(fw.weights).sum() == pytest.approx(1.0)

    def test_hand_solved_two_to_one_instance(self, monkeypatch):
        # four stocks, one sector, unit volatility weights; the long leg
        # carries twice the short leg's aggregate beta, so its multiplier
        # halves from the cap 1/(2 p N)
        uni = _flat_universe(n_stocks=4)
        caps = np.array([4.0, 3.0, 2.0, 1.0])
        uni.caps[:] = caps
        panels = _panels_with(uni, ols_beta=np.array([2.0, 2.0, 1.0, 1.0]),
                              ols_sigma=np.full(4, 0.02))
        monkeypatch.setitem(STRATEGY_QUANTILE, "size", 0.5)
        fw = build_factor(uni, 10, "size", panels, "ols")
        cap = 1.0 / (2 * 2)
        assert fw.mu_minus[0] == pytest.approx(cap)
        assert fw.mu_plus[0] == pytest.approx(cap / 2.0)
        assert fw.weights @ np.array([2.0, 2.0, 1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_volatility_cap(self, monkeypatch):
        uni = _flat_universe(n_stocks=4)
        uni.caps[:] = np.array([4.0, 3.0, 2.0, 1.0])
        sigma = np.array([0.01, 0.04, 0.04, 0.01])  # mean 0.025
        panels = _panels_with(uni, ols_beta=np.ones(4), ols_sigma=sigma)
        monkeypatch.setitem(STRATEGY_QUANTILE, "size", 0.5)
        fw = build_factor(uni, 10, "size", panels, "ols")
        base = np.minimum(1.0, sigma.mean() / sigma)
        assert abs(fw.weights[0]) == pytest.approx(fw.mu_plus[0] * 1.0)
        assert abs(fw.weights[1]) == pytest.approx(fw.mu_plus[0] * base[1])

    def test_neutrality_and_gross_on_random_universe(self):
        uni = synthetic_universe(n_stocks=60, T=400, seed=1)
        panels = compute_panels(uni, PARAMS)
        for t in (300, 350, 398):
            for strat in ("low_vol", "reversal", "size"):
                for source in ("ols", "reactive"):
                    fw = build_factor(uni, t, strat, panels, source)
                    beta = panels.ols_beta[t] if source == "ols" else panels.re_beta[t]
                    assert abs(fw.weights @ np.nan_to_num(beta)) < 1e-10
                    assert np.abs(fw.weights).sum() <= 1.0 + 1e-12
                    longs = fw.weights > 0
                    shorts = fw.weights < 0
                    assert longs.sum() >= 6 and shorts.sum() >= 6

    def test_determinism(self):
        uni = synthetic_universe(n_stocks=40, T=400, seed=2)
        panels = compute_panels(uni, PARAMS)
        a = build_factor(uni, 390, "reversal", panels, "ols")
        b = build_factor(uni, 390, "reversal", panels, "ols")
        assert np.array_equal(a.weights, b.weights)

    def test_unsolvable_leg_skips_factor(self, monkeypatch):
        uni = _flat_universe(n_stocks=4)
        uni.caps[:] = np.array([4.0, 3.0, 2.0, 1.0])
        panels = _panels_with(uni, ols_beta=np.array([1.0, 1.0, -0.5, -0.5]),
                              ols_sigma=np.full(4, 0.02))
        monkeypatch.setitem(STRATEGY_QUANTILE, "size", 0.5)
        assert build_factor(uni, 10, "size", panels, "ols") is None


def _assert_backtest_matches_reference(uni, panels, strategy, source):
    """Every backtest day's factor equals ``reference_factor``'s; returns
    the backtest and the days the reference skips."""
    result = backtest(uni, strategy, source, PARAMS, panels=panels, keep_weights=True)
    built = dict(zip(result.dates, result.weights))
    start = max(PARAMS.burn_in, INDICATOR_WINDOW[strategy] + 1, 90)
    skipped = 0
    for t in range(start, uni.n_days - 1):
        ref = reference_factor(uni, t, strategy, panels, source)
        fw = built.get(uni.dates[t + 1])
        if ref is None:
            assert fw is None, t
            skipped += 1
            continue
        weights, mu_plus, mu_minus = ref
        assert fw.mu_plus.keys() == mu_plus.keys()
        assert fw.mu_minus.keys() == mu_minus.keys()
        assert np.max(np.abs(fw.weights - weights)) <= 1e-15, t
        for s in mu_plus:
            assert abs(fw.mu_plus[s] - mu_plus[s]) <= 1e-15
            assert abs(fw.mu_minus[s] - mu_minus[s]) <= 1e-15
    assert result.skipped_days == skipped
    return result, skipped


class TestBatchAgainstReference:
    @pytest.fixture(scope="class")
    def blanked(self):
        """A universe with runs of missing prices and caps, and one day on
        which every stock of sector 0 carries a negative beta."""
        uni = synthetic_universe(n_stocks=48, T=720, seed=11)
        rng = np.random.default_rng(11)
        prices, caps = uni.prices.copy(), uni.caps.copy()
        for t, j in zip(rng.integers(1, 700, 60), rng.integers(0, 48, 60)):
            prices[t:t + 15, j] = np.nan
            caps[t:t + 15, j] = np.nan
        uni = Universe(dates=uni.dates, tickers=uni.tickers, prices=prices,
                       index_prices=uni.index_prices, supersector=uni.supersector,
                       caps=caps)
        panels = compute_panels(uni, PARAMS)
        sector0 = uni.supersector == 0
        panels.ols_beta[650, sector0] = -1.0
        panels.re_beta[650, sector0] = -1.0
        return uni, panels

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("source", ["ols", "reactive"])
    def test_every_backtest_day_matches_reference(self, blanked, strategy, source):
        uni, panels = blanked
        result, skipped = _assert_backtest_matches_reference(uni, panels, strategy, source)
        assert uni.dates[651] not in result.dates
        assert skipped >= 1
        # missing prices contribute zero, so every traded day's return is finite
        assert np.isfinite(result.returns).all()

    @pytest.fixture(scope="class")
    def tied(self):
        """Three sectors of eight stocks. In sector 0, stock 6's prices are
        twice stock 3's, so their returns, reversal and momentum tie on
        every day; on days 300-449 stocks 9, 12 and 15 carry equal caps,
        just above the sector's smallest other cap, so their sizes tie
        across the short leg's edge."""
        uni = synthetic_universe(n_stocks=24, T=720, seed=15)
        prices, caps = uni.prices.copy(), uni.caps.copy()
        prices[:, 6] = 2.0 * prices[:, 3]
        caps[300:450, [9, 12, 15]] = 1.001 * caps[300:450, [0, 3, 6, 18, 21]].min(
            axis=1, keepdims=True)
        uni = Universe(dates=uni.dates, tickers=uni.tickers, prices=prices,
                       index_prices=uni.index_prices, supersector=np.arange(24) % 3,
                       caps=caps)
        return uni, compute_panels(uni, PARAMS)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("source", ["ols", "reactive"])
    def test_tied_stocks_rank_by_ticker(self, tied, strategy, source):
        uni, panels = tied
        _assert_backtest_matches_reference(uni, panels, strategy, source)

    @pytest.fixture(scope="class")
    def unequal(self):
        """Sectors of 30, 10, 4, 2, 1 and 1 stocks, labelled 40, 7, 19, 3,
        25 and 11, their columns shuffled; the one-stock sectors are never
        used."""
        uni = synthetic_universe(n_stocks=48, T=720, seed=13)
        labels = np.repeat([40, 7, 19, 3, 25, 11], [30, 10, 4, 2, 1, 1])
        labels = np.random.default_rng(13).permutation(labels)
        uni = Universe(dates=uni.dates, tickers=uni.tickers, prices=uni.prices,
                       index_prices=uni.index_prices, supersector=labels, caps=uni.caps)
        return uni, compute_panels(uni, PARAMS)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("source", ["ols", "reactive"])
    def test_unequal_sectors(self, unequal, strategy, source):
        uni, panels = unequal
        result, _ = _assert_backtest_matches_reference(uni, panels, strategy, source)
        for fw in result.weights:
            assert set(fw.mu_plus) == {40, 7, 19, 3}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("source", ["ols", "reactive"])
    def test_same_bits_in_any_split_into_blocks(self, blanked, strategy, source):
        uni, panels = blanked
        days = np.arange(600, 664)      # day 650 is skipped
        whole = build_factors(uni, days, strategy, panels, source)
        for width in (7, 1):
            parts = [build_factors(uni, days[i:i + width], strategy, panels, source)
                     for i in range(0, days.size, width)]
            for got, want in zip(map(np.concatenate, zip(*parts)), whole):
                assert got.dtype == want.dtype
                assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


class TestNoLookAhead:
    def test_price_perturbation_after_t(self):
        uni = synthetic_universe(n_stocks=30, T=420, seed=3)
        panels = compute_panels(uni, PARAMS)
        t = 400
        fw_before = build_factor(uni, t - 1, "reversal", panels, "ols")

        prices = uni.prices.copy()
        prices[t:] *= 1.5
        bumped = Universe(dates=uni.dates, tickers=uni.tickers, prices=prices,
                          index_prices=uni.index_prices, supersector=uni.supersector,
                          caps=uni.caps)
        panels_bumped = compute_panels(bumped, PARAMS)
        fw_after = build_factor(bumped, t - 1, "reversal", panels_bumped, "ols")
        # weights dated t use data through t-1 only
        assert fw_before.date == fw_after.date == uni.dates[t]
        assert np.array_equal(fw_before.weights, fw_after.weights)


class TestBacktest:
    def test_all_stocks_equal_index_returns_zero(self):
        rng = np.random.default_rng(4)
        T, n = 420, 12
        path = 100.0 * np.cumprod(1 + 0.01 * rng.standard_normal(T))
        uni = Universe(dates=np.arange(T), tickers=tuple(f"S{i}" for i in range(n)),
                       prices=np.tile(path[:, None], (1, n)),
                       index_prices=path,
                       supersector=np.arange(n) % 6,
                       caps=np.tile(path[:, None], (1, n)))
        result = backtest(uni, "reversal", "ols", PARAMS, panels=compute_panels(uni, PARAMS))
        assert np.max(np.abs(result.returns)) < 1e-12

    def test_reversal_direction_single_seed(self):
        uni = synthetic_universe(n_stocks=60, T=800, seed=5)
        panels = compute_panels(uni, PARAMS)
        ols = backtest(uni, "reversal", "ols", PARAMS, panels=panels)
        re = backtest(uni, "reversal", "reactive", PARAMS, panels=panels)
        assert ols.report.bias > 0.0
        assert abs(re.report.bias) < abs(ols.report.bias)

    def test_too_short_universe_rejected(self):
        uni = synthetic_universe(n_stocks=20, T=300, seed=6)
        panels = compute_panels(uni, PARAMS)
        with pytest.raises(ValueError):
            backtest(uni, "reversal", "ols", PARAMS, panels=panels)

    def test_momentum_runs_with_long_history(self):
        uni = synthetic_universe(n_stocks=40, T=900, seed=7)
        result = backtest(uni, "momentum", "ols", PARAMS, panels=compute_panels(uni, PARAMS))
        assert len(result.returns) > 100
        assert np.isfinite(result.report.bias)

    def test_keep_weights_aligned(self):
        uni = synthetic_universe(n_stocks=30, T=500, seed=8)
        result = backtest(uni, "size", "reactive", PARAMS, panels=compute_panels(uni, PARAMS),
                          keep_weights=True)
        assert len(result.weights) == len(result.returns)
        assert result.weights[0].date == result.dates[0]


class TestPanels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ols_track_matches_batch_ols(self, seed):
        # on a complete panel the per-day EW-OLS track is the final-day
        # reduction of ols_beta_batch over returns 1..t
        uni = synthetic_universe(n_stocks=40, T=900, seed=seed)
        panels = compute_panels(uni, PARAMS)
        for t in (5, 60, 250, 600, 899):
            x = np.broadcast_to(panels.index_returns[1:t + 1], (40, t))
            expect = ols_beta_batch(x, panels.returns[1:t + 1].T, PARAMS.lambda_beta)
            np.testing.assert_allclose(panels.ols_beta[t], expect, rtol=1e-12, atol=0.0)

    def test_ols_track_matches_centered_moments_every_day(self):
        # from the second return on, each day's running slope is the slope
        # of the exponentially weighted moments of returns 1..t
        uni = synthetic_universe(n_stocks=12, T=400, seed=4)
        panels = compute_panels(uni, PARAMS)
        assert np.isnan(panels.ols_beta[:2]).all()
        for t in range(2, uni.n_days):
            x = np.broadcast_to(panels.index_returns[1:t + 1], (12, t))
            expect = exp_weighted_moments(x, panels.returns[1:t + 1].T, PARAMS.lambda_beta)
            np.testing.assert_allclose(panels.ols_beta[t], expect.slope, rtol=1e-12, atol=0.0)

    def test_late_listed_stock_has_no_slope_from_one_return(self):
        # stock j is first priced on day 300 + j: one return the next day,
        # whose slope is undefined, and a slope from the day after
        uni = synthetic_universe(n_stocks=40, T=600, seed=0)
        prices = uni.prices.copy()
        for j in range(40):
            prices[:300 + j, j] = np.nan
        panels = compute_panels(Universe(dates=uni.dates, tickers=uni.tickers, prices=prices,
                                         index_prices=uni.index_prices,
                                         supersector=uni.supersector), PARAMS)
        j = np.arange(40)
        assert np.isnan(panels.ols_beta[301 + j, j]).all()
        assert np.isfinite(panels.ols_beta[302 + j, j]).all()


class TestSyntheticUniverse:
    def test_shapes_and_labels(self):
        uni = synthetic_universe(n_stocks=50, T=300, seed=9)
        assert uni.prices.shape == (300, 50)
        assert uni.caps.shape == (300, 50)
        sizes = np.bincount(uni.supersector)
        assert sizes.size == 6
        assert sizes.max() - sizes.min() <= 1

    def test_reproducible(self):
        a = synthetic_universe(n_stocks=20, T=100, seed=10)
        b = synthetic_universe(n_stocks=20, T=100, seed=10)
        assert np.array_equal(a.prices, b.prices)

    def test_auto_supersectors_by_cap_rank(self):
        caps = np.array([[10.0, 1.0, 5.0, 8.0, 2.0, 7.0, 3.0, 4.0, 6.0, 9.0, 12.0, 11.0]])
        groups = auto_supersectors(caps)
        assert groups[10] == groups[11] == 0    # largest caps in first group
        assert groups[1] == groups[4] == 5      # smallest caps in last group
        assert np.array_equal(np.bincount(groups), np.full(6, 2))

    def test_universe_validation(self):
        with pytest.raises(ValueError):
            Universe(dates=np.arange(5), tickers=("A",),
                     prices=np.ones((5, 2)), index_prices=np.ones(5),
                     supersector=np.zeros(2, dtype=int))
