import numpy as np
import pytest

from reactivebeta import montecarlo as mc
from reactivebeta.beta import beta_elasticity
from reactivebeta.montecarlo import (
    MODELS,
    McConfig,
    dump_batch,
    generate_batch,
    level_price_step,
    ou_step,
    student_t_scaled,
)
from reactivebeta.benchmark import ESTIMATORS, estimate_batch
from reactivebeta.evaluation import NumericalFailure
from reactivebeta.params import DEFAULT_PARAMS, TRADING_DAYS, ReactiveParams
from reactivebeta.strategies import synthetic_universe
from reactivebeta.timeseries import block_rows
from reactivebeta.volatility import fast_gap, init_levels, update_levels

BATCH_ARRAYS = ("r_index", "r_stock", "true_beta", "true_rho", "true_sigma_index",
                "true_sigma_stock")


def reference_level_driven(config):
    """mc3-mc5 day by day from the per-day forms: the six arrays of the
    batch and the stock and index price-floor hits."""
    n, T = config.n_paths, config.T
    params = DEFAULT_PARAMS
    stochastic_vol = config.model == "mc5"
    rngs = mc._path_generators(config, 0, n)
    z_index = mc._draw_matrix(rngs, T, "normal")
    if config.model == "mc3":
        z_resid = mc._draw_matrix(rngs, T, "normal")
    else:
        z_resid = mc._draw_matrix(rngs, T, "t", config.t_dof) \
            * np.sqrt((config.t_dof - 2.0) / config.t_dof)
    log_si, log_rel = np.zeros(n), np.zeros(n)
    if stochastic_vol:
        z_ou_index = mc._draw_matrix(rngs, T, "normal")
        z_ou_rel = mc._draw_matrix(rngs, T, "normal")
        stat_std = mc._OU_VOLVOL * np.sqrt(mc._OU_RELAXATION / 2.0)
        log_si, log_rel = stat_std * z_ou_index[:, 0], stat_std * z_ou_rel[:, 0]

    index_price, stock_price = np.full(n, 100.0), np.full(n, 100.0)
    levels = init_levels(index_price, stock_price)
    s_index = config.daily_index_vol * np.exp(log_si)
    s_resid = config.daily_residual_vol * np.exp(log_si + log_rel)
    beta_norm = np.full(n, mc._BETA)
    ratio_prev = np.sqrt(beta_norm ** 2 * s_index ** 2 + s_resid ** 2) / s_index
    kappa = ratio_prev ** 2
    lam_b = params.lambda_beta
    out = {name: np.empty((n, T)) for name in BATCH_ARRAYS}
    clamped = clamped_index = 0
    for t in range(T):
        if stochastic_vol:
            corr_lev = 1.0 + params.ell_diff * fast_gap(levels)
            f = beta_elasticity(beta_norm, params)
            delta = ratio_prev / np.sqrt(kappa) - 1.0
            with np.errstate(invalid="ignore", divide="ignore"):
                corr_ela = 1.0 + (2.0 * f / beta_norm) * delta
            corr_ela = np.where(np.isfinite(corr_ela) & (f > 0.0), corr_ela, 1.0)
            beta_norm = np.maximum(mc._BETA * corr_lev * corr_ela, 0.05)
        tr_index = s_index * z_index[:, t]
        tr_stock = beta_norm * tr_index + s_resid * z_resid[:, t]
        clamped_index += np.count_nonzero(index_price + tr_index * levels.index_level
                                          < mc._PRICE_FLOOR * index_price)
        new_index, new_stock, levels, n_floored = level_price_step(
            index_price, stock_price, tr_index, tr_stock, levels, params)
        clamped += n_floored
        out["r_index"][:, t] = new_index / index_price - 1.0
        out["r_stock"][:, t] = new_stock / stock_price - 1.0
        index_price, stock_price = new_index, new_stock
        if stochastic_vol and t + 1 < T:
            log_si = ou_step(log_si, mc._OU_RELAXATION, mc._OU_VOLVOL, z_ou_index[:, t + 1])
            log_rel = ou_step(log_rel, mc._OU_RELAXATION, mc._OU_VOLVOL, z_ou_rel[:, t + 1])
            s_index = config.daily_index_vol * np.exp(log_si)
            s_resid = config.daily_residual_vol * np.exp(log_si + log_rel)
        if stochastic_vol:
            true_beta = beta_norm * ((levels.stock_level * new_index)
                                     / (new_stock * levels.index_level))
        else:
            true_beta = beta_norm * levels.slow_stock * new_index \
                / (levels.slow_index * new_stock)
        sig_i_tot = np.sqrt(beta_norm ** 2 * s_index ** 2 + s_resid ** 2)
        out["true_beta"][:, t] = true_beta
        out["true_sigma_index"][:, t] = s_index * levels.index_level / new_index
        out["true_sigma_stock"][:, t] = sig_i_tot * levels.stock_level / new_stock
        out["true_rho"][:, t] = true_beta * out["true_sigma_index"][:, t] \
            / out["true_sigma_stock"][:, t]
        ratio_prev = sig_i_tot / s_index
        kappa = (1.0 - lam_b) * kappa + lam_b * ratio_prev ** 2
    return out, clamped, clamped_index


def reference_universe(n_stocks, T, seed):
    """``synthetic_universe``'s prices day by day through ``level_price_step``."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 9001])))
    s_index = 0.15 / np.sqrt(TRADING_DAYS)
    s_resid = np.sqrt(0.40 ** 2 - 0.15 ** 2) / np.sqrt(TRADING_DAYS)
    index_prices, prices = np.empty(T), np.empty((T, n_stocks))
    index_prices[0], prices[0] = 100.0, 100.0
    levels = init_levels(100.0, np.full(n_stocks, 100.0))
    for t in range(1, T):
        tr_index = s_index * rng.standard_normal()
        tr_stock = tr_index + s_resid * rng.standard_normal(n_stocks)
        index_prices[t], prices[t], levels, _ = level_price_step(
            index_prices[t - 1], prices[t - 1], tr_index, tr_stock, levels, DEFAULT_PARAMS)
    shares = np.exp(rng.normal(0.0, 1.0, n_stocks))
    return index_prices, prices, prices * shares[None, :]


#: (paths, days) whose blocks of days differ, neither dividing the days
BLOCKINGS = ((7, 600), (300, 70))


class TestConfig:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            McConfig(model="mc9")

    def test_rejects_bad_dof(self):
        with pytest.raises(ValueError):
            McConfig(model="mc2", t_dof=2.0)

    def test_rejects_inconsistent_vols(self):
        with pytest.raises(ValueError):
            McConfig(model="mc1", stock_vol=0.10, index_vol=0.15)

    def test_daily_scalings(self):
        cfg = McConfig(model="mc1")
        assert cfg.daily_index_vol == pytest.approx(0.15 / np.sqrt(255))
        assert cfg.daily_residual_vol == pytest.approx(
            np.sqrt(0.40 ** 2 - 0.15 ** 2) / np.sqrt(255))


class TestStudentT:
    def test_variance_normalization(self):
        rng = np.random.default_rng(0)
        draws = student_t_scaled(3.0, 1.0, rng, size=1_000_000)
        assert draws.std() == pytest.approx(1.0, abs=0.01)

    def test_large_dof_is_nearly_gaussian(self):
        rng = np.random.default_rng(1)
        draws = student_t_scaled(1e6, 1.0, rng, size=1_000_000)
        excess = float(((draws - draws.mean()) ** 4).mean() / draws.var() ** 2 - 3.0)
        assert abs(excess) < 0.1

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        draws = student_t_scaled(3.0, 1.0, rng, size=500_000)
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean()) < 3 * se

    def test_rejects_low_dof(self):
        with pytest.raises(ValueError):
            student_t_scaled(2.0, 1.0, np.random.default_rng(0))


class TestOuStep:
    def test_deterministic_decay(self):
        x = 1.0
        for _ in range(100):
            x = ou_step(x, 50.0, 0.0, normal=0.0)
        assert x == pytest.approx((1 - 1 / 50.0) ** 100)

    def test_stationary_std(self):
        normals = np.random.default_rng(3).standard_normal(200_000)
        relax, volvol = 100.0, 0.04
        x = 0.0
        track = np.empty(normals.size)
        for t in range(track.size):
            x = ou_step(x, relax, volvol, normal=normals[t])
            track[t] = x
        expect = volvol * np.sqrt(relax / 2.0)
        assert track[5000:].std() == pytest.approx(expect, rel=0.05)

    def test_autocorrelation(self):
        normals = np.random.default_rng(4).standard_normal(300_000)
        relax = 100.0
        x = 0.0
        track = np.empty(normals.size)
        for t in range(track.size):
            x = ou_step(x, relax, 0.04, normal=normals[t])
            track[t] = x
        lag = 20
        a, b = track[5000:-lag], track[5000 + lag:]
        rho = np.corrcoef(a, b)[0, 1]
        assert rho == pytest.approx((1 - 1 / relax) ** lag, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            ou_step(0.0, 0.0, 0.04, normal=0.0)


class TestReproducibility:
    @pytest.mark.parametrize("model", MODELS)
    def test_bit_identical_rerun(self, model):
        cfg = McConfig(model=model, T=40, n_paths=6, seed=123)
        a = generate_batch(cfg)
        b = generate_batch(cfg)
        assert np.array_equal(a.r_stock, b.r_stock)
        assert np.array_equal(a.true_beta, b.true_beta)

    def test_independent_of_blocking(self):
        for model in ("mc3", "mc4", "mc5"):
            cfg = McConfig(model=model, T=50, n_paths=8, seed=7)
            whole = generate_batch(cfg)
            first = generate_batch(cfg, 0, 5)
            second = generate_batch(cfg, 5, 3)
            for name in BATCH_ARRAYS:
                assert np.array_equal(getattr(whole, name)[:5], getattr(first, name)), model
                assert np.array_equal(getattr(whole, name)[5:], getattr(second, name)), model

    def test_seed_changes_paths(self):
        a = generate_batch(McConfig(model="mc1", T=40, n_paths=4, seed=1))
        b = generate_batch(McConfig(model="mc1", T=40, n_paths=4, seed=2))
        assert not np.allclose(a.r_stock, b.r_stock)


class TestLevelPriceStep:
    def test_floor_on_both_sides_counts_stock_hits(self):
        params = ReactiveParams()
        levels = init_levels(100.0, np.full(3, 100.0))
        # -200 on the index and on stock 0, -96 on stock 2: all below 5%
        index, stocks, new_levels, n = level_price_step(
            100.0, np.full(3, 100.0), -2.0, np.array([-2.0, 0.01, -0.96]),
            levels, params)
        assert index == 5.0
        assert np.array_equal(stocks, [5.0, 101.0, 5.0])
        assert n == 2
        expect = update_levels(levels, 5.0, stocks, params)
        assert np.array_equal(new_levels.stock_level, expect.stock_level)
        assert new_levels.index_level == expect.index_level
        # an index-side hit alone is not counted
        index, _, _, n = level_price_step(100.0, np.full(3, 100.0), -2.0,
                                          np.zeros(3), levels, params)
        assert index == 5.0 and n == 0

    def test_scalar_index_matches_repeated_index(self):
        params = ReactiveParams()
        rng = np.random.default_rng(5)
        n = 7
        i1, s1 = 100.0, np.full(n, 100.0)
        iv, sv = np.full(n, 100.0), np.full(n, 100.0)
        lv1, lvv = init_levels(i1, s1), init_levels(iv, sv)
        index_floored = stock_floored = 0
        for _ in range(60):
            tr_i = 0.5 * rng.standard_normal()
            tr_s = tr_i + 0.5 * rng.standard_normal(n)
            index_floored += tr_i * lv1.index_level < -0.95 * i1
            i1, s1, lv1, n1 = level_price_step(i1, s1, tr_i, tr_s, lv1, params)
            iv, sv, lvv, nv = level_price_step(iv, sv, np.full(n, tr_i), tr_s,
                                               lvv, params)
            assert np.array_equal(np.full(n, i1), iv)
            assert np.array_equal(s1, sv)
            assert n1 == nv
            stock_floored += n1
        assert index_floored > 0 and stock_floored > 0

    @pytest.mark.parametrize("model", ["mc3", "mc4"])
    def test_underflowing_price_is_numerical_failure(self, model):
        # vols this large floor the index day after day until it leaves the
        # normal floats: a numerical failure, not a bad-input ValueError
        cfg = McConfig(model=model, T=1000, n_paths=60, seed=0,
                       stock_vol=6.0, index_vol=3.0)
        with pytest.raises(NumericalFailure, match="underflowed"):
            generate_batch(cfg)

    @pytest.mark.parametrize("side", ["index", "stock"])
    def test_overflowing_price_is_numerical_failure(self, side):
        # 100 + 1e307 * 100 is inf: a numerical failure, on either side,
        # not a blank stock cell or a bad-input ValueError
        moves = {"index": (1e307, np.zeros(3)), "stock": (0.0, np.array([0.0, 1e307, 0.0]))}
        with pytest.raises(NumericalFailure, match="overflowed"):
            level_price_step(100.0, np.full(3, 100.0), *moves[side],
                             init_levels(100.0, np.full(3, 100.0)), ReactiveParams())

    def test_underflow_check_leaves_small_normal_prices(self):
        tiny = np.finfo(float).tiny
        levels = init_levels(1e6 * tiny, np.full(2, 1e6 * tiny))
        index, stocks, _, n = level_price_step(1e6 * tiny, np.full(2, 1e6 * tiny), -2.0,
                                               np.array([-2.0, 0.0]), levels,
                                               ReactiveParams())
        assert index == 5e4 * tiny and n == 1
        with pytest.raises(NumericalFailure):
            level_price_step(10.0 * tiny, np.full(2, 1.0), -2.0, np.zeros(2),
                             init_levels(10.0 * tiny, np.ones(2)), ReactiveParams())


class TestLevelKernel:
    """The block-wise level-driven generators against the per-day forms."""

    @pytest.mark.parametrize("model", ["mc3", "mc4", "mc5"])
    @pytest.mark.parametrize("n, T", BLOCKINGS)
    def test_generate_batch_matches_per_day_reference(self, model, n, T):
        assert T % block_rows(n, T) != 0
        cfg = McConfig(model=model, T=T, n_paths=n, seed=3)
        batch = generate_batch(cfg)
        expect, clamped, clamped_index = reference_level_driven(cfg)
        for name in BATCH_ARRAYS:
            assert np.array_equal(getattr(batch, name), expect[name]), name
        assert (batch.clamped, batch.clamped_index) == (clamped, clamped_index)

    @pytest.mark.parametrize("model", ["mc3", "mc4", "mc5"])
    def test_both_floors_counted_apart(self, model):
        # vols this large floor both sides often within 100 days
        cfg = McConfig(model=model, T=100, n_paths=60, seed=0, stock_vol=6.0, index_vol=3.0)
        batch = generate_batch(cfg)
        expect, clamped, clamped_index = reference_level_driven(cfg)
        for name in BATCH_ARRAYS:
            assert np.array_equal(getattr(batch, name), expect[name]), name
        assert batch.clamped == clamped > 0
        assert batch.clamped_index == clamped_index > 0
        # a floored index return is -95%, up to the rounding of the ratio
        assert batch.clamped_index == np.count_nonzero(batch.r_index < -0.95 + 1e-12)

    @pytest.mark.parametrize("n, T", BLOCKINGS)
    def test_synthetic_universe_matches_per_day_reference(self, n, T):
        assert (T - 1) % block_rows(n, T - 1) != 0
        uni = synthetic_universe(n_stocks=n, T=T, seed=4)
        index_prices, prices, caps = reference_universe(n, T, seed=4)
        assert np.array_equal(uni.index_prices, index_prices)
        assert np.array_equal(uni.prices, prices)
        assert np.array_equal(uni.caps, caps)


class TestMarketModel:
    def test_constant_truth_is_read_only(self):
        batch = generate_batch(McConfig(model="mc2", T=30, n_paths=4, seed=0))
        for name in BATCH_ARRAYS[2:]:
            track = getattr(batch, name)
            assert track.shape == (4, 30) and not track.flags.writeable
            assert np.all(track == track[0, 0])
        assert batch.true_rho[0, 0] == pytest.approx(0.375)

    def test_constant_unit_beta_and_targets(self):
        cfg = McConfig(model="mc1", T=1000, n_paths=2000, seed=0)
        batch = generate_batch(cfg)
        assert np.all(batch.true_beta == 1.0)
        # pooled correlation equals beta * sigma_index / sigma_stock
        corr = np.corrcoef(batch.r_index.ravel(), batch.r_stock.ravel())[0, 1]
        assert corr == pytest.approx(0.375, abs=0.01)
        ann = np.sqrt(255)
        assert batch.r_stock.std() * ann == pytest.approx(0.40, rel=0.02)
        assert batch.r_index.std() * ann == pytest.approx(0.15, rel=0.02)

    def test_fat_tails_only_in_t_model(self):
        g = generate_batch(McConfig(model="mc1", T=1000, n_paths=500, seed=1))
        t = generate_batch(McConfig(model="mc2", T=1000, n_paths=500, seed=1))

        def excess_kurtosis(x):
            x = x.ravel()
            return float(((x - x.mean()) ** 4).mean() / x.var() ** 2 - 3.0)

        assert abs(excess_kurtosis(g.r_stock)) < 0.1
        assert excess_kurtosis(t.r_stock) > 3.0


class TestReturnFloor:
    """mc1, mc2, mc6 and mc7 floor each return at -95%, as mc3-mc5 floor
    each price at 5% of the previous one."""

    @pytest.mark.parametrize("model", ["mc1", "mc2", "mc6", "mc7"])
    def test_returns_floored_and_counted(self, model):
        # vols this large take both sides below -95% often within 50 days
        batch = generate_batch(McConfig(model=model, T=50, n_paths=20, seed=0,
                                        stock_vol=30.0, index_vol=20.0))
        floor = mc._PRICE_FLOOR - 1.0
        assert batch.r_index.min() == batch.r_stock.min() == floor
        assert batch.clamped == np.count_nonzero(batch.r_stock == floor) > 0
        assert batch.clamped_index == np.count_nonzero(batch.r_index == floor) > 0

    def test_floored_path_runs_every_estimator(self):
        # mc2's path 59 at seed 0 is the first whose residual draw takes a
        # stock return below -100%, which unfloored leaves no price to use
        batch = generate_batch(McConfig(model="mc2", T=1000, n_paths=60, seed=0), 59, 1)
        assert (batch.clamped, batch.clamped_index) == (1, 0)
        for name in ESTIMATORS:
            assert np.isfinite(estimate_batch(name, batch)).all(), name


class TestReducedReactiveModel:
    def test_true_beta_mean_reverts_at_slow_scale(self):
        cfg = McConfig(model="mc3", T=4000, n_paths=40, seed=5)
        batch = generate_batch(cfg)
        tb = batch.true_beta[:, 500:]
        demeaned = tb - tb.mean(axis=1, keepdims=True)
        lag = 40
        num = (demeaned[:, :-lag] * demeaned[:, lag:]).mean()
        den = (demeaned ** 2).mean()
        rho_hat = num / den
        # one-lag autocorrelation (1 - lambda_s)**lag
        implied_relax = -lag / np.log(rho_hat)
        assert 28.0 < implied_relax < 60.0
        assert abs(tb.mean() - 1.0) < 0.05

    def test_price_floor_engages_rarely(self):
        batch = generate_batch(McConfig(model="mc4", T=1000, n_paths=500, seed=2))
        assert batch.clamped < 20


class TestFullReactiveModel:
    def test_vol_jumps(self):
        batch = generate_batch(McConfig(model="mc5", T=1000, n_paths=1000, seed=0))
        sig = batch.true_sigma_index
        assert np.percentile(sig, 99.9) > 2.0 * np.median(sig)

    def test_grand_mean_true_beta(self):
        # ratio-process convexity keeps the level-driven models a few
        # percent above one and the conditional-correlation models higher
        for model, tol in (("mc3", 0.05), ("mc4", 0.05), ("mc5", 0.05),
                           ("mc6", 0.20), ("mc7", 0.20)):
            batch = generate_batch(McConfig(model=model, T=1000, n_paths=300, seed=2))
            assert abs(batch.true_beta.mean() - 1.0) < tol, model


class TestDccModels:
    def test_true_tracks_consistent(self):
        batch = generate_batch(McConfig(model="mc7", T=500, n_paths=50, seed=3))
        assert np.all(batch.true_sigma_index > 0)
        assert np.all(np.abs(batch.true_rho) <= 0.999)
        implied = batch.true_rho * batch.true_sigma_stock / batch.true_sigma_index
        assert np.allclose(implied, batch.true_beta, rtol=1e-12)

    def test_unconditional_levels(self):
        batch = generate_batch(McConfig(model="mc6", T=1000, n_paths=500, seed=4))
        ann = np.sqrt(255)
        assert batch.r_stock.std() * ann == pytest.approx(0.40, rel=0.05)
        assert batch.r_index.std() * ann == pytest.approx(0.15, rel=0.05)


class TestDump:
    def test_round_trip(self, tmp_path):
        batch = generate_batch(McConfig(model="mc1", T=10, n_paths=3, seed=0))
        dest = tmp_path / "paths.csv"
        dump_batch(batch, dest)
        header = dest.read_text().splitlines()[0]
        assert header == ("path_id,t,r_index,r_stock,true_beta,true_rho,"
                          "true_sigma_index,true_sigma_stock")
        data = np.loadtxt(dest, delimiter=",", skiprows=1)
        assert data.shape == (30, 8)
        assert np.allclose(data[:10, 2], batch.r_index[0])
        assert np.allclose(data[:, 4].reshape(3, 10), batch.true_beta)
