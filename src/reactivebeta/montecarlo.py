"""Synthetic market generators used to benchmark the beta estimators.

Seven models produce index and single-stock return paths together with
the true conditional beta, correlation and volatility tracks:

* ``mc1``/``mc2`` - constant-beta market model with Gaussian or
  Student-t residuals.
* ``mc3``/``mc4`` - returns drawn on normalized scales and mapped through
  the price-level recursion, so the conditional beta mean-reverts as the
  stock out- or underperforms; Gaussian vs Student-t residuals.
* ``mc5`` - as ``mc4`` plus lognormal stochastic volatilities driven by
  two Ornstein-Uhlenbeck processes, with the normalized beta tied to the
  two correction factors of the estimator.
* ``mc6``/``mc7`` - bivariate (A)DCC generators with the published
  dynamics coefficients.

Paths are reproducible and independent of any batching or scheduling:
path ``i`` of a given (seed, model) pair always consumes its own
counter-based Philox stream in a fixed draw order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import DEFAULT_PARAMS, TRADING_DAYS, ReactiveParams
from .volatility import LevelState, fast_gap, init_levels, update_levels
from .beta import beta_elasticity
from .evaluation import NumericalFailure
from .estimators import (
    ASYMMETRIC_DCC_COEFFS,
    ASYMMETRIC_GARCH_COEFFS,
    SYMMETRIC_DCC_COEFFS,
    SYMMETRIC_GARCH_COEFFS,
    DccParams,
    GarchParams,
    dcc_step,
    init_dcc_state,
)

__all__ = [
    "MODELS",
    "McConfig",
    "McBatch",
    "student_t_scaled",
    "ou_step",
    "generate_batch",
    "dump_batch",
]

MODELS = ("mc1", "mc2", "mc3", "mc4", "mc5", "mc6", "mc7")
_MODEL_IDS = {name: i for i, name in enumerate(MODELS, start=1)}

# generated prices are floored at this fraction of the previous price so a
# single extreme fat-tailed draw cannot push a price non-positive
_PRICE_FLOOR = 0.05
# the protocol's normalized (mc3-mc5) or constant (mc1/mc2) beta, and the
# relaxation time in days and daily vol of vol of mc5's log-vol processes
_BETA = 1.0
_OU_RELAXATION = 100.0
_OU_VOLVOL = 0.04


@dataclass(frozen=True)
class McConfig:
    """Generator settings (volatilities annual); defaults follow the
    benchmark protocol, whose other terms are module constants."""

    model: str
    T: int = 1000
    n_paths: int = 30_000
    seed: int = 0
    stock_vol: float = 0.40
    index_vol: float = 0.15
    t_dof: float = 3.0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.T < 2:
            raise ValueError("T must be >= 2")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if not (self.stock_vol > 0.0 and self.index_vol > 0.0):
            raise ValueError("volatilities must be positive")
        if self.stock_vol <= _BETA * self.index_vol:
            raise ValueError("stock_vol must exceed beta * index_vol")
        if self.t_dof <= 2.0:
            raise ValueError("t_dof must exceed 2 (finite variance)")

    @property
    def daily_index_vol(self) -> float:
        return self.index_vol / np.sqrt(TRADING_DAYS)

    @property
    def daily_stock_vol(self) -> float:
        return self.stock_vol / np.sqrt(TRADING_DAYS)

    @property
    def daily_residual_vol(self) -> float:
        return np.sqrt(self.stock_vol ** 2 - (_BETA * self.index_vol) ** 2) \
            / np.sqrt(TRADING_DAYS)


@dataclass(frozen=True)
class McBatch:
    """A contiguous block of simulated paths, time on the last axis."""

    model: str
    path_ids: np.ndarray
    r_index: np.ndarray
    r_stock: np.ndarray
    true_beta: np.ndarray
    true_rho: np.ndarray
    true_sigma_index: np.ndarray
    true_sigma_stock: np.ndarray
    clamped: int = 0

    @property
    def n_paths(self) -> int:
        return self.r_index.shape[0]

    @property
    def T(self) -> int:
        return self.r_index.shape[1]


def student_t_scaled(dof: float, target_std: float, rng: np.random.Generator,
                     size=None):
    """Student-t draws rescaled so their standard deviation is exactly
    ``target_std`` (the raw variance ``dof / (dof - 2)`` is divided out)."""
    if dof <= 2.0:
        raise ValueError("dof must exceed 2 for a finite variance")
    return rng.standard_t(dof, size=size) * (target_std * np.sqrt((dof - 2.0) / dof))


def ou_step(x, relaxation_days: float, volvol: float, normal):
    """One Euler step of a mean-zero Ornstein-Uhlenbeck process on the
    daily grid: ``x' = x * (1 - 1/relaxation) + volvol * normal`` with
    ``normal`` a pre-drawn standard normal."""
    if relaxation_days <= 0.0:
        raise ValueError("relaxation_days must be positive")
    return np.asarray(x) * (1.0 - 1.0 / relaxation_days) + volvol * np.asarray(normal)


def level_price_step(index_price, stock_price, tr_index, tr_stock,
                     levels: LevelState, params: ReactiveParams):
    """Map one day's moves on the normalized scale to prices through the
    levels, ``price' = price + move * level``, and advance the levels.

    Each new price is floored at ``_PRICE_FLOOR`` of the previous one, so
    a single extreme draw cannot push a price non-positive. The index side
    may be a scalar shared by every stock. Returns the new index and stock
    prices, the new levels and the number of stock prices floored. Raises
    ``NumericalFailure`` once a price falls below the normal floats, as
    flooring day after day under volatilities far beyond any market's does.
    """
    new_index = np.maximum(index_price + tr_index * levels.index_level,
                           _PRICE_FLOOR * index_price)
    new_stock = stock_price + tr_stock * levels.stock_level
    floor = _PRICE_FLOOR * stock_price
    n_floored = int(np.count_nonzero(new_stock < floor))
    new_stock = np.maximum(new_stock, floor)
    tiny = np.finfo(float).tiny
    if not (np.all(new_index >= tiny) and np.all(new_stock >= tiny)):
        raise NumericalFailure("a generated price underflowed under the price floor; "
                               "the volatilities are too large for the level map")
    return new_index, new_stock, update_levels(levels, new_index, new_stock, params), n_floored


def _path_generators(config: McConfig, offset: int, count: int):
    root = np.random.SeedSequence([int(config.seed), _MODEL_IDS[config.model]])
    children = root.spawn(offset + count)[offset:]
    return [np.random.Generator(np.random.Philox(c)) for c in children]


def _draw_matrix(rngs, T: int, kind: str, dof: float = 3.0) -> np.ndarray:
    out = np.empty((len(rngs), T))
    for k, rng in enumerate(rngs):
        if kind == "normal":
            out[k] = rng.standard_normal(T)
        else:
            out[k] = rng.standard_t(dof, size=T)
    return out


def generate_batch(config: McConfig, offset: int = 0,
                   count: Optional[int] = None) -> McBatch:
    """Generate paths ``offset .. offset + count`` of the configured model."""
    if count is None:
        count = config.n_paths - offset
    if count <= 0 or offset < 0 or offset + count > config.n_paths:
        raise ValueError("invalid path range")
    rngs = _path_generators(config, offset, count)
    path_ids = np.arange(offset, offset + count)
    builder = {
        "mc1": _gen_market_model, "mc2": _gen_market_model,
        "mc3": _gen_level_driven, "mc4": _gen_level_driven, "mc5": _gen_level_driven,
        "mc6": _gen_dcc, "mc7": _gen_dcc,
    }[config.model]
    return builder(config, rngs, path_ids)


# ---------------------------------------------------------------------------
# model builders


def _gen_market_model(config: McConfig, rngs, path_ids) -> McBatch:
    n, T = len(rngs), config.T
    s_i, s_eps = config.daily_index_vol, config.daily_residual_vol
    r_index = np.empty((n, T))
    resid = np.empty((n, T))
    for k, rng in enumerate(rngs):
        r_index[k] = s_i * rng.standard_normal(T)
        if config.model == "mc2":
            resid[k] = student_t_scaled(config.t_dof, s_eps, rng, size=T)
        else:
            resid[k] = s_eps * rng.standard_normal(T)
    r_stock = _BETA * r_index + resid

    ones = np.ones((n, T))
    sig_i_tot = config.daily_stock_vol
    rho = _BETA * s_i / sig_i_tot
    return McBatch(
        model=config.model, path_ids=path_ids,
        r_index=r_index, r_stock=r_stock,
        true_beta=_BETA * ones, true_rho=rho * ones,
        true_sigma_index=s_i * ones, true_sigma_stock=sig_i_tot * ones,
    )


def _gen_level_driven(config: McConfig, rngs, path_ids) -> McBatch:
    n, T = len(rngs), config.T
    stochastic_vol = config.model == "mc5"
    params = DEFAULT_PARAMS
    z_index = _draw_matrix(rngs, T, "normal")
    if config.model == "mc3":
        z_resid = _draw_matrix(rngs, T, "normal")
    else:
        z_resid = _draw_matrix(rngs, T, "t", config.t_dof) \
            * np.sqrt((config.t_dof - 2.0) / config.t_dof)

    if stochastic_vol:
        z_ou_index = _draw_matrix(rngs, T, "normal")
        z_ou_rel = _draw_matrix(rngs, T, "normal")
        stat_std = _OU_VOLVOL * np.sqrt(_OU_RELAXATION / 2.0)
        log_si = stat_std * z_ou_index[:, 0]
        log_rel = stat_std * z_ou_rel[:, 0]
    else:
        log_si = np.zeros(n)
        log_rel = np.zeros(n)

    s_index_bar = config.daily_index_vol
    s_resid_bar = config.daily_residual_vol

    index_price = np.full(n, 100.0)
    stock_price = np.full(n, 100.0)
    levels = init_levels(index_price, stock_price)

    s_index = s_index_bar * np.exp(log_si)
    s_resid = s_resid_bar * np.exp(log_si + log_rel)
    beta_norm = np.full(n, _BETA)
    ratio_prev = np.sqrt(beta_norm ** 2 * s_index ** 2 + s_resid ** 2) / s_index
    kappa = ratio_prev ** 2
    lam_b = params.lambda_beta

    r_index = np.empty((n, T))
    r_stock = np.empty((n, T))
    true_beta = np.empty((n, T))
    true_rho = np.empty((n, T))
    true_sig_i = np.empty((n, T))
    true_sig_s = np.empty((n, T))
    clamped = 0

    for t in range(T):
        if stochastic_vol:
            corr_lev = 1.0 + params.ell_diff * fast_gap(levels)
            f = beta_elasticity(beta_norm, params)
            delta = ratio_prev / np.sqrt(kappa) - 1.0
            with np.errstate(invalid="ignore", divide="ignore"):
                corr_ela = 1.0 + (2.0 * f / beta_norm) * delta
            corr_ela = np.where(np.isfinite(corr_ela) & (f > 0.0), corr_ela, 1.0)
            beta_norm = np.maximum(_BETA * corr_lev * corr_ela, 0.05)

        tr_index = s_index * z_index[:, t]
        tr_stock = beta_norm * tr_index + s_resid * z_resid[:, t]
        new_index, new_stock, levels, n_floored = level_price_step(
            index_price, stock_price, tr_index, tr_stock, levels, params)
        clamped += n_floored

        r_index[:, t] = new_index / index_price - 1.0
        r_stock[:, t] = new_stock / stock_price - 1.0
        index_price, stock_price = new_index, new_stock

        if stochastic_vol and t + 1 < T:
            # draw column 0 seeded the stationary start; steps use 1..T-1
            log_si = ou_step(log_si, _OU_RELAXATION, _OU_VOLVOL, normal=z_ou_index[:, t + 1])
            log_rel = ou_step(log_rel, _OU_RELAXATION, _OU_VOLVOL, normal=z_ou_rel[:, t + 1])
            s_index = s_index_bar * np.exp(log_si)
            s_resid = s_resid_bar * np.exp(log_si + log_rel)

        if stochastic_vol:
            level_ratio = (levels.stock_level * new_index) / (new_stock * levels.index_level)
            true_beta[:, t] = beta_norm * level_ratio
        else:
            true_beta[:, t] = beta_norm * levels.slow_stock * new_index \
                / (levels.slow_index * new_stock)
        sig_i_tot = np.sqrt(beta_norm ** 2 * s_index ** 2 + s_resid ** 2)
        true_sig_i[:, t] = s_index * levels.index_level / new_index
        true_sig_s[:, t] = sig_i_tot * levels.stock_level / new_stock
        true_rho[:, t] = true_beta[:, t] * true_sig_i[:, t] / true_sig_s[:, t]

        ratio_t = sig_i_tot / s_index
        kappa = (1.0 - lam_b) * kappa + lam_b * ratio_t ** 2
        ratio_prev = ratio_t

    return McBatch(
        model=config.model, path_ids=path_ids,
        r_index=r_index, r_stock=r_stock,
        true_beta=true_beta, true_rho=true_rho,
        true_sigma_index=true_sig_i, true_sigma_stock=true_sig_s,
        clamped=clamped,
    )


def _gen_dcc(config: McConfig, rngs, path_ids) -> McBatch:
    n, T = len(rngs), config.T
    asymmetric = config.model == "mc7"
    gcoef = ASYMMETRIC_GARCH_COEFFS if asymmetric else SYMMETRIC_GARCH_COEFFS
    dcoef = ASYMMETRIC_DCC_COEFFS if asymmetric else SYMMETRIC_DCC_COEFFS
    rho_bar = _BETA * config.index_vol / config.stock_vol
    gp_s = GarchParams(unconditional_sigma=config.daily_stock_vol, **gcoef)
    gp_i = GarchParams(unconditional_sigma=config.daily_index_vol, **gcoef)
    dp = DccParams(rho_bar=rho_bar, **dcoef)

    z1 = _draw_matrix(rngs, T, "normal")
    z2 = _draw_matrix(rngs, T, "normal")

    state = init_dcc_state(gp_s, gp_i, dp, shape=(n,))
    r_index = np.empty((n, T))
    r_stock = np.empty((n, T))
    true_beta = np.empty((n, T))
    true_rho = np.empty((n, T))
    true_sig_i = np.empty((n, T))
    true_sig_s = np.empty((n, T))

    for t in range(T):
        rho_prev = np.asarray(state.rho)
        xi_i = z1[:, t]
        xi_s = rho_prev * xi_i + np.sqrt(1.0 - rho_prev ** 2) * z2[:, t]
        r_index[:, t] = np.asarray(state.sigma_index) * xi_i
        r_stock[:, t] = np.asarray(state.sigma_stock) * xi_s
        state = dcc_step(state, r_stock[:, t], r_index[:, t], gp_s, gp_i, dp)
        true_beta[:, t] = state.beta
        true_rho[:, t] = state.rho
        true_sig_i[:, t] = state.sigma_index
        true_sig_s[:, t] = state.sigma_stock

    return McBatch(
        model=config.model, path_ids=path_ids,
        r_index=r_index, r_stock=r_stock,
        true_beta=true_beta, true_rho=true_rho,
        true_sigma_index=true_sig_i, true_sigma_stock=true_sig_s,
    )


# ---------------------------------------------------------------------------
# path dump (cross-implementation comparison format)

DUMP_COLUMNS = ("path_id", "t", "r_index", "r_stock", "true_beta", "true_rho",
                "true_sigma_index", "true_sigma_stock")


def dump_batch(batch: McBatch, filepath) -> None:
    """Write a batch as delimited text, one row per (path, day).

    The first line names the columns; values are full-precision floats.
    """
    n, T = batch.r_index.shape
    pid = np.repeat(batch.path_ids, T).astype(float)
    tcol = np.tile(np.arange(T, dtype=float), n)
    flat = [a.reshape(-1) for a in (batch.r_index, batch.r_stock, batch.true_beta,
                                    batch.true_rho, batch.true_sigma_index,
                                    batch.true_sigma_stock)]
    data = np.column_stack([pid, tcol] + flat)
    np.savetxt(filepath, data, delimiter=",", comments="",
               header=",".join(DUMP_COLUMNS),
               fmt=["%d", "%d"] + ["%.17g"] * 6)
