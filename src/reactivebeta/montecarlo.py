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
from .timeseries import block_rows, ema_rows
from .beta import _elasticity_map, _level_map, _vol_map
from .evaluation import NumericalFailure
from .estimators import (
    ASYMMETRIC_DCC_COEFFS,
    ASYMMETRIC_GARCH_COEFFS,
    SYMMETRIC_DCC_COEFFS,
    SYMMETRIC_GARCH_COEFFS,
    _RHO_CLAMP,
    DccParams,
    GarchParams,
    dcc_step,
    init_dcc_state,
)

__all__ = [
    "MODELS",
    "McConfig",
    "McBatch",
    "generate_batch",
    "dump_batch",
]

MODELS = ("mc1", "mc2", "mc3", "mc4", "mc5", "mc6", "mc7")
_MODEL_IDS = {name: i for i, name in enumerate(MODELS, start=1)}

# generated prices are floored at this fraction of the previous price so a
# single extreme fat-tailed draw cannot push a price non-positive: mc3-mc5
# floor each price, the other models each return at _PRICE_FLOOR - 1
_PRICE_FLOOR = 0.05
# the protocol's market: its normalized (mc3-mc5) or constant (mc1/mc2)
# beta, the annual index and stock vols, the degrees of freedom of the
# Student-t draws, and the relaxation time in days and daily vol of vol of
# mc5's log-vol processes
_BETA = 1.0
_INDEX_VOL = 0.15
_STOCK_VOL = 0.40
_T_DOF = 3.0
_OU_RELAXATION = 100.0
_OU_VOLVOL = 0.04


def _daily_vols():
    """The protocol's daily index, stock and residual vols."""
    root = np.sqrt(TRADING_DAYS)
    return (_INDEX_VOL / root, _STOCK_VOL / root,
            np.sqrt(_STOCK_VOL ** 2 - (_BETA * _INDEX_VOL) ** 2) / root)


@dataclass(frozen=True)
class McConfig:
    """Which model to simulate, how many days and paths, from which seed;
    the market is the benchmark protocol's, set by module constants."""

    model: str
    T: int = 1000
    n_paths: int = 30_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.T < 2:
            raise ValueError("T must be >= 2")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")


@dataclass(frozen=True)
class McBatch:
    """A contiguous block of simulated paths, time on the last axis.

    The returns are ``(n, T)``. The four ``true_*`` tracks are ``(n, T)``
    too, or ``(n, 1)``, the final day only, when generated with
    ``tracks=False``. ``clamped`` and ``clamped_index`` count the price
    floor's hits on the stock and on the index side; ``clamped_rho``
    counts the path-days on which mc6/mc7's correlation sits at the rho
    clamp (zero for the other models).
    """

    model: str
    path_ids: np.ndarray
    r_index: np.ndarray
    r_stock: np.ndarray
    true_beta: np.ndarray
    true_rho: np.ndarray
    true_sigma_index: np.ndarray
    true_sigma_stock: np.ndarray
    clamped: int = 0
    clamped_index: int = 0
    clamped_rho: int = 0

    @property
    def n_paths(self) -> int:
        return self.r_index.shape[0]

    @property
    def T(self) -> int:
        return self.r_index.shape[1]


def _level_days(px, slow, lvl, fast, gap, tr, params: ReactiveParams, move=None):
    """Map a block of days' moves ``tr`` to prices through the levels in
    place, ``price' = price + move * level`` floored at ``_PRICE_FLOOR`` of
    the previous price, and advance the levels; return the floor hits of
    the index side and of the stock side. Raises ``NumericalFailure`` once
    a price leaves the normal floats: below them, as flooring day after
    day under volatilities far beyond any market's does, or above them.

    ``px``, ``slow`` and ``lvl`` (prices, slow price EMAs, levels) are
    ``(days + 1, 2, n)``: row 0 the day before the block, the index side
    first (a shared index repeats in every column). ``fast`` and ``gap``,
    the fast index EMA and its relative gap, step in place. ``move(d,
    gap)``, if given, first fills day ``d``'s stock moves from yesterday's gap.
    """
    lam_s, lam_f = params.lambda_s, params.lambda_f
    ell = np.array([[params.ell], [params.ell_prime]])
    raw = np.empty_like(tr)
    work = np.empty_like(tr[0])
    # a price out of the normal floats spoils the rest of the block, which
    # is then refused as a whole
    with np.errstate(all="ignore"):
        for d in range(len(tr)):
            if move is not None:
                move(d, gap)
            price, new = px[d], px[d + 1]
            np.multiply(tr[d], lvl[d], out=raw[d])
            raw[d] += price
            np.multiply(price, _PRICE_FLOOR, out=work)
            np.maximum(raw[d], work, out=new)
            np.multiply(slow[d], 1.0 - lam_s, out=slow[d + 1])
            np.multiply(new, lam_s, out=work)
            slow[d + 1] += work
            fast *= 1.0 - lam_f
            np.multiply(new[0], lam_f, out=gap)
            fast += gap
            np.subtract(fast, new[0], out=gap)
            gap /= fast
            _level_map(new, slow[d + 1], ell, gap, params.phi, out=lvl[d + 1])
    new = px[1:]
    normal = (new >= np.finfo(float).tiny) & (new < np.inf)
    if not normal.all():
        first = new[np.argmin(normal.all(axis=(1, 2)))]
        what = "overflowed" if np.any(first == np.inf) else "underflowed under the price floor"
        raise NumericalFailure(f"a generated price {what}; "
                               "the volatilities are too large for the level map")
    return np.count_nonzero(raw < _PRICE_FLOOR * px[:-1], axis=(0, 2))


def _floor_returns(r) -> int:
    """Floor the returns ``r`` in place at ``_PRICE_FLOOR - 1``, a price
    at ``_PRICE_FLOOR`` of the previous one; return how many it floored."""
    hits = np.count_nonzero(r < _PRICE_FLOOR - 1.0)
    np.maximum(r, _PRICE_FLOOR - 1.0, out=r)
    return int(hits)


def _path_generators(config: McConfig, offset: int, count: int):
    # path i's stream is child i of the (seed, model) sequence, built
    # without spawning the children before it
    entropy = [int(config.seed), _MODEL_IDS[config.model]]
    return [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy, spawn_key=(i,))))
        for i in range(offset, offset + count)]


def _draw_matrix(rngs, T: int, kind: str) -> np.ndarray:
    """One row of ``T`` draws per stream: standard normal, or Student-t
    with ``_T_DOF`` degrees of freedom."""
    out = np.empty((len(rngs), T))
    for k, rng in enumerate(rngs):
        if kind == "normal":
            out[k] = rng.standard_normal(T)
        else:
            out[k] = rng.standard_t(_T_DOF, size=T)
    return out


def generate_batch(config: McConfig, offset: int = 0,
                   count: Optional[int] = None, tracks: bool = True) -> McBatch:
    """Generate paths ``offset .. offset + count`` of the configured model.

    With ``tracks=False`` the truth tracks keep only the final day, shape
    ``(n, 1)``; every value kept has the bits it has in the full tracks.
    """
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
    return builder(config, rngs, path_ids, config.T if tracks else 1)


# ---------------------------------------------------------------------------
# model builders; each keeps the truth tracks' last ``keep`` days


def _gen_market_model(config: McConfig, rngs, path_ids, keep: int) -> McBatch:
    n, T = len(rngs), config.T
    s_i, sig_i_tot, s_eps = _daily_vols()
    r_index = _draw_matrix(rngs, T, "normal")
    r_index *= s_i
    if config.model == "mc2":     # Student-t draws scaled to a std of s_eps
        resid = _draw_matrix(rngs, T, "t")
        resid *= s_eps * np.sqrt((_T_DOF - 2.0) / _T_DOF)
    else:
        resid = _draw_matrix(rngs, T, "normal")
        resid *= s_eps
    r_stock = _BETA * r_index + resid
    clamped_index, clamped = _floor_returns(r_index), _floor_returns(r_stock)

    rho = _BETA * s_i / sig_i_tot
    # the constant truth tracks are read-only views of one value each
    true_beta, true_rho, true_sig_i, true_sig_s = (
        np.broadcast_to(x, (n, keep)) for x in (_BETA, rho, s_i, sig_i_tot))
    return McBatch(
        model=config.model, path_ids=path_ids,
        r_index=r_index, r_stock=r_stock,
        true_beta=true_beta, true_rho=true_rho,
        true_sigma_index=true_sig_i, true_sigma_stock=true_sig_s,
        clamped=clamped, clamped_index=clamped_index,
    )


def _gen_level_driven(config: McConfig, rngs, path_ids, keep: int) -> McBatch:
    n, T = len(rngs), config.T
    skip = T - keep         # days before the first that the truth keeps
    stochastic_vol = config.model == "mc5"
    p = DEFAULT_PARAMS
    # each draw matrix becomes an output a block of days at a time, once
    # the block has read it: the moves' draws the returns, and with full
    # tracks mc5's log-vol draws the true volatility tracks
    r_index = _draw_matrix(rngs, T, "normal")
    if config.model == "mc3":
        r_stock = _draw_matrix(rngs, T, "normal")
    else:
        r_stock = _draw_matrix(rngs, T, "t")
        r_stock *= np.sqrt((_T_DOF - 2.0) / _T_DOF)
    L = block_rows(n, T)
    # rows as in _level_days: row 0 the day before the block
    logs = np.zeros((L + 1, 2, n))      # log index vol, log relative vol
    if stochastic_vol:
        # column 0 seeds the stationary start, column t + 1 steps day t
        draw_i = _draw_matrix(rngs, T, "normal")
        draw_s = _draw_matrix(rngs, T, "normal")
        stat_std = _OU_VOLVOL * np.sqrt(_OU_RELAXATION / 2.0)
        logs[0] = stat_std * draw_i[:, 0], stat_std * draw_s[:, 0]
    if stochastic_vol and not skip:
        true_sig_i, true_sig_s = draw_i, draw_s
    else:
        true_sig_i, true_sig_s = np.empty((2, n, keep))
    true_beta, true_rho = np.empty((2, n, keep))

    daily_index, _, daily_resid = _daily_vols()

    def vols(lg):       # index and residual vols from the log-vols
        return (daily_index * np.exp(lg[:, 0]),
                daily_resid * np.exp(lg[:, 0] + lg[:, 1]))

    px, slow, lvl = np.full((3, L + 1, 2, n), 100.0)
    fast, gap = np.full(n, 100.0), np.zeros(n)
    beta = np.full((L + 1, n), _BETA)   # the normalized beta
    tr = np.empty((L, 2, n))
    s_index, s_resid = vols(logs[:1])
    ratio = np.sqrt(beta[0] ** 2 * s_index[0] ** 2 + s_resid[0] ** 2) / s_index[0]
    kappa = ratio ** 2
    lam_b = p.lambda_beta
    clamped = np.zeros(2, dtype=int)
    ela, bad = np.empty(n), np.empty(n, dtype=bool)

    def move(d, gap):
        # mc5's normalized beta from yesterday's state: the estimator's
        # elasticity map (>= 0.2 as b >= 0.05, 2 f / b <= 0.8, delta >= -1) and
        # leverage factor, unfloored as it multiplies and divides nothing
        b = beta[d]
        _elasticity_map(b, ratio / np.sqrt(kappa) - 1.0, p, ela, bad)
        np.maximum(_BETA * (1.0 + p.ell_diff * gap) * ela, 0.05, out=beta[d + 1])
        tr[d, 1] = beta[d + 1] * tr[d, 0] + resid[d]
        # tomorrow's vols give kappa its next squared vol ratio
        ratio[:] = np.sqrt(beta[d + 1] ** 2 * s_next2[d] + s_resid2[d]) / s_next[d]
        kappa[:] = (1.0 - lam_b) * kappa + lam_b * ratio ** 2

    for t0 in range(0, T, L):
        m = min(L, T - t0)
        days = slice(t0, t0 + m)
        if stochastic_vol:
            steps = min(m, T - 1 - t0)      # the last day keeps its vols
            lg = logs[:steps + 1]
            lg[1:, 0] = _OU_VOLVOL * draw_i[:, t0 + 1:t0 + 1 + steps].T
            lg[1:, 1] = _OU_VOLVOL * draw_s[:, t0 + 1:t0 + 1 + steps].T
            ema_rows(lg, 1.0 - 1.0 / _OU_RELAXATION)
            logs[steps + 1:m + 1] = logs[steps]
        s_index, s_resid = vols(logs[:m + 1])
        # today's moves use today's vols; the truth and kappa tomorrow's
        s_next, s_next2, s_resid2 = s_index[1:], s_index[1:] ** 2, s_resid[1:] ** 2
        tr[:m, 0] = s_index[:m] * r_index[:, days].T
        resid = s_resid[:m] * r_stock[:, days].T

        if not stochastic_vol:
            tr[:m, 1] = _BETA * tr[:m, 0] + resid
        clamped += _level_days(px[:m + 1], slow[:m + 1], lvl[:m + 1], fast, gap, tr[:m], p,
                               move if stochastic_vol else None)

        ret = px[1:m + 1] / px[:m] - 1.0
        r_index[:, days], r_stock[:, days] = ret[:, 0].T, ret[:, 1].T
        first = max(skip - t0, 0)       # the block's first day the truth keeps
        if first < m:
            kept = slice(first + 1, m + 1)
            price, level, b = px[kept], lvl[kept], beta[kept]
            if stochastic_vol:
                tb = b * ((level[:, 1] * price[:, 0]) / (price[:, 1] * level[:, 0]))
            else:
                tb = b * slow[kept, 1] * price[:, 0] / (slow[kept, 0] * price[:, 1])
            s2 = s_next2[first:]
            sig_i = _vol_map(s2, True, level[:, 0], price[:, 0])
            sig_s = _vol_map(b ** 2 * s2 + s_resid2[first:], True, level[:, 1], price[:, 1])
            cols = slice(t0 + first - skip, t0 + m - skip)
            for out, block in ((true_beta, tb), (true_rho, tb * sig_i / sig_s),
                               (true_sig_i, sig_i), (true_sig_s, sig_s)):
                out[:, cols] = block.T
        for x in (px, slow, lvl, beta, logs):
            x[0] = x[m]

    return McBatch(
        model=config.model, path_ids=path_ids,
        r_index=r_index, r_stock=r_stock,
        true_beta=true_beta, true_rho=true_rho,
        true_sigma_index=true_sig_i, true_sigma_stock=true_sig_s,
        clamped=int(clamped[1]), clamped_index=int(clamped[0]),
    )


def _gen_dcc(config: McConfig, rngs, path_ids, keep: int) -> McBatch:
    n, T = len(rngs), config.T
    asymmetric = config.model == "mc7"
    gcoef = ASYMMETRIC_GARCH_COEFFS if asymmetric else SYMMETRIC_GARCH_COEFFS
    dcoef = ASYMMETRIC_DCC_COEFFS if asymmetric else SYMMETRIC_DCC_COEFFS
    daily_index, daily_stock, _ = _daily_vols()
    rho_bar = _BETA * _INDEX_VOL / _STOCK_VOL
    gp_s = GarchParams(unconditional_sigma=daily_stock, **gcoef)
    gp_i = GarchParams(unconditional_sigma=daily_index, **gcoef)
    dp = DccParams(rho_bar=rho_bar, **dcoef)

    # each day's draws become its returns in place
    r_index = _draw_matrix(rngs, T, "normal")
    r_stock = _draw_matrix(rngs, T, "normal")
    skip = T - keep         # days before the first that the truth keeps
    truth = np.empty((4, n, keep))
    true_beta, true_rho, true_sig_i, true_sig_s = truth

    state = init_dcc_state(gp_s, gp_i, dp, shape=(n,))
    clamped = clamped_index = clamped_rho = 0
    for t in range(T):
        rho_prev = np.asarray(state.rho)
        xi_i = r_index[:, t]    # a view: the stock's shock reads it first
        xi_s = rho_prev * xi_i + np.sqrt(1.0 - rho_prev ** 2) * r_stock[:, t]
        r_index[:, t] = np.asarray(state.sigma_index) * xi_i
        r_stock[:, t] = np.asarray(state.sigma_stock) * xi_s
        clamped_index += _floor_returns(r_index[:, t])
        clamped += _floor_returns(r_stock[:, t])
        state = dcc_step(state, r_stock[:, t], r_index[:, t], gp_s, gp_i, dp)
        clamped_rho += np.count_nonzero(np.abs(state.rho) == _RHO_CLAMP)
        if t >= skip:
            for out, value in zip(truth, (state.beta, state.rho, state.sigma_index,
                                          state.sigma_stock)):
                out[:, t - skip] = value

    return McBatch(
        model=config.model, path_ids=path_ids,
        r_index=r_index, r_stock=r_stock,
        true_beta=true_beta, true_rho=true_rho,
        true_sigma_index=true_sig_i, true_sigma_stock=true_sig_s,
        clamped=clamped, clamped_index=clamped_index, clamped_rho=int(clamped_rho),
    )


# ---------------------------------------------------------------------------
# path dump (cross-implementation comparison format)

DUMP_COLUMNS = ("path_id", "t", "r_index", "r_stock", "true_beta", "true_rho",
                "true_sigma_index", "true_sigma_stock")


def dump_batch(batch: McBatch, filepath) -> None:
    """Write a batch as delimited text, one row per (path, day).

    The first line names the columns; values are full-precision floats.
    The batch needs its full truth tracks (``ValueError`` otherwise).
    """
    n, T = batch.r_index.shape
    if batch.true_beta.shape != (n, T):
        raise ValueError("dump_batch needs a batch generated with full tracks")
    pid = np.repeat(batch.path_ids, T).astype(float)
    tcol = np.tile(np.arange(T, dtype=float), n)
    flat = [a.reshape(-1) for a in (batch.r_index, batch.r_stock, batch.true_beta,
                                    batch.true_rho, batch.true_sigma_index,
                                    batch.true_sigma_stock)]
    data = np.column_stack([pid, tcol] + flat)
    np.savetxt(filepath, data, delimiter=",", comments="",
               header=",".join(DUMP_COLUMNS),
               fmt=["%d", "%d"] + ["%.17g"] * 6)
