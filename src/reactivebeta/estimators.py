"""Rival beta estimators: weighted least squares, quantile regressions
and (A)DCC conditional betas.

Every estimator weighs observations by ``(1 - lam)**(T - t)`` so that all
methods share the same effective look-back. Each solver takes one series
or a batch of shape ``(n_paths, T)``, paths on the leading axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DEFAULT_PARAMS
from .timeseries import (_weighted_sums, block_rows, ema_rows,
                         exp_weighted_moments, exp_weights)

__all__ = [
    "ols_beta_batch",
    "quantile_beta_batch",
    "quantile_objective",
    "trimean",
    "trimean_beta_batch",
    "GarchParams",
    "DccParams",
    "DccState",
    "SYMMETRIC_GARCH_COEFFS",
    "ASYMMETRIC_GARCH_COEFFS",
    "SYMMETRIC_DCC_COEFFS",
    "ASYMMETRIC_DCC_COEFFS",
    "init_dcc_state",
    "dcc_step",
    "dcc_calibrate",
    "dcc_beta_batch",
]

#: the reactive estimator's beta look-back, which every rival shares
DEFAULT_LOOKBACK = DEFAULT_PARAMS.lambda_beta


# ---------------------------------------------------------------------------
# least squares


def ols_beta_batch(x: np.ndarray, y: np.ndarray,
                   lam: float = DEFAULT_LOOKBACK) -> np.ndarray:
    """Weighted least-squares slopes with an intercept along the last axis:
    weighted cov(x, y) / var(x). A constant regressor yields NaN."""
    return exp_weighted_moments(x, y, lam).slope


# ---------------------------------------------------------------------------
# quantile regression

def _pinball(residuals: np.ndarray, theta: float) -> np.ndarray:
    return np.where(residuals >= 0.0, theta * residuals, (theta - 1.0) * residuals)


def quantile_objective(x, y, lam: float, theta: float,
                       alpha, beta) -> float | np.ndarray:
    """Normalized-weight pinball objective at (alpha, beta)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = exp_weights(x.shape[-1], lam)
    r = y - np.asarray(alpha)[..., None] - np.asarray(beta)[..., None] * x
    out = _weighted_sums(_pinball(r, theta), w)
    return float(out) if np.ndim(out) == 0 else out


def _quantile_pick(values: np.ndarray, mass: np.ndarray, target, last) -> np.ndarray:
    """Per row, the column of the first value in sorted order at which the
    cumulative mass reaches ``target``, capped at sorted position ``last``."""
    order = np.argsort(values, axis=1)
    cum = np.take_along_axis(mass, order, axis=1)
    np.cumsum(cum, axis=1, out=cum)
    pick = np.minimum((cum < np.reshape(target, (-1, 1))).sum(axis=1), last)
    return order[np.arange(order.shape[0]), pick]


def _rotate(x, y, w, theta, anchor, dx, r):
    """Per row, the best line through observation ``anchor``: its other
    observation, intercept, slope and objective; ``r`` keeps the slopes."""
    rows = np.arange(x.shape[0])
    xa, ya = x[rows, anchor], y[rows, anchor]
    np.subtract(x, xa[:, None], out=dx)
    np.subtract(y, ya[:, None], out=r)
    tie = dx == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r /= dx
    # ties in x carry no mass and sort last (a finite input's slope is inf only
    # by overflow); +inf, unlike NaN, keeps numpy's argsort on its SIMD path
    r[tie] = np.inf
    # the slope quantile must reach sum(m) / 2 + (theta - 1/2) sum(w dx)
    lean = (theta - 0.5) * _weighted_sums(dx, w)
    np.abs(dx, out=dx)
    dx *= w
    nxt = _quantile_pick(r, dx, 0.5 * dx.sum(axis=1) + lean, x.shape[1] - 1 - tie.sum(axis=1))
    b_new = r[rows, nxt]
    a_new = ya - b_new * xa
    # pinball loss theta r^+ + (1 - theta) r^- as |r| / 2 + (theta - 1/2) r
    np.multiply(x, b_new[:, None], out=dx)
    np.subtract(y, dx, out=dx)
    dx -= a_new[:, None]
    obj = (theta - 0.5) * _weighted_sums(dx, w)
    obj += 0.5 * _weighted_sums(np.abs(dx, out=dx), w)
    return nxt, a_new, b_new, obj


def quantile_beta_batch(x: np.ndarray, y: np.ndarray, theta: float,
                        lam: float = DEFAULT_LOOKBACK):
    """Weighted quantile regression line fit along the last axis.

    Minimizes the exponentially weighted pinball loss with an intercept
    exactly, by the two-parameter vertex descent of Barrodale & Roberts
    (1973) and Koenker & Bassett (1978); an optimal line passes through
    two observations. The line is held through an anchor observation
    ``i``, starting from the one at the ``theta`` weighted quantile of the
    least-squares residuals. Its best slope about ``i`` is a weighted
    quantile of the slopes ``(y_j - y_i) / (x_j - x_i)`` with masses
    ``w_j |x_j - x_i|``, taken at ``theta`` for observations right of
    ``i`` and at ``1 - theta`` for those left of it; ties in x have no
    mass and sort last as +inf. The line then pivots: the other
    observation it passes through becomes the anchor. Once the objective
    no longer strictly falls (relative 1e-15), the line also rotates
    about each other observation on it (a degenerate vertex; a slope
    about the anchor within 1e-9 relative of the line's, as rounding may
    leave it ulps off) and goes on from the first rotation that strictly
    lowers the objective. A path stops when none does: the directional
    derivative is piecewise linear in the direction, with kinks only at
    rotations about observations on the line, which certifies the line
    optimal. Each path's result is bit for bit the same in any block.

    Returns ``(alpha, beta)`` arrays; paths with a degenerate regressor
    yield NaN.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError("x and y must have identical shapes")
    n, T = x.shape
    w = exp_weights(T, lam)
    alpha, beta = np.full(n, np.nan), np.full(n, np.nan)

    ls = exp_weighted_moments(x, y, lam)
    live = np.flatnonzero(np.isfinite(ls.slope))
    if live.size < n:
        x, y = x[live], y[live]
    b_cur = ls.slope[live]
    a_cur = ls.mean_y[live] - b_cur * ls.mean_x[live]
    r = y - a_cur[:, None] - b_cur[:, None] * x
    dx = np.empty_like(x)
    anchor = prev = _quantile_pick(r, np.broadcast_to(w, r.shape), theta, T - 1)
    obj = np.full(live.size, np.inf)

    while live.size:
        nxt, a_new, b_new, obj_new = _rotate(x, y, w, theta, anchor, dx, r)
        better = obj_new < obj * (1.0 - 1e-15)
        stop = np.flatnonzero(~better)
        on = np.abs(r[stop] - b_cur[stop, None]) <= 1e-9 * np.abs(b_cur[stop, None])
        on[np.arange(stop.size), prev[stop]] = False   # the line is the best about prev
        k, pivot = np.nonzero(on)
        if k.size:
            _, first = np.unique(np.stack((k, x[stop[k], pivot])), axis=1, return_index=True)
            k, pivot = stop[k[first]], pivot[first]   # one per x: those on a line coincide
        # in slices no taller than the rotation above, skipping the paths
        # that an earlier slice already moved
        for s in range(0, k.size, live.size):
            ks, ps = k[s:s + live.size], pivot[s:s + live.size]
            ks, ps = ks[~better[ks]], ps[~better[ks]]
            got = _rotate(x[ks], y[ks], w, theta, ps, *np.empty((2, ks.size, T)))
            g = np.flatnonzero(got[3] < obj[ks] * (1.0 - 1e-15))
            g = g[np.unique(ks[g], return_index=True)[1]]   # each path's first
            nxt[ks[g]], a_new[ks[g]], b_new[ks[g]], obj_new[ks[g]] = (v[g] for v in got)
            anchor[ks[g]], better[ks[g]] = ps[g], True   # the new line's other observation
        done = ~better
        alpha[live[done]], beta[live[done]] = a_cur[done], b_cur[done]
        if done.any():
            keep = int(better.sum())
            live, x, y, dx, r = live[better], x[better], y[better], dx[:keep], r[:keep]
        a_cur, b_cur, obj, prev, anchor = (v[better] for v in (a_new, b_new, obj_new, anchor, nxt))
    return alpha, beta


def trimean(slope) -> np.ndarray:
    """Tukey's trimean 0.25 q25 + 0.5 q50 + 0.25 q75 of the quantile
    regression slopes ``slope(theta)``."""
    return 0.25 * slope(0.25) + 0.5 * slope(0.5) + 0.25 * slope(0.75)


def trimean_beta_batch(x: np.ndarray, y: np.ndarray,
                       lam: float = DEFAULT_LOOKBACK) -> np.ndarray:
    return trimean(lambda theta: quantile_beta_batch(x, y, theta, lam)[1])


# ---------------------------------------------------------------------------
# DCC / ADCC conditional beta

#: GARCH(1,1) dynamics coefficients for the symmetric model.
SYMMETRIC_GARCH_COEFFS = {"a": 0.099, "b": 0.89, "gamma": 0.0}
#: GJR-GARCH(1,1,1) dynamics coefficients for the asymmetric model.
ASYMMETRIC_GARCH_COEFFS = {"a": 0.0, "b": 0.901, "gamma": 0.171}
#: Correlation-process coefficients for the symmetric model.
SYMMETRIC_DCC_COEFFS = {"a_rho": 0.0079, "b_rho": 0.9261, "gamma_rho": 0.0}
#: Correlation-process coefficients for the asymmetric model.
ASYMMETRIC_DCC_COEFFS = {"a_rho": 0.0020, "b_rho": 0.9512, "gamma_rho": 0.0040}

_RHO_CLAMP = 0.999
#: filter passes a calibration may spend on one path
_MAX_PASSES = 100
#: a path stops once its next Newton step predicts a gain below this
#: fraction of its log-likelihood
_GAIN_TOL = 1e-13
#: the largest move of a Newton step in any coordinate
_MAX_STEP = 0.5


@dataclass(frozen=True)
class GarchParams:
    """Univariate conditional-variance dynamics and its unconditional level.

    ``unconditional_sigma`` may be an array (one level per path); the
    dynamics coefficients are always scalars.
    """

    a: float
    b: float
    gamma: float
    unconditional_sigma: np.ndarray | float

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.gamma) < 0.0:
            raise ValueError("GARCH coefficients must be non-negative")
        if self.a + self.b + self.gamma / 2.0 >= 1.0:
            raise ValueError("stationarity requires a + b + gamma/2 < 1")
        if not np.all(np.asarray(self.unconditional_sigma) > 0.0):
            raise ValueError("unconditional_sigma must be positive")


@dataclass(frozen=True)
class DccParams:
    """Correlation-process dynamics and the unconditional correlation."""

    a_rho: float
    b_rho: float
    gamma_rho: float
    rho_bar: np.ndarray | float

    def __post_init__(self) -> None:
        if min(self.a_rho, self.b_rho, self.gamma_rho) < 0.0:
            raise ValueError("correlation coefficients must be non-negative")
        # q_stock and q_index step with the constant 1 - a_rho - b_rho -
        # gamma_rho/2, which must be positive; q_cross's then is too
        if self.a_rho + self.b_rho + self.gamma_rho / 2.0 >= 1.0:
            raise ValueError("stationarity requires a_rho + b_rho + gamma_rho/2 < 1")
        rb = np.asarray(self.rho_bar)
        if not np.all((rb > -1.0) & (rb < 1.0)):
            raise ValueError("rho_bar must lie in (-1, 1)")


@dataclass(frozen=True)
class DccState:
    """Conditional vols, normalized (co)variance terms, correlation, beta."""

    sigma_stock: np.ndarray | float
    sigma_index: np.ndarray | float
    q_stock: np.ndarray | float
    q_index: np.ndarray | float
    q_cross: np.ndarray | float
    rho: np.ndarray | float
    beta: np.ndarray | float


def init_dcc_state(gp_stock: GarchParams, gp_index: GarchParams,
                   dp: DccParams, shape=()) -> DccState:
    """Start at the unconditional point: sigma at its long-run level and
    the normalized terms at (1, 1, rho_bar)."""
    ones = np.ones(shape) if shape else 1.0
    return DccState(
        sigma_stock=gp_stock.unconditional_sigma * ones,
        sigma_index=gp_index.unconditional_sigma * ones,
        q_stock=1.0 * ones,
        q_index=1.0 * ones,
        q_cross=dp.rho_bar * ones,
        rho=dp.rho_bar * ones,
        beta=dp.rho_bar * gp_stock.unconditional_sigma / gp_index.unconditional_sigma * ones,
    )


def dcc_step(state: DccState, r_stock, r_index,
             gp_stock: GarchParams, gp_index: GarchParams, dp: DccParams) -> DccState:
    """One (A)DCC update driven by realized returns.

    Shocks are the returns divided by yesterday's conditional vols. Both
    variances and the three normalized terms advance with yesterday's
    state and today's shocks; the correlation is the normalized cross
    term clamped into (-0.999, 0.999) and the conditional beta is
    ``rho * sigma_stock / sigma_index``. The asymmetry terms charge
    negative shocks, under which falling prices raise volatility. Each
    variance stays at least ``1 - a - b - gamma/2`` times its
    unconditional level and each normalized variance at least ``1 - a_rho
    - b_rho - gamma_rho/2``, factors that :class:`GarchParams` and
    :class:`DccParams` keep positive.
    """
    xi_s = np.asarray(r_stock, dtype=float) / state.sigma_stock
    xi_i = np.asarray(r_index, dtype=float) / state.sigma_index
    xm_s = np.where(xi_s < 0.0, xi_s, 0.0)
    xm_i = np.where(xi_i < 0.0, xi_i, 0.0)

    def _advance_var(sig_prev, xi, xm, gp: GarchParams):
        return (1.0 - gp.a - gp.b - gp.gamma / 2.0) * gp.unconditional_sigma ** 2 \
            + sig_prev * sig_prev * (gp.a * xi * xi + gp.b + gp.gamma * xm * xm)

    var_s = _advance_var(state.sigma_stock, xi_s, xm_s, gp_stock)
    var_i = _advance_var(state.sigma_index, xi_i, xm_i, gp_index)

    base = 1.0 - dp.a_rho - dp.b_rho - dp.gamma_rho / 2.0
    q_s = base + dp.a_rho * xi_s * xi_s + dp.b_rho * state.q_stock + dp.gamma_rho * xm_s * xm_s
    q_i = base + dp.a_rho * xi_i * xi_i + dp.b_rho * state.q_index + dp.gamma_rho * xm_i * xm_i
    q_c = (1.0 - dp.a_rho - dp.b_rho - dp.gamma_rho / 4.0) * dp.rho_bar \
        + dp.a_rho * xi_s * xi_i + dp.b_rho * state.q_cross + dp.gamma_rho * xm_s * xm_i

    rho = np.clip(q_c / np.sqrt(q_s * q_i), -_RHO_CLAMP, _RHO_CLAMP)
    sigma_s, sigma_i = np.sqrt(var_s), np.sqrt(var_i)
    return DccState(
        sigma_stock=sigma_s, sigma_index=sigma_i,
        q_stock=q_s, q_index=q_i, q_cross=q_c,
        rho=rho, beta=rho * sigma_s / sigma_i,
    )


def _dcc_filter(sigma_stock, sigma_index, rho_bar,
                r_stock: np.ndarray, r_index: np.ndarray,
                garch_coeffs: dict, dcc_coeffs: dict,
                lam: float, rows=None):
    """Run the (A)DCC filter of :func:`dcc_step` over a batch of paths,
    each at its own point ``(sigma_stock, sigma_index, rho_bar)``, three
    ``(n,)`` arrays. ``rows`` selects the ``n`` paths of the return
    arrays (all when None). Return the exponentially weighted Gaussian
    quasi log-likelihood of the filtered model, up to an additive
    constant, and the conditional beta after the last day, both ``(n,)``,
    then the exact score and Hessian of the likelihood in ``(log
    sigma_stock, log sigma_index, rho_bar)``, ``(3, n)`` and ``(3, 3, n)``,
    and each path's count of days on which the clamp holds the
    correlation, ``(n,)``.

    Since ``var_t * xi_t**2 == r_t**2``, the variance recursion is linear:
    ``var_t = U * A_t + B_t`` with ``U`` the unconditional variance, ``A_t``
    a scalar sequence and ``B_t`` a filter of the returns alone. The three
    normalized terms are AR(1) filters with the constant coefficient
    ``b_rho``, driven by the shocks. So only those filters (and ``B``)
    step day by day; the rest runs vectorised over blocks of days in a
    workspace reused from block to block. Day t adds ``-w_t/2 * (log(var_s
    var_i (1 - rho**2)) + (xi_s**2 - 2 rho xi_s xi_i + xi_i**2) / (1 -
    rho**2))``.

    The derivatives come from the same structure: ``d log var_t / d log
    sigma = 2 U A_t / var_t``. The first and second derivatives of the
    normalized terms in the two log vols follow the AR(1) recursion of
    the terms themselves, so they are nine more rows of its workspace.
    ``rho_bar`` enters ``q_cross`` linearly, through the scalar sequence
    ``K_t = d q_cross / d rho_bar`` with ``K_0 = 1`` and ``K_{t+1} = 1 -
    a_rho - b_rho - gamma_rho/4 + b_rho K_t``. Where the clamp holds the
    correlation, it has no derivative.
    """
    a, b, g = garch_coeffs["a"], garch_coeffs["b"], garch_coeffs["gamma"]
    ar, br, gr = dcc_coeffs["a_rho"], dcc_coeffs["b_rho"], dcc_coeffs["gamma_rho"]
    n, T = r_stock.shape
    if rows is None:
        rows = slice(None)
    else:
        n = rows.size
    sig_s = np.asarray(sigma_stock, dtype=float)
    sig_i = np.asarray(sigma_index, dtype=float)
    uncond = np.stack([sig_s * sig_s, sig_i * sig_i])
    rho0 = np.asarray(rho_bar, dtype=float)
    omega = 1.0 - a - b - g / 2.0
    base_q = 1.0 - ar - br - gr / 2.0
    base_qc = 1.0 - ar - br - gr / 4.0
    powers = b ** np.arange(T + 1.0)
    A = powers + omega * (1.0 - powers) / (1.0 - b)
    powers = br ** np.arange(T + 0.0)
    K = powers + base_qc * (1.0 - powers) / (1.0 - br)
    base_qc = base_qc * rho0
    weight = -0.5 * (1.0 - lam) ** np.arange(T - 1.0, -1.0, -1.0)

    L = block_rows(n, T)
    B = np.zeros((L + 1, 2, n))          # B_t of the block's days, then the carry
    V = np.empty((2, L, n))              # variances, then squared shocks
    E = np.empty((2, L, n))              # d log var / d log sigma
    P = np.empty((L, n))
    X = np.empty((L, n))                 # 2 xi_s xi_i
    rho = np.empty((L, n))
    one_m = np.empty((L, n))
    # q_s, q_i, q_c and their nine sensitivities (see _sensitivity_drives)
    # of the block's days, then the carry
    Q = np.zeros((L + 1, 12, n))
    Q[0, :2] = 1.0
    Q[0, 2] = rho0
    G = np.empty((10, L, n))             # each day's weighted terms
    total = np.zeros((10, n))
    clamped = np.zeros(n, dtype=np.int64)
    for t0 in range(0, T, L):
        m = min(L, T - t0)
        days = slice(t0, t0 + m)
        # B over the block's days: it needs the returns only
        r = np.stack([r_stock[rows, days].T, r_index[rows, days].T])
        r2 = r * r
        h = r < 0.0
        x = 2.0 * r[0] * r[1]
        np.multiply(np.where(h, a + g, a), r2, out=B[1:m + 1].transpose(1, 0, 2))
        ema_rows(B[:m + 1], b)

        # variances, shocks, and the drives of q written one day ahead
        v, e, q = V[:, :m], E[:, :m], Q[1:m + 1].transpose(1, 0, 2)
        np.multiply(A[None, days, None], uncond[:, None], out=v)
        np.multiply(v, 2.0, out=e)
        v += B[:m].transpose(1, 0, 2)
        np.multiply(v[0], v[1], out=P[:m])
        e /= v
        np.divide(r2, v, out=v)
        np.multiply(v, np.where(h, ar + gr, ar), out=q[:2])
        xx = X[:m]
        np.sqrt(P[:m], out=xx)
        np.divide(x, xx, out=xx)
        np.multiply(xx, np.where(h[0] & h[1], (ar + gr) / 2.0, ar / 2.0), out=q[2])
        _sensitivity_drives(q, e)
        q[:2] += base_q
        q[2] += base_qc
        ema_rows(Q[:m + 1], br)

        # each day's likelihood term, score and Hessian
        c = rho[:m]
        np.multiply(Q[:m, 0], Q[:m, 1], out=c)
        np.sqrt(c, out=c)
        R = 1.0 / c
        np.divide(Q[:m, 2], c, out=c)
        held = np.abs(c) >= _RHO_CLAMP
        clamped += np.count_nonzero(held, axis=0)
        np.clip(c, -_RHO_CLAMP, _RHO_CLAMP, out=c)
        om = one_m[:m]
        np.multiply(c, c, out=om)
        np.subtract(1.0, om, out=om)
        _derivative_terms(G[1:, :m], e, v, 0.5 * xx, c, om,
                          np.where(held, 0.0, R), np.where(held, 0.0, c),
                          Q[:m].transpose(1, 0, 2), K[days, None])
        lg = P[:m]
        lg *= om
        np.log(lg, out=lg)
        quad = G[0, :m]
        np.add(v[0], v[1], out=quad)
        xx *= c
        quad -= xx
        quad /= om
        quad += lg
        terms = G[:, :m]
        terms *= weight[days, None]
        for k in range(m):   # in day order, whatever the batch's shape
            total += terms[:, k]
        Q[0] = Q[m]
        B[0] = B[m]

    var = A[T] * uncond + B[0]
    c = np.clip(Q[0, 2] / np.sqrt(Q[0, 0] * Q[0, 1]), -_RHO_CLAMP, _RHO_CLAMP)
    beta = c * np.sqrt(var[0]) / np.sqrt(var[1])
    hs, hi, hr, hsi, hsr, hir = total[4:]
    hess = np.stack([hs, hsi, hsr, hsi, hi, hir, hsr, hir, hr]).reshape(3, 3, n)
    return total[0], beta, total[1:4], hess, clamped


def _sensitivity_drives(q, e):
    """Write the drives of the nine sensitivity rows of ``q`` (rows 3-11)
    from the drives ``alpha xi**2`` and ``kappa xi_s xi_i`` of rows 0-2,
    before their constants are added, and ``e = d log var / d log sigma``.

    Rows: ``dq_s/du_s, dq_i/du_i, dq_c/du_s, dq_c/du_i, d2q_s/du_s2,
    d2q_i/du_i2, d2q_c/du_s2, d2q_c/du_i2, d2q_c/du_s du_i`` with ``u``
    the log vols. ``d xi**2/du = -e xi**2`` and ``de/du = e (2 - e)``.
    """
    q[3:5] = -q[:2] * e
    q[5:7] = -0.5 * q[2] * e
    q[7:9] = -2.0 * q[3:5] * (e - 1.0)
    q[9:11] = -2.0 * q[5:7] * (0.75 * e - 1.0)
    q[11] = -0.5 * q[5] * e[1]


def _derivative_terms(out, e, sq, cc, rho, om, R, rho_free, q, K):
    """Write each day's unweighted score (rows 0-2) and Hessian (rows
    ``ss, ii, rr, si, sr, ir``) of ``f = log(var_s var_i (1 - rho**2))
    + (xi_s**2 - 2 rho xi_s xi_i + xi_i**2) / (1 - rho**2)`` in ``(u_s,
    u_i, rho_bar)``; the weights turn them into the likelihood's. ``sq``
    holds the squared shocks, ``cc = xi_s xi_i``, and ``R = 1/sqrt(q_s
    q_i)`` and ``rho_free`` are zero where the clamp holds rho."""
    q2, sens, cross, curv, cross2, cross_si = q[:2], q[3:5], q[5:7], q[7:9], q[9:11], q[11]
    # rho = q_c / sqrt(q_s q_i): its first and second derivatives
    s = sens / q2
    half = 0.5 * rho_free
    r1 = R * cross - half * s
    rr = R * K
    r2 = R * (cross2 - s * cross) + half * (1.5 * s * s - curv / q2)
    rsi = R * (cross_si - 0.5 * (s[1] * cross[0] + s[0] * cross[1])) + 0.5 * half * s[0] * s[1]
    # f's partial derivatives at fixed rho (j), in rho (p) and mixed
    inv = 1.0 / om
    rc = rho * cc
    k = (sq - rc) * inv
    kk = k[0] + k[1]        # the quadratic form over 1 - rho**2
    fj = e * (1.0 - k)
    fjj = 2.0 * fj + e * e * (2.0 * (sq - 0.75 * rc) * inv - 1.0)
    fsi = -0.5 * rc * e[0] * e[1] * inv
    fp = 2.0 * (rho * (kk - 1.0) - cc) * inv
    r2sq = rho * rho
    fpp = 2.0 * (kk * (1.0 + 3.0 * r2sq) - 1.0 - r2sq - 4.0 * rc) * inv * inv
    fjp = e * (cc - 2.0 * rho * k) * inv
    u = fjp + fpp * r1
    out[0:2] = fj + fp * r1
    out[2] = fp * rr
    out[3:5] = fjj + (fjp + u) * r1 + fp * r2
    out[5] = fpp * rr * rr
    out[6] = fsi + fjp[0] * r1[1] + u[1] * r1[0] + fp * rsi
    out[7:9] = rr * (u - 0.5 * fp * s)


@dataclass(frozen=True)
class DccCalibration:
    """Per-path result of :func:`dcc_calibrate`."""

    sigma_stock: np.ndarray | float
    sigma_index: np.ndarray | float
    rho_bar: np.ndarray | float
    loglik: np.ndarray | float
    beta: np.ndarray | float
    converged: np.ndarray | bool
    at_bound: np.ndarray | bool
    rho_clamped_days: np.ndarray | int
    evaluations: int


def _ascent_step(g, h):
    """Per path, the Newton step ``d`` solving ``-h d = g`` through a
    closed-form LDL' factorization of the 3x3 ``-h``, and the predicted
    gain ``g.d``. A pivot that is not positive is replaced by its
    magnitude (at least 1e-10 of the trace), so that ``d`` still ascends
    where ``h`` is not negative definite."""
    floor = 1e-10 * np.abs(h[0, 0] + h[1, 1] + h[2, 2])

    def pivot(value):
        return np.maximum(np.abs(value), floor)

    d0 = pivot(-h[0, 0])
    l10, l20 = -h[1, 0] / d0, -h[2, 0] / d0
    d1 = pivot(-h[1, 1] + l10 * h[1, 0])
    l21 = (-h[2, 1] + l20 * h[1, 0]) / d1
    d2 = pivot(-h[2, 2] + l20 * h[2, 0] - l21 * l21 * d1)
    y0 = g[0]
    y1 = g[1] - l10 * y0
    y2 = g[2] - l20 * y0 - l21 * y1
    x2 = y2 / d2
    x1 = y1 / d1 - l21 * x2
    x0 = y0 / d0 - l10 * x1 - l20 * x2
    step = np.stack([x0, x1, x2])
    step *= np.minimum(1.0, _MAX_STEP / np.max(np.abs(step), axis=0))
    return step, y0 * y0 / d0 + y1 * y1 / d1 + y2 * y2 / d2


def dcc_calibrate(r_stock: np.ndarray, r_index: np.ndarray,
                  garch_coeffs: dict, dcc_coeffs: dict,
                  lam: float = DEFAULT_LOOKBACK) -> DccCalibration:
    """Fit the three unconditional parameters by weighted quasi maximum
    likelihood, keeping the dynamics coefficients fixed.

    Newton ascent from moment-based initial guesses, on the exact score
    and Hessian of :func:`_dcc_filter`, under the box ``|rho_bar| <=
    0.999``. Each step moves ``rho_bar`` and the two vols, each vol
    relative to its current value: ``sigma * (1 + x)``, the Newton step
    in the vols themselves. A step that does not raise the likelihood is
    halved until one does. A path stops when the gain that its next full
    Newton step predicts falls to ``_GAIN_TOL`` of the likelihood
    (``converged``). A path whose ``rho_bar`` reaches the box while the
    score does not point back inside stops there, with ``at_bound`` set
    and ``converged`` not. Paths still stepping after ``_MAX_PASSES``
    passes are neither, and so is a path whose starting likelihood is not
    finite (a NaN return, say): it stops after that first pass, with beta
    NaN.

    Every pass prices the paths still stepping, and only those, at one
    point each, with the derivatives; ``evaluations`` counts those path
    passes, ``beta`` is the conditional beta after the last day at the
    returned point and ``rho_clamped_days`` the days on which the clamp
    holds its correlation. Every step is computed path by path, so a path
    calibrates to the same bits in any batch. The coefficient dicts must
    pass :class:`GarchParams` and :class:`DccParams` (``ValueError``
    otherwise).
    """
    GarchParams(unconditional_sigma=1.0, **garch_coeffs)
    DccParams(rho_bar=0.0, **dcc_coeffs)
    r_s = np.atleast_2d(np.asarray(r_stock, dtype=float))
    r_i = np.atleast_2d(np.asarray(r_index, dtype=float))
    if r_s.shape != r_i.shape:
        raise ValueError("return arrays must have identical shapes")
    n, T = r_s.shape
    if T < 100:
        raise ValueError("calibration needs at least 100 observations")
    guess = exp_weighted_moments(r_s, r_i, lam)
    sig_s = np.sqrt(np.maximum(guess.var_x, 1e-20))
    sig_i = np.sqrt(np.maximum(guess.var_y, 1e-20))
    rho = np.clip(guess.cov / (sig_s * sig_i), -0.95, 0.95)

    def evaluate(cs, ci, cr, rows=None):
        return _dcc_filter(cs, ci, cr, r_s, r_i, garch_coeffs, dcc_coeffs, lam, rows)

    loglik, beta, score, hess, clamped = evaluate(sig_s, sig_i, rho)
    evaluations = n
    beta[~np.isfinite(loglik)] = np.nan
    step = np.empty((3, n))
    gain = np.empty(n)
    scale = np.ones(n)
    converged = np.zeros(n, dtype=bool)
    at_bound = np.zeros(n, dtype=bool)

    def settle(idx):
        # a new point: its Newton step in (sigma_stock, sigma_index) relative
        # to the point, and rho_bar, and its stopping tests. With sigma =
        # s (1 + x), d2/dx2 = d2/du2 - d/du at x = 0 for u = log sigma
        h = hess[:, :, idx]
        h[[0, 1], [0, 1]] -= score[:2, idx]
        step[:, idx], gain[idx] = _ascent_step(score[:, idx], h)
        scale[idx] = 1.0
        at_bound[idx] = (np.abs(rho[idx]) == _RHO_CLAMP) & (score[2, idx] * rho[idx] >= 0.0)
        converged[idx] = (gain[idx] <= _GAIN_TOL * np.abs(loglik[idx])) & ~at_bound[idx]

    settle(np.arange(n))
    live = np.flatnonzero(~(converged | at_bound) & np.isfinite(loglik))
    for _ in range(_MAX_PASSES - 1):
        if live.size == 0:
            break
        d = step[:, live] * scale[live]
        cs = sig_s[live] * (1.0 + d[0])
        ci = sig_i[live] * (1.0 + d[1])
        cr = np.clip(rho[live] + d[2], -_RHO_CLAMP, _RHO_CLAMP)
        val, b_new, s_new, h_new, k_new = evaluate(cs, ci, cr, live)
        evaluations += live.size
        up = val > loglik[live]
        take = live[up]
        sig_s[take], sig_i[take], rho[take] = cs[up], ci[up], cr[up]
        loglik[take], beta[take], clamped[take] = val[up], b_new[up], k_new[up]
        score[:, take], hess[:, :, take] = s_new[:, up], h_new[:, :, up]
        settle(take)
        scale[live[~up]] *= 0.5
        live = live[~(converged[live] | at_bound[live])]

    return DccCalibration(
        sigma_stock=sig_s, sigma_index=sig_i, rho_bar=rho, loglik=loglik,
        beta=beta, converged=converged, at_bound=at_bound,
        rho_clamped_days=clamped, evaluations=evaluations,
    )


def dcc_beta_batch(r_stock: np.ndarray, r_index: np.ndarray,
                   asymmetric: bool = False,
                   lam: float = DEFAULT_LOOKBACK):
    """Calibrate the unconditional parameters and return the conditional
    beta at the final time at the fitted point, with the calibration and
    its per-path ``converged`` and ``at_bound`` flags."""
    gcoef = ASYMMETRIC_GARCH_COEFFS if asymmetric else SYMMETRIC_GARCH_COEFFS
    dcoef = ASYMMETRIC_DCC_COEFFS if asymmetric else SYMMETRIC_DCC_COEFFS
    cal = dcc_calibrate(r_stock, r_index, gcoef, dcoef, lam)
    return cal.beta, cal
