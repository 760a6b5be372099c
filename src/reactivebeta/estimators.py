"""Rival beta estimators: weighted least squares, quantile regressions
and (A)DCC conditional betas.

Every estimator weighs observations by ``(1 - lam)**(T - t)`` so that all
methods share the same effective look-back. Batch variants operate on
arrays of shape ``(n_paths, T)`` and vectorize across paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import DEFAULT_PARAMS
from .timeseries import as_array, exp_weights

__all__ = [
    "WeightedRegressionProblem",
    "ols_beta",
    "ols_beta_batch",
    "quantile_beta",
    "quantile_beta_batch",
    "quantile_objective",
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


@dataclass(frozen=True)
class WeightedRegressionProblem:
    """Index returns ``x``, stock returns ``y`` and the decay ``lam``."""

    x: np.ndarray
    y: np.ndarray
    lam: float = DEFAULT_LOOKBACK

    def __post_init__(self) -> None:
        x = as_array(self.x)
        y = as_array(self.y)
        if x.size != y.size:
            raise ValueError("x and y must have equal length")
        if x.size < 2:
            raise ValueError("need at least two observations")
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"lam must lie in (0, 1), got {self.lam}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


# ---------------------------------------------------------------------------
# least squares


def ols_beta(problem: WeightedRegressionProblem) -> float:
    """Exponentially weighted least-squares slope of a single problem; see
    the batch variant."""
    return float(ols_beta_batch(problem.x, problem.y, problem.lam))


def _weighted_sums(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    # row by row rather than through BLAS, whose blocking would make a
    # path's sums depend on the other paths solved with it
    return np.einsum("...j,j->...", a, w)


def ols_beta_batch(x: np.ndarray, y: np.ndarray,
                   lam: float = DEFAULT_LOOKBACK) -> np.ndarray:
    """Weighted least-squares slopes with an intercept along the last axis:
    weighted cov(x, y) / var(x). A zero-variance regressor yields NaN."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = exp_weights(x.shape[-1], lam)
    mean_x = _weighted_sums(x, w)
    x = x - mean_x[..., None]
    y = y - _weighted_sums(y, w)[..., None]
    var = _weighted_sums(x * x, w)
    with np.errstate(invalid="ignore", divide="ignore"):
        beta = _weighted_sums(x * y, w) / var
    # a constant regressor keeps a variance of the mean's rounding error
    return np.where(var > 1e-30 * mean_x * mean_x, beta, np.nan)


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
    ``i`` and at ``1 - theta`` for those left of it. The line then pivots:
    the other observation it passes through becomes the anchor. A path
    stops when its objective no longer strictly falls (relative 1e-15);
    then rotating the line about either of its two observations does not
    descend, which certifies it optimal. Each path's result is bit for
    bit the same whichever block it is solved in.

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

    mx = _weighted_sums(x, w)
    dx = x - mx[:, None]
    var = np.einsum("ij,ij,j->i", dx, dx, w)
    live = np.flatnonzero(var > 1e-30 * np.maximum(np.einsum("ij,ij,j->i", x, x, w), 1e-300))
    if live.size < n:
        x, y, dx = x[live], y[live], dx[live]
    b_cur = np.einsum("ij,ij,j->i", dx, y, w) / var[live]
    a_cur = _weighted_sums(y, w) - b_cur * mx[live]
    r = y - a_cur[:, None] - b_cur[:, None] * x
    anchor = _quantile_pick(r, np.broadcast_to(w, r.shape), theta, T - 1)
    obj = np.full(live.size, np.inf)

    while live.size:
        rows = np.arange(live.size)
        xa, ya = x[rows, anchor], y[rows, anchor]
        np.subtract(x, xa[:, None], out=dx)
        np.subtract(y, ya[:, None], out=r)
        tie = dx == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            r /= dx
        r[tie] = np.nan  # ties in x carry no mass and sort last
        # the slope quantile must reach sum(m) / 2 + (theta - 1/2) sum(w dx)
        lean = (theta - 0.5) * _weighted_sums(dx, w)
        np.abs(dx, out=dx)
        dx *= w
        nxt = _quantile_pick(r, dx, 0.5 * dx.sum(axis=1) + lean, T - 1 - tie.sum(axis=1))
        b_new = r[rows, nxt]
        a_new = ya - b_new * xa

        # pinball loss theta r^+ + (1 - theta) r^- as |r| / 2 + (theta - 1/2) r
        np.multiply(x, b_new[:, None], out=r)
        np.subtract(y, r, out=r)
        r -= a_new[:, None]
        obj_new = (theta - 0.5) * _weighted_sums(r, w)
        obj_new += 0.5 * _weighted_sums(np.abs(r, out=r), w)

        better = obj_new < obj * (1.0 - 1e-15)
        done = ~better
        alpha[live[done]], beta[live[done]] = a_cur[done], b_cur[done]
        if done.any():
            keep = int(better.sum())
            live, x, y, dx, r = live[better], x[better], y[better], dx[:keep], r[:keep]
        a_cur, b_cur, obj, anchor = a_new[better], b_new[better], obj_new[better], nxt[better]
    return alpha, beta


def quantile_beta(problem: WeightedRegressionProblem, theta: float):
    """Weighted quantile regression of a single problem; see the batch
    variant for the solver contract."""
    alpha, beta = quantile_beta_batch(problem.x[None, :], problem.y[None, :],
                                      theta, problem.lam)
    return float(alpha[0]), float(beta[0])


def trimean_beta_batch(x: np.ndarray, y: np.ndarray,
                       lam: float = DEFAULT_LOOKBACK) -> np.ndarray:
    b25 = quantile_beta_batch(x, y, 0.25, lam)[1]
    b50 = quantile_beta_batch(x, y, 0.50, lam)[1]
    b75 = quantile_beta_batch(x, y, 0.75, lam)[1]
    return 0.25 * b25 + 0.5 * b50 + 0.25 * b75


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

_SIGMA_FLOOR_FRACTION = 1e-12
_RHO_CLAMP = 0.999
#: days the (A)DCC filter advances per vectorised block; its workspace
#: holds about ten arrays of (block days, parameter points, paths)
_BLOCK_DAYS = 8
#: compass-search sweeps per calibration, six evaluations per path each
_MAX_SWEEPS = 10_000 // 6


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
        if self.a_rho + self.b_rho + self.gamma_rho / 4.0 >= 1.0:
            raise ValueError("stationarity requires a_rho + b_rho + gamma_rho/4 < 1")
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
    floored: np.ndarray | bool = False


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
        floored=np.zeros(shape, dtype=bool) if shape else False,
    )


def dcc_step(state: DccState, r_stock, r_index,
             gp_stock: GarchParams, gp_index: GarchParams, dp: DccParams) -> DccState:
    """One (A)DCC update driven by realized returns.

    Shocks are the returns divided by yesterday's conditional vols. Both
    variances and the three normalized terms advance with yesterday's
    state and today's shocks; the correlation is the normalized cross
    term clamped into (-0.999, 0.999) and the conditional beta is
    ``rho * sigma_stock / sigma_index``. The asymmetry terms charge
    negative shocks, under which falling prices raise volatility.
    """
    xi_s = np.asarray(r_stock, dtype=float) / state.sigma_stock
    xi_i = np.asarray(r_index, dtype=float) / state.sigma_index
    xm_s = np.where(xi_s < 0.0, xi_s, 0.0)
    xm_i = np.where(xi_i < 0.0, xi_i, 0.0)

    def _advance_var(sig_prev, xi, xm, gp: GarchParams):
        var_prev = sig_prev * sig_prev
        var = (1.0 - gp.a - gp.b - gp.gamma / 2.0) * gp.unconditional_sigma ** 2 \
            + var_prev * (gp.a * xi * xi + gp.b + gp.gamma * xm * xm)
        floor = _SIGMA_FLOOR_FRACTION * gp.unconditional_sigma ** 2
        return np.maximum(var, floor), var < floor

    var_s, fl_s = _advance_var(state.sigma_stock, xi_s, xm_s, gp_stock)
    var_i, fl_i = _advance_var(state.sigma_index, xi_i, xm_i, gp_index)

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
        floored=state.floored | fl_s | fl_i,
    )


def _dcc_filter(sigma_stock, sigma_index, rho_bar,
                r_stock: np.ndarray, r_index: np.ndarray,
                garch_coeffs: dict, dcc_coeffs: dict,
                lam: float, rows=None):
    """Run the (A)DCC filter of :func:`dcc_step` over every parameter
    point and path at once; return the exponentially weighted Gaussian
    quasi log-likelihood of the filtered model, up to an additive
    constant, and the conditional beta after the last day, both shaped
    like the parameters broadcast against the paths. ``rows``
    selects the paths of the ``(n, T)`` return arrays (all when None).

    Since ``var_t * xi_t**2 == r_t**2``, the variance recursion is linear:
    ``var_t = U * A_t + B_t`` with ``U`` the unconditional variance, ``A_t``
    a scalar sequence and ``B_t`` a filter of the returns alone. As
    ``var_t >= (1 - a - b - gamma/2) * U``, the variance floor of
    :func:`dcc_step` never binds once that factor exceeds the floor
    fraction, which is checked here. The three normalized terms are AR(1)
    filters with the constant coefficient ``b_rho``, driven by the
    shocks. So only those filters (and ``B``) step day by day; the rest
    runs vectorised over blocks of ``_BLOCK_DAYS`` days in a workspace
    reused from block to block. Day t adds
    ``-w_t/2 * (log(var_s var_i (1 - rho**2))
    + (xi_s**2 - 2 rho xi_s xi_i + xi_i**2) / (1 - rho**2))``.
    """
    a, b, g = garch_coeffs["a"], garch_coeffs["b"], garch_coeffs["gamma"]
    omega = 1.0 - a - b - g / 2.0
    if omega <= _SIGMA_FLOOR_FRACTION:
        raise ValueError("the variance filter needs 1 - a - b - gamma/2 "
                         f"above {_SIGMA_FLOOR_FRACTION}, got {omega}")
    ar, br, gr = dcc_coeffs["a_rho"], dcc_coeffs["b_rho"], dcc_coeffs["gamma_rho"]
    n, T = r_stock.shape
    if rows is None:
        rows = slice(None)
    else:
        n = rows.size
    sig_s = np.asarray(sigma_stock, dtype=float)
    sig_i = np.asarray(sigma_index, dtype=float)
    rho0 = np.asarray(rho_bar, dtype=float)
    shape = np.broadcast_shapes(sig_s.shape, sig_i.shape, rho0.shape, (n,))
    points = (-1, shape[-1])   # (parameter points, paths)
    uncond = np.stack([np.broadcast_to(sig_s * sig_s, shape).reshape(points),
                       np.broadcast_to(sig_i * sig_i, shape).reshape(points)])
    rho0 = np.broadcast_to(rho0, shape).reshape(points)
    base_q = 1.0 - ar - br - gr / 2.0
    base_qc = (1.0 - ar - br - gr / 4.0) * rho0
    powers = b ** np.arange(T + 1.0)
    A = powers + omega * (1.0 - powers) / (1.0 - b)
    weight = -0.5 * (1.0 - lam) ** np.arange(T - 1.0, -1.0, -1.0)

    L = min(_BLOCK_DAYS, T)
    C, p = uncond.shape[1:]
    B = np.zeros((L + 1, 2, n))          # B_t of the block's days, then the carry
    step_b = np.empty((2, n))
    V = np.empty((2, L, C, p))           # variances, then squared shocks
    P = np.empty((L, C, p))
    X = np.empty((L, C, p))              # 2 xi_s xi_i
    rho = np.empty((L, C, p))
    one_m = np.empty((L, C, p))
    Q = np.empty((L + 1, 3, C, p))       # q of the block's days, then the carry
    Q[0, :2] = 1.0
    Q[0, 2] = rho0
    step_q = np.empty((3, C, p))
    total = np.zeros((C, p))
    for t0 in range(0, T, L):
        m = min(L, T - t0)
        days = slice(t0, t0 + m)
        # B over the block's days: it needs the returns only
        r = np.stack([r_stock[rows, days].T, r_index[rows, days].T])
        r2 = r * r
        h = r < 0.0
        x = 2.0 * r[0] * r[1]
        np.multiply(np.where(h, a + g, a), r2, out=B[1:m + 1].transpose(1, 0, 2))
        for k in range(1, m + 1):
            np.multiply(B[k - 1], b, out=step_b)
            B[k] += step_b

        # variances, shocks, and the drives of q written one day ahead
        v, q = V[:, :m], Q[1:m + 1].transpose(1, 0, 2, 3)
        np.multiply(A[None, days, None, None], uncond[:, None], out=v)
        v += B[:m, :, None, :].transpose(1, 0, 2, 3)
        np.multiply(v[0], v[1], out=P[:m])
        np.divide(r2[:, :, None, :], v, out=v)
        np.multiply(v, np.where(h, ar + gr, ar)[:, :, None, :], out=q[:2])
        q[:2] += base_q
        xx = X[:m]
        np.sqrt(P[:m], out=xx)
        np.divide(x[:, None, :], xx, out=xx)
        np.multiply(xx, np.where(h[0] & h[1], (ar + gr) / 2.0, ar / 2.0)[:, None, :],
                    out=q[2])
        q[2] += base_qc
        for k in range(1, m + 1):
            np.multiply(Q[k - 1], br, out=step_q)
            Q[k] += step_q

        # each day's likelihood term
        c = rho[:m]
        np.multiply(Q[:m, 0], Q[:m, 1], out=c)
        np.sqrt(c, out=c)
        np.divide(Q[:m, 2], c, out=c)
        np.clip(c, -_RHO_CLAMP, _RHO_CLAMP, out=c)
        om = one_m[:m]
        np.multiply(c, c, out=om)
        np.subtract(1.0, om, out=om)
        lg = P[:m]
        lg *= om
        np.log(lg, out=lg)
        quad = v[0]
        quad += v[1]
        xx *= c
        quad -= xx
        quad /= om
        quad += lg
        quad *= weight[days, None, None]
        for k in range(m):   # in day order, whatever the batch's shape
            total += quad[k]
        Q[0] = Q[m]
        B[0] = B[m]

    var = A[T] * uncond + B[0, :, None, :]
    c = np.clip(Q[0, 2] / np.sqrt(Q[0, 0] * Q[0, 1]), -_RHO_CLAMP, _RHO_CLAMP)
    beta = c * np.sqrt(var[0]) / np.sqrt(var[1])
    return total.reshape(shape), beta.reshape(shape)


@dataclass(frozen=True)
class DccCalibration:
    sigma_stock: np.ndarray | float
    sigma_index: np.ndarray | float
    rho_bar: np.ndarray | float
    loglik: np.ndarray | float
    converged: np.ndarray | bool
    evaluations: int


def dcc_calibrate(r_stock: np.ndarray, r_index: np.ndarray,
                  garch_coeffs: dict, dcc_coeffs: dict,
                  lam: float = DEFAULT_LOOKBACK) -> DccCalibration:
    """Fit the three unconditional parameters by weighted quasi maximum
    likelihood, keeping the dynamics coefficients fixed.

    Runs a derivative-free compass search (one coordinate moves per
    accepted step) from moment-based initial guesses, with multiplicative
    steps for the two vols and additive steps for the correlation, under
    box constraints ``sigma > 0`` and ``|rho| < 0.999``. Paths whose step
    sizes did not shrink below tolerance within ``_MAX_SWEEPS`` sweeps are
    flagged unconverged and carry the best point found.

    Each sweep prices the six candidate points of the paths still
    searching, and only those, in one pass of :func:`_dcc_filter`;
    ``evaluations`` counts the points priced. Every step is computed path
    by path, so a path calibrates to the same bits in any batch. The
    filter's closed-form variance needs ``1 - a - b - gamma/2`` above the
    variance floor fraction (``ValueError`` otherwise), and then the
    variance floor never binds.
    """
    r_s = np.atleast_2d(np.asarray(r_stock, dtype=float))
    r_i = np.atleast_2d(np.asarray(r_index, dtype=float))
    if r_s.shape != r_i.shape:
        raise ValueError("return arrays must have identical shapes")
    n, T = r_s.shape
    if T < 100:
        raise ValueError("calibration needs at least 100 observations")
    w = exp_weights(T, lam)

    d_s = r_s - _weighted_sums(r_s, w)[:, None]
    d_i = r_i - _weighted_sums(r_i, w)[:, None]
    sig_s = np.sqrt(np.maximum(np.einsum("ij,ij,j->i", d_s, d_s, w), 1e-20))
    sig_i = np.sqrt(np.maximum(np.einsum("ij,ij,j->i", d_i, d_i, w), 1e-20))
    rho = np.clip(np.einsum("ij,ij,j->i", d_s, d_i, w) / (sig_s * sig_i), -0.95, 0.95)
    del d_s, d_i

    def objective(cs, ci, cr, rows=None):
        return _dcc_filter(cs, ci, cr, r_s, r_i, garch_coeffs, dcc_coeffs,
                           lam, rows)[0]

    best = objective(sig_s, sig_i, rho)
    evaluations = n

    step_sig = np.full(n, 1.30)   # multiplicative
    step_rho = np.full(n, 0.15)   # additive
    tol_sig, tol_rho = 1.0 + 1e-4, 1e-4
    for _ in range(_MAX_SWEEPS):
        act = np.flatnonzero((step_sig > tol_sig) | (step_rho > tol_rho))
        if act.size == 0:
            break
        s, i, r = sig_s[act], sig_i[act], rho[act]
        st_s, st_r = step_sig[act], step_rho[act]
        cand_s = np.stack([s * st_s, s / st_s, s, s, s, s])
        cand_i = np.stack([i, i, i * st_s, i / st_s, i, i])
        cand_r = np.stack([r, r, r, r,
                           np.clip(r + st_r, -_RHO_CLAMP, _RHO_CLAMP),
                           np.clip(r - st_r, -_RHO_CLAMP, _RHO_CLAMP)])
        vals = objective(cand_s, cand_i, cand_r, act)
        evaluations += cand_s.size
        pick = np.argmax(vals, axis=0), np.arange(act.size)
        val_best = vals[pick]
        improved = val_best > best[act] + 1e-12 * np.abs(best[act])
        take = act[improved]
        sig_s[take] = cand_s[pick][improved]
        sig_i[take] = cand_i[pick][improved]
        rho[take] = cand_r[pick][improved]
        best[take] = val_best[improved]
        shrink = act[~improved]
        step_sig[shrink] = 1.0 + (step_sig[shrink] - 1.0) * 0.5
        step_rho[shrink] *= 0.5

    converged = (step_sig <= tol_sig) & (step_rho <= tol_rho)
    return DccCalibration(
        sigma_stock=sig_s, sigma_index=sig_i, rho_bar=rho,
        loglik=best, converged=converged, evaluations=evaluations,
    )


def dcc_beta_batch(r_stock: np.ndarray, r_index: np.ndarray,
                   asymmetric: bool = False,
                   lam: float = DEFAULT_LOOKBACK):
    """Calibrate the unconditional parameters, filter the whole path and
    return the conditional beta at the final time, with a per-path
    convergence flag."""
    r_s = np.atleast_2d(np.asarray(r_stock, dtype=float))
    r_i = np.atleast_2d(np.asarray(r_index, dtype=float))
    gcoef = ASYMMETRIC_GARCH_COEFFS if asymmetric else SYMMETRIC_GARCH_COEFFS
    dcoef = ASYMMETRIC_DCC_COEFFS if asymmetric else SYMMETRIC_DCC_COEFFS
    cal = dcc_calibrate(r_s, r_i, gcoef, dcoef, lam)
    _, beta = _dcc_filter(cal.sigma_stock, cal.sigma_index, cal.rho_bar,
                          r_s, r_i, gcoef, dcoef, lam)
    return beta, cal
