"""Measurement statistics: estimator error tables, hedge-quality metrics,
the closed-form selection bias and two calibration diagnostics.

Undefined quantities (empty subsets, degenerate variances, windows with
no dispersion) are reported as NaN markers together with the count of
skipped entries; they are never silently propagated into aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .params import DEFAULT_PARAMS
from .timeseries import _equal_weighted_moments, as_array, rolling_correlation

__all__ = [
    "NumericalFailure",
    "StatRow",
    "table2_stats",
    "HedgeReport",
    "strategy_bias_corstd",
    "SelectionBiasInputs",
    "SelectionBiasResult",
    "selection_bias",
    "inverse_erf",
    "RegressionFit",
    "calibrate_ell_diff",
    "ElasticityDiagnostic",
    "elasticity_diagnostic",
]


# ---------------------------------------------------------------------------
# estimator error statistics


class NumericalFailure(RuntimeError):
    """A computation produced no usable number from valid input, such as
    an estimator that is undefined on every path."""


@dataclass(frozen=True)
class StatRow:
    """One estimator's row of the benchmark table."""

    label: str
    n: int
    n_skipped: int
    bias: float
    bias_star: bool
    winner_bias: float
    winner_star: bool
    loser_bias: float
    loser_star: bool
    low_bias: float
    low_star: bool
    high_bias: float
    high_star: bool
    absd: float
    variance_ratio: float
    error_variance: float

    def to_dict(self) -> dict:
        def _clean(v):
            if isinstance(v, float) and math.isnan(v):
                return None
            return v
        return {k: _clean(v) for k, v in self.__dict__.items()}


def _subset_stats(errors: np.ndarray, mask: np.ndarray):
    sub = errors[mask]
    if sub.size == 0:
        return float("nan"), False
    mean = float(sub.mean())
    if sub.size < 2:
        return mean, False
    sem = float(sub.std(ddof=1) / np.sqrt(sub.size))
    if sem > 0.0:
        return mean, bool(abs(mean) > 3.0 * sem)
    return mean, bool(abs(mean) > 0.0)


def table2_stats(estimated_beta: np.ndarray, true_beta: np.ndarray, winner: np.ndarray,
                 low: np.ndarray, reference_variance: Optional[float] = None,
                 label: str = "") -> StatRow:
    """Bias family, absolute deviation and relative variance of a sample
    of per-path estimation errors: estimate and truth at the final time,
    with the winner (outperformed the index over the last month) and low
    (true beta below one) flags, one array each.

    ``bias`` is the mean error, the winner/loser and low/high biases are
    means over the flagged subsets, ``absd`` the mean absolute error, and
    the variance ratio divides ``reference_variance`` (conventionally the
    least-squares estimator's error variance on the same paths) by this
    estimator's error variance. A statistic earns a star when it exceeds
    three standard errors of its mean. Paths with an undefined estimate
    are skipped and counted; a sample without any valid path raises
    :class:`NumericalFailure`.
    """
    if estimated_beta.size == 0:
        raise ValueError("empty sample")

    valid = np.isfinite(estimated_beta) & np.isfinite(true_beta)
    n_skipped = int(np.count_nonzero(~valid))
    errors = estimated_beta[valid] - true_beta[valid]
    winner = winner[valid]
    low = low[valid]
    high = true_beta[valid] > 1.0

    if errors.size == 0:
        raise NumericalFailure("no valid paths in sample")

    bias, bias_star = _subset_stats(errors, np.ones(errors.size, dtype=bool))
    winner_bias, winner_star = _subset_stats(errors, winner)
    loser_bias, loser_star = _subset_stats(errors, ~winner)
    low_bias, low_star = _subset_stats(errors, low)
    high_bias, high_star = _subset_stats(errors, high)

    err_var = float(errors.var(ddof=1)) if errors.size > 1 else float("nan")
    if reference_variance is None or not err_var > 0.0:
        vratio = float("nan")
    else:
        vratio = float(reference_variance / err_var)

    return StatRow(
        label=label, n=int(errors.size), n_skipped=n_skipped,
        bias=bias, bias_star=bias_star,
        winner_bias=winner_bias, winner_star=winner_star,
        loser_bias=loser_bias, loser_star=loser_star,
        low_bias=low_bias, low_star=low_star,
        high_bias=high_bias, high_star=high_star,
        absd=float(np.abs(errors).mean()),
        variance_ratio=vratio,
        error_variance=err_var,
    )


# ---------------------------------------------------------------------------
# hedge quality

CORSTD_WINDOW = 90     # days in the rolling correlation whose dispersion is corstd


@dataclass(frozen=True)
class HedgeReport:
    bias: float
    corstd: float
    n_windows: int
    n_undefined_windows: int


def strategy_bias_corstd(strategy_returns, index_returns) -> HedgeReport:
    """Hedge-quality summary of a strategy against the index.

    ``bias`` is the full-sample correlation between the two return
    series; ``corstd`` is the standard deviation of their trailing
    ``CORSTD_WINDOW``-day rolling correlation. A constant strategy has a
    NaN bias; rolling windows in which either series is constant are
    skipped and counted. A well-hedged strategy has a bias near zero and
    a corstd near the pure-noise level ``1/sqrt(CORSTD_WINDOW)``.
    """
    s = as_array(strategy_returns)
    i = as_array(index_returns)
    if s.size <= CORSTD_WINDOW:
        raise ValueError(f"need more than {CORSTD_WINDOW} observations")
    roll = rolling_correlation(s, i, CORSTD_WINDOW)
    bias = _equal_weighted_moments(s, i).correlation
    defined = np.isfinite(roll)
    n_undef = int(np.count_nonzero(~defined))
    corstd = float(np.std(roll[defined], ddof=1)) if defined.sum() > 1 else float("nan")
    return HedgeReport(bias=bias, corstd=corstd,
                       n_windows=int(roll.size), n_undefined_windows=n_undef)


# ---------------------------------------------------------------------------
# closed-form selection bias


def inverse_erf(y: float) -> float:
    """Inverse error function on (-1, 1), from the standard normal
    quantile: ``erf(x) = 2 Phi(x sqrt(2)) - 1``."""
    y = float(y)
    if not -1.0 < y < 1.0:
        raise ValueError(f"inverse_erf argument must lie in (-1, 1), got {y}")
    import statistics   # here, as it costs every command's start-up a few ms
    return statistics.NormalDist().inv_cdf((1.0 + y) / 2.0) / math.sqrt(2.0)


@dataclass(frozen=True)
class SelectionBiasInputs:
    """Inputs of the closed-form selection-bias estimate.

    ``sigma_eta`` (the beta measurement-error std) may be given directly
    or left to its default, ``vol_ratio * sqrt(lambda_beta)``.
    """

    sigma_beta: float = 0.43
    p: float = 0.30
    sigma_index: float = 0.1977
    vol_ratio: float = 1.53
    lambda_beta: float = DEFAULT_PARAMS.lambda_beta
    factor_vol: float = 0.0346
    sigma_eta: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 0.5:
            raise ValueError("p must lie in (0, 0.5)")
        for name in ("sigma_beta", "sigma_index", "vol_ratio", "lambda_beta", "factor_vol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.sigma_eta is not None and not self.sigma_eta > 0.0:
            raise ValueError("sigma_eta must be positive")

    @property
    def eta_std(self) -> float:
        if self.sigma_eta is not None:
            return self.sigma_eta
        return self.vol_ratio * math.sqrt(self.lambda_beta)


@dataclass(frozen=True)
class SelectionBiasResult:
    B: float
    beta_low_factor: float
    rho_low_factor: float
    sigma_eta: float
    q: float


def selection_bias(inputs: SelectionBiasInputs,
                   exact: bool = False) -> SelectionBiasResult:
    """Expected beta of a factor built long/short on measured-beta ranks.

    Stocks selected into the bottom measured-beta quantile have, on
    average, a negative measurement error; hedging with their measured
    betas therefore leaves the factor short the index. ``B`` is the mean
    true-minus-measured beta over the bottom quantile, the factor beta is
    ``-B/2``, and the implied factor/index correlation magnitude scales
    it by ``sigma_index / factor_vol``.

    The default form places the selection threshold at the quantile of
    the true-beta spread alone, matching the published display. With
    ``exact=True`` the threshold sits at the quantile of the measured
    beta (std ``sqrt(sigma_beta**2 + sigma_eta**2)``), which is the exact
    conditional expectation for bottom-quantile selection and the value a
    brute-force simulation converges to; the two differ by a factor
    ``exp(-q**2 * (1 - sigma_beta**2 / (sigma_beta**2 + sigma_eta**2)))``
    relative to each other (about 1.7 percent at the default inputs).
    """
    s_eta = inputs.eta_std
    s_beta = inputs.sigma_beta
    q = inverse_erf(2.0 * inputs.p - 1.0)
    ratio_be = s_beta / s_eta
    prefactor = (s_eta / (inputs.p * math.sqrt(2.0 * math.pi))) \
        / math.sqrt(1.0 + ratio_be * ratio_be)
    if exact:
        B = prefactor * math.exp(-q * q)
    else:
        ratio_eb = s_eta / s_beta
        B = prefactor * math.exp(-q * q / (1.0 + ratio_eb * ratio_eb))
    beta_low = -0.5 * B
    rho_low = abs(beta_low) * inputs.sigma_index / inputs.factor_vol
    return SelectionBiasResult(B=B, beta_low_factor=beta_low,
                               rho_low_factor=rho_low, sigma_eta=s_eta, q=q)


# ---------------------------------------------------------------------------
# leverage-gap calibration regression


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    stderr: float
    tstat: float
    r2: float
    n: int

    @property
    def ell_diff(self) -> float:
        """Implied leverage-intensity difference (half the slope)."""
        return self.slope / 2.0


def calibrate_ell_diff(correlation_index, leverage_factor) -> RegressionFit:
    """Regress daily variations of the mean-rescaled correlation index on
    daily variations of the leverage factor.

    The recovered slope estimates twice the difference between the index
    and single-stock leverage intensities.
    """
    rho = as_array(correlation_index)
    lev = as_array(leverage_factor)
    if rho.size != lev.size:
        raise ValueError("series must have equal length")
    if rho.size < 30:
        raise ValueError("need at least 30 observations to calibrate")
    mean_rho = rho.mean()
    if mean_rho == 0.0:
        raise ValueError("correlation index has zero mean")

    y = np.diff(rho / mean_rho)
    x = np.diff(lev)
    n = x.size
    line = _equal_weighted_moments(x, y)
    slope = line.slope
    if math.isnan(slope):
        raise ValueError("leverage factor has zero variance")
    intercept = line.mean_y - slope * line.mean_x
    resid = (y - line.mean_y) - slope * (x - line.mean_x)
    rss = float(resid @ resid)
    stderr = math.sqrt(rss / (n - 2) / (n * line.var_x))
    r2 = line.correlation ** 2
    tstat = slope / stderr if stderr > 0.0 else float("inf")
    return RegressionFit(slope=slope, intercept=intercept, stderr=stderr,
                         tstat=tstat, r2=r2, n=n)


# ---------------------------------------------------------------------------
# beta-elasticity diagnostic


@dataclass(frozen=True)
class ElasticityDiagnostic:
    """Bucketed local slopes of beta against log squared relative
    volatility, plus two pooled regression slopes."""

    bucket_beta: np.ndarray
    bucket_slope: np.ndarray
    bucket_count: np.ndarray
    n_buckets_skipped: int
    global_slope: float
    relvol_slope: Optional[float]


def elasticity_diagnostic(beta_panel, relvol_panel, bucket_size: int = 10_000,
                          index_vol=None) -> ElasticityDiagnostic:
    """Estimate the beta-elasticity curve from panels of measured betas
    and relative volatilities.

    Both panels are (time x stock) arrays. Each stock's series is
    demeaned over time; the pooled points are sorted by raw measured beta
    and grouped into successive buckets of ``bucket_size`` points. In
    every bucket the local slope of demeaned beta against demeaned
    ``2 * ln(relvol)`` estimates the elasticity at that beta level.
    Buckets with a degenerate regressor are skipped and counted.

    With ``index_vol`` (one value per day) the pooled slope of relative
    daily stock-volatility changes against index-volatility changes is
    reported as well.
    """
    beta = np.atleast_2d(np.asarray(beta_panel, dtype=float))
    relvol = np.atleast_2d(np.asarray(relvol_panel, dtype=float))
    if beta.shape != relvol.shape:
        raise ValueError("panels must have identical shapes")
    if bucket_size < 2:
        raise ValueError("bucket_size must be >= 2")

    with np.errstate(invalid="ignore", divide="ignore"):
        logrel = np.where(relvol > 0.0, np.log(relvol), np.nan)
    valid = np.isfinite(beta) & np.isfinite(logrel)

    def _demean(panel, ok):
        counts = ok.sum(axis=0)
        sums = np.where(ok, panel, 0.0).sum(axis=0)
        means = np.divide(sums, counts, out=np.full(counts.shape, np.nan, dtype=float),
                          where=counts > 0)
        return panel - means[None, :]

    beta_d = _demean(beta, valid)
    x_d = 2.0 * _demean(logrel, valid)

    raw = beta[valid]
    yb = beta_d[valid]
    xb = x_d[valid]
    if raw.size < 2:
        raise ValueError("not enough valid panel points")

    order = np.argsort(raw, kind="stable")
    raw, yb, xb = raw[order], yb[order], xb[order]

    n_buckets = max(1, raw.size // bucket_size)
    bucket_beta, bucket_slope, bucket_count = [], [], []
    skipped = 0
    for k in range(n_buckets):
        lo = k * bucket_size
        hi = raw.size if k == n_buckets - 1 else (k + 1) * bucket_size
        slope = _equal_weighted_moments(xb[lo:hi], yb[lo:hi]).slope
        if math.isnan(slope):
            skipped += 1
            continue
        bucket_beta.append(float(raw[lo:hi].mean()))
        bucket_slope.append(slope)
        bucket_count.append(hi - lo)

    # global slope is quoted against single (not doubled) log relvol
    global_slope = 2.0 * _equal_weighted_moments(xb, yb).slope

    relvol_slope = None
    if index_vol is not None:
        iv = as_array(index_vol)
        if iv.size != beta.shape[0]:
            raise ValueError("index_vol length must match the panel's time axis")
        sig = relvol * iv[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            ds = np.diff(sig, axis=0) / sig[:-1]
            di = np.broadcast_to((np.diff(iv) / iv[:-1])[:, None], ds.shape)
        ok = np.isfinite(ds) & np.isfinite(di)
        xs, ys = di[ok], ds[ok]
        if xs.size >= 2:
            slope = _equal_weighted_moments(xs, ys).slope
            relvol_slope = None if math.isnan(slope) else slope

    return ElasticityDiagnostic(
        bucket_beta=np.array(bucket_beta),
        bucket_slope=np.array(bucket_slope),
        bucket_count=np.array(bucket_count, dtype=int),
        n_buckets_skipped=skipped,
        global_slope=global_slope,
        relvol_slope=relvol_slope,
    )
