"""Fixed model constants shared by the level, volatility and beta recursions."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ReactiveParams:
    """Constants of the leverage-aware beta model.

    The defaults are the calibrated values used throughout the package:
    two level EMAs (a slow one tracking the retarded single-stock effect,
    a fast one tracking the index panic effect), the leverage intensities
    for index and single stocks, the outlier filter strength, and the
    knot, slope and cap of the piecewise-linear beta elasticity.

    Attributes
    ----------
    lambda_s : float
        Weight of the slow price-level EMA (relaxation ~40 trading days).
    lambda_f : float
        Weight of the fast price-level EMA (relaxation ~7 trading days).
    lambda_sigma : float
        Weight of the normalized-variance EMAs (~2 months of memory).
    lambda_beta : float
        Weight of the regression EMAs, i.e. the beta look-back (90 days).
    ell : float
        Leverage intensity of the fast (panic) term for the stock index.
    ell_prime : float
        Leverage intensity of the fast term for single stocks.
    phi : float
        Strength of the tanh outlier filter applied to level gaps.
        ``phi == 0`` disables the filter.
    elasticity_lo, elasticity_slope, elasticity_cap : float
        Knot, slope and plateau of the piecewise-linear beta elasticity.
        The elasticity is zero below ``elasticity_lo``, rises with
        ``elasticity_slope`` and saturates at ``elasticity_cap`` from
        ``elasticity_lo + elasticity_cap / elasticity_slope`` on (1.5 by
        default); it is continuous everywhere.
    hat_normalize : bool
        Divide regression inputs by the trailing normalized index
        volatility. Disabling it (together with ``lambda_s = lambda_f = 1``,
        ``ell = ell_prime = 0`` and ``elasticity_slope = 0``) makes the
        estimator coincide with a plain exponentially weighted
        least-squares slope on raw returns.
    burn_in : int
        Number of leading observations excluded from downstream panel
        statistics while the slow EMAs forget their seed.
    """

    lambda_s: float = 0.0241
    lambda_f: float = 0.1484
    lambda_sigma: float = 0.025
    lambda_beta: float = 1.0 / 90.0
    ell: float = 8.0
    ell_prime: float = 8.0 - 0.91
    phi: float = 3.3
    elasticity_lo: float = 0.5
    elasticity_slope: float = 0.6
    elasticity_cap: float = 0.6
    hat_normalize: bool = True
    burn_in: int = 250

    def __post_init__(self) -> None:
        for name in ("lambda_s", "lambda_f", "lambda_sigma", "lambda_beta"):
            lam = getattr(self, name)
            if not 0.0 < lam <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {lam}")
        if not self.ell >= self.ell_prime >= 0.0:
            raise ValueError(
                f"leverage intensities must satisfy ell >= ell_prime >= 0, "
                f"got ell={self.ell}, ell_prime={self.ell_prime}"
            )
        if self.phi < 0.0:
            raise ValueError(f"phi must be >= 0, got {self.phi}")
        if self.elasticity_slope < 0.0:
            raise ValueError("elasticity_slope must be >= 0")
        if self.elasticity_cap < 0.0:
            raise ValueError("elasticity_cap must be >= 0")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")

    @property
    def ell_diff(self) -> float:
        """Excess of index leverage over single-stock leverage."""
        return self.ell - self.ell_prime


DEFAULT_PARAMS = ReactiveParams()

#: Trading days per year used for (de)annualizing volatilities.
TRADING_DAYS = 255
