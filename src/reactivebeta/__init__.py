"""Leverage-aware dynamic beta estimation toolkit.

The package tracks per-stock betas with a level-based renormalization
that absorbs leverage-driven volatility moves, benchmarks the estimator
against weighted least squares, quantile regressions and (A)DCC
conditional betas on seven synthetic market models, and applies both
beta sources to beta-neutral factor backtests with bias diagnostics.
"""

# set before the submodules load: io reads it at import
__version__ = "0.1.0"

from .params import DEFAULT_PARAMS, TRADING_DAYS, ReactiveParams
from .timeseries import exp_weighted_moments, rolling_correlation
from .beta import (
    BetaState,
    LevelState,
    ReactiveBetaEngine,
    VolState,
    beta_elasticity,
    filter_phi,
    init_levels,
    reactive_beta_from_returns,
)
from .estimators import (
    DccParams,
    DccState,
    GarchParams,
    dcc_calibrate,
    dcc_step,
)
from .montecarlo import McBatch, McConfig, generate_batch
from .evaluation import (
    HedgeReport,
    SelectionBiasInputs,
    calibrate_ell_diff,
    elasticity_diagnostic,
    selection_bias,
    strategy_bias_corstd,
    table2_stats,
)
from .strategies import (
    FactorWeights,
    Universe,
    backtest,
    build_factor,
    compute_panels,
    indicator,
    synthetic_universe,
)
from .benchmark import run_benchmark
