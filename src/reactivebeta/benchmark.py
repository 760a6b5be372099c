"""End-to-end estimator benchmark: simulate paths, run every requested
estimator on each path, and aggregate the error statistics per model.

The per-path work is vectorized across a whole batch of paths; batches
are sized to bound memory, so the benchmark scales to the full published
path counts while staying fast at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .params import DEFAULT_PARAMS, ReactiveParams
from .beta import reactive_beta_from_returns
from .estimators import (
    dcc_beta_batch,
    ols_beta_batch,
    quantile_beta_batch,
    trimean,
    trimean_beta_batch,  # uncalled here; perfbench/spans.py wraps this name
)
from .evaluation import ErrorSamples, StatRow, table2_stats
from .montecarlo import McBatch, McConfig, generate_batch

__all__ = ["ESTIMATORS", "BenchmarkResult", "estimate_batch", "path_flags",
           "run_benchmark"]

ESTIMATORS = ("ols", "reactive", "dcc", "adcc", "mad", "trm")

#: trailing trading days defining the winner/loser split
WINNER_WINDOW = 21

#: paths generated and estimated at once; bounds a block's memory (each
#: path draws its own stream, and its estimates have the same bits in any batch)
_BLOCK_PATHS = 1024


def path_flags(batch: McBatch):
    """Winner and low-beta flags for every path of a batch.

    A path is a winner when the stock outperformed the index over the
    last ``WINNER_WINDOW`` returns (compounded); it is low-beta when the
    true conditional beta at the final time is below one.
    """
    w = min(WINNER_WINDOW, batch.T)
    growth_stock = np.prod(1.0 + batch.r_stock[:, -w:], axis=1)
    growth_index = np.prod(1.0 + batch.r_index[:, -w:], axis=1)
    winner = growth_stock > growth_index
    low = batch.true_beta[:, -1] < 1.0
    return winner, low


def estimate_batch(name: str, batch: McBatch,
                   params: ReactiveParams = DEFAULT_PARAMS) -> np.ndarray:
    """Final-time beta estimates of one estimator over a batch of paths.
    Every estimator looks back over ``params.lambda_beta``."""
    return _estimate(name, batch, params, {})[0]


def _estimate(name: str, batch: McBatch, params: ReactiveParams, slopes: dict):
    """The estimates and, for (A)DCC, the calibration's counts: paths,
    converged paths, paths at the ``rho_bar`` bound, filter passes and
    the days on which the rho clamp holds at the fitted points.

    ``slopes`` holds the batch's quantile regression slopes by level, so
    that ``mad`` and ``trm`` solve the median once between them."""
    r_s, r_i = batch.r_stock, batch.r_index
    lam = params.lambda_beta

    def slope(theta: float) -> np.ndarray:
        if theta not in slopes:
            slopes[theta] = quantile_beta_batch(r_i, r_s, theta, lam)[1]
        return slopes[theta]

    if name == "ols":
        return ols_beta_batch(r_i, r_s, lam), None
    if name == "mad":
        return slope(0.5), None
    if name == "trm":
        return trimean(slope), None
    if name in ("dcc", "adcc"):
        beta, cal = dcc_beta_batch(r_s, r_i, asymmetric=name == "adcc", lam=lam)
        summed = ("converged", "at_bound", "evaluations", "rho_clamped_days")
        return beta, {"paths": batch.n_paths,
                      **{key: int(np.sum(getattr(cal, key))) for key in summed}}
    if name == "reactive":
        return np.asarray(reactive_beta_from_returns(r_i, r_s, params=params)), None
    raise ValueError(f"unknown estimator {name!r}; expected one of {ESTIMATORS}")


@dataclass(frozen=True)
class BenchmarkResult:
    """Per-model, per-estimator statistic rows plus run metadata, the
    price-floor hits of the stock and of the index side (``clamped`` and
    ``clamped_index``), the path-days on which the generator's rho clamp
    holds (``clamped_rho``), the (A)DCC calibration counts of
    :func:`_estimate`, and the wall seconds of path generation and of each
    estimator run (``seconds``, which :meth:`to_dict` leaves out), all
    summed over blocks."""

    model: str
    n_paths: int
    T: int
    seed: int
    rows: dict  # estimator name -> StatRow
    clamped: int
    clamped_index: int
    clamped_rho: int
    diagnostics: dict  # estimator name -> (A)DCC counts
    seconds: dict  # "generate" and each estimator run -> wall seconds

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "n_paths": self.n_paths,
            "T": self.T,
            "seed": self.seed,
            "clamped": self.clamped,
            "clamped_index": self.clamped_index,
            "clamped_rho": self.clamped_rho,
            "rows": {k: v.to_dict() for k, v in self.rows.items()},
            "diagnostics": self.diagnostics,
        }


def run_benchmark(model: str, estimators: Sequence[str] = ("ols", "reactive"),
                  n_paths: int = 2000, T: int = 1000, seed: int = 0,
                  params: ReactiveParams = DEFAULT_PARAMS) -> BenchmarkResult:
    """Simulate one model and score the requested estimators against the
    true conditional beta at the final time.

    The variance ratio of every row is quoted against the least-squares
    error variance on the same paths, which is computed even when "ols"
    is not among the requested estimators. Every estimator shares the
    look-back ``params.lambda_beta``.
    """
    for name in estimators:
        if name not in ESTIMATORS:
            raise ValueError(f"unknown estimator {name!r}; pick from {ESTIMATORS}")
    config = McConfig(model=model, T=T, n_paths=n_paths, seed=seed)

    wanted = list(dict.fromkeys(estimators))
    run_names = wanted if "ols" in wanted else ["ols"] + wanted
    estimates = {name: [] for name in run_names}
    diagnostics = {}
    seconds = dict.fromkeys(["generate"] + run_names, 0.0)
    true_final, winners, lows = [], [], []
    clamped = clamped_index = clamped_rho = 0

    done = 0
    while done < n_paths:
        count = min(_BLOCK_PATHS, n_paths - done)
        # the table reads the returns and the final day's true beta only
        start = time.perf_counter()
        batch = generate_batch(config, done, count, tracks=False)
        seconds["generate"] += time.perf_counter() - start
        clamped += batch.clamped
        clamped_index += batch.clamped_index
        clamped_rho += batch.clamped_rho
        w, lo = path_flags(batch)
        winners.append(w)
        lows.append(lo)
        # a copy: a view of the column would keep the block's truth alive
        true_final.append(batch.true_beta[:, -1].copy())
        slopes = {}
        for name in run_names:
            start = time.perf_counter()
            est, counts = _estimate(name, batch, params, slopes)
            seconds[name] += time.perf_counter() - start
            estimates[name].append(est)
            if counts is not None:
                total = diagnostics.setdefault(name, dict.fromkeys(counts, 0))
                for key, value in counts.items():
                    total[key] += value
        done += count
        del batch, slopes   # before the next block is generated

    true_final = np.concatenate(true_final)
    winner = np.concatenate(winners)
    low = np.concatenate(lows)

    def _row(name: str, reference_variance: Optional[float]) -> StatRow:
        est = np.concatenate(estimates[name])
        samples = ErrorSamples(estimated_beta=est, true_beta=true_final,
                               winner=winner, low=low)
        return table2_stats(samples, reference_variance, label=name)

    ols_row = _row("ols", None)
    reference = ols_row.error_variance
    rows = {name: _row(name, reference) for name in wanted}
    return BenchmarkResult(model=model, n_paths=n_paths, T=T, seed=seed,
                           rows=rows, clamped=clamped, clamped_index=clamped_index,
                           clamped_rho=clamped_rho, diagnostics=diagnostics,
                           seconds=seconds)
