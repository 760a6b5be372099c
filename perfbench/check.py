"""Correctness gate: compare a repetition's figures with the reference
figures committed in ``reference/<workload>.json`` for its seed.

Tolerances, and why each is what it is:

* Counts (``n``, ``n_skipped``, ``n_days``, ``skipped_days``, betas.csv
  rows and finite cells) must match exactly: a changed count is a
  changed result.
* Bias-family statistics and ``absd`` of the estimator table, in beta
  units: absolute 1e-3. ``table_quantile`` has 60 paths, and the
  winner/loser and low/high statistics are means over subsets of about 30
  of them. The tolerance was set from two changes that keep the results
  right, run on seeds 0-9 against these references. Solving every
  quantile regression exactly (a linear program) moved these fields by at
  most 2.8e-4, the subset means included. Continuing the (A)DCC compass
  search from its 1e-4 step tolerance down to 1e-8 moved them by at most
  2e-5. A wrong estimator moves them by more: with trimean weights of
  0.2/0.6/0.2 instead of 0.25/0.5/0.25, the largest shift per seed was
  1.2e-3 to 5.3e-3, and every one of the ten seeds failed.
* ``variance_ratio`` and ``error_variance``: relative 1e-2. The exact
  solver moved them by at most 1.0e-3 relative, and the continued compass
  search by at most 1.4e-4. They are ratios of second moments and move
  proportionally more than the means.
* Star flags are not gated: a statistic sitting at three standard errors
  flips its star under any last-digit change. Flips are reported.
* Backtest ``bias`` and ``corstd``: absolute 1e-4. They are correlations
  computed from the betas, which no planned change moves by more than
  float-summation order.
* betas.csv column sums and sums of squares: relative 1e-6 (the file
  carries 8 significant digits per cell).

The exact digest of the main output is reported, not gated.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EXACT_ROW_FIELDS = ("n", "n_skipped")
BETA_UNIT_FIELDS = ("bias", "winner_bias", "loser_bias", "low_bias", "high_bias", "absd")
RATIO_FIELDS = ("variance_ratio", "error_variance")
STAR_FIELDS = ("bias_star", "winner_star", "loser_star", "low_star", "high_star")
BETA_UNIT_ABS = 1e-3
RATIO_REL = 1e-2
BACKTEST_ABS = 1e-4
BETAS_REL = 1e-6


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, size: str, seed: int):
    """The committed figures for this workload, size and seed, or None."""
    path = reference_path(workload)
    if not path.exists():
        return None
    ref = json.loads(path.read_text())
    if ref.get("size") != size:
        return None
    return ref["seeds"].get(str(seed))


def _close_abs(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol


def _close_rel(a, b, tol) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def compare(values: dict, reference: dict) -> tuple[list[str], list[str]]:
    """``(problems, notes)``: gate failures and informational differences."""
    problems, notes = [], []
    if "rows" in reference:
        for est, ref_row in reference["rows"].items():
            row = values["rows"].get(est)
            if row is None:
                problems.append(f"{est}: missing")
                continue
            for f in EXACT_ROW_FIELDS:
                if row[f] != ref_row[f]:
                    problems.append(f"{est}.{f}={row[f]} reference {ref_row[f]}")
            for f in BETA_UNIT_FIELDS:
                if not _close_abs(row[f], ref_row[f], BETA_UNIT_ABS):
                    problems.append(f"{est}.{f}={row[f]} reference {ref_row[f]} "
                                    f"(abs tol {BETA_UNIT_ABS})")
            for f in RATIO_FIELDS:
                if not _close_rel(row[f], ref_row[f], RATIO_REL):
                    problems.append(f"{est}.{f}={row[f]} reference {ref_row[f]} "
                                    f"(rel tol {RATIO_REL})")
            for f in STAR_FIELDS:
                if row[f] != ref_row[f]:
                    notes.append(f"{est}.{f} flipped to {row[f]}")
    if "backtest" in reference:
        for strategy, per_source in reference["backtest"].items():
            for source, ref_r in per_source.items():
                r = values["backtest"].get(strategy, {}).get(source)
                label = f"backtest {strategy}/{source}"
                if r is None:
                    problems.append(f"{label}: missing")
                    continue
                for f in ("n_days", "skipped_days"):
                    if r[f] != ref_r[f]:
                        problems.append(f"{label}.{f}={r[f]} reference {ref_r[f]}")
                for f in ("bias", "corstd"):
                    if not _close_abs(r[f], ref_r[f], BACKTEST_ABS):
                        problems.append(f"{label}.{f}={r[f]} reference {ref_r[f]} "
                                        f"(abs tol {BACKTEST_ABS})")
    if "betas" in reference:
        stats, ref_stats = values["betas"], reference["betas"]
        if stats["rows"] != ref_stats["rows"]:
            problems.append(f"betas.csv rows={stats['rows']} reference {ref_stats['rows']}")
        for col, ref_col in ref_stats.items():
            if col == "rows":
                continue
            got = stats[col]
            if got["finite"] != ref_col["finite"]:
                problems.append(f"betas.csv {col} finite={got['finite']} "
                                f"reference {ref_col['finite']}")
            for f in ("sum", "sum_sq"):
                if not _close_rel(got[f], ref_col[f], BETAS_REL):
                    problems.append(f"betas.csv {col} {f}={got[f]} reference "
                                    f"{ref_col[f]} (rel tol {BETAS_REL})")
    return problems, notes
