"""The benchmark's workloads: inputs made from a seed, the CLI calls that
run them, and what their outputs say.

Each workload has a ``full`` size (the measured one) and a ``tiny`` size
(the smoke test). ``prepare`` writes any input files and returns the
argument lists for ``reactivebeta.cli.main``, and ``operations`` counts
what one repetition attempts; ``summarize`` reads a finished repetition's
outputs back into the figures the correctness check compares and the
operations that failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: sizes per workload; the full sizes are fixed so runs on two commits
#: measure the same work
SIZES = {
    "full": {
        "table_quantile": {"model": "mc4", "estimators": "ols,reactive,mad,trm",
                           "paths": 60, "days": 1000},
        "table_dcc": {"model": "mc6", "estimators": "ols,reactive,dcc,adcc",
                      "paths": 200, "days": 250},
        "panel": {"stocks": 500, "days": 800},
    },
    "tiny": {
        "table_quantile": {"model": "mc4", "estimators": "ols,reactive,mad,trm",
                           "paths": 4, "days": 120},
        "table_dcc": {"model": "mc6", "estimators": "ols,reactive,dcc,adcc",
                      "paths": 4, "days": 120},
        "panel": {"stocks": 24, "days": 700},
    },
}

WORKLOADS = ("table_quantile", "table_dcc", "panel")

#: share of stock-days left blank in the panel's price and caps files,
#: in runs of BLANK_RUN consecutive days
BLANK_SHARE = 0.02
BLANK_RUN = 10
#: the CLI's default burn-in (ReactiveParams.burn_in); betas.csv starts there
BURN_IN = 250


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Summary:
    """What one repetition's outputs say."""

    failed: int   # operations that produced no result
    values: dict  # figures the correctness check compares
    digest: str   # exact digest of the main output, informational


class TableWorkload:
    """``simulate`` on one model with four estimators."""

    def __init__(self, size: dict):
        self.size = size
        self.estimators = size["estimators"].split(",")
        #: one estimate per path and estimator
        self.operations = size["paths"] * len(self.estimators)

    def prepare(self, input_dir: Path, out_dir: Path, seed: int) -> list[list[str]]:
        s = self.size
        return [["simulate", "--model", s["model"], "--estimator", s["estimators"],
                 "--paths", str(s["paths"]), "--days", str(s["days"]),
                 "--seed", str(seed), "--out", str(out_dir)]]

    def digest(self, out_dir: Path) -> str:
        return sha256(out_dir / "simulate.json")

    def summarize(self, out_dir: Path) -> Summary:
        payload = json.loads((out_dir / "simulate.json").read_text())
        result = payload[self.size["model"]]
        rows = result["rows"]
        failed = sum(int(rows[e]["n_skipped"]) for e in self.estimators if e in rows)
        return Summary(failed=failed,
                       values={"rows": rows},
                       digest=self.digest(out_dir))

    def invariants(self, summary: Summary) -> list[str]:
        """Properties every seed's output must have."""
        problems = []
        rows = summary.values["rows"]
        for e in self.estimators:
            row = rows.get(e)
            if row is None:
                problems.append(f"{e}: row missing from simulate.json")
                continue
            if row["n"] + row["n_skipped"] != self.size["paths"]:
                problems.append(f"{e}: n + n_skipped != {self.size['paths']}")
            for key in ("bias", "absd", "variance_ratio", "error_variance"):
                v = row[key]
                if v is None or not math.isfinite(v):
                    problems.append(f"{e}.{key} is not finite: {v}")
            if row["absd"] is not None and not 0.0 < row["absd"] < 1.0:
                problems.append(f"{e}.absd={row['absd']} outside (0, 1)")
        ols = rows.get("ols")
        if ols is not None and ols["variance_ratio"] is not None \
                and abs(ols["variance_ratio"] - 1.0) > 1e-12:
            problems.append(f"ols.variance_ratio={ols['variance_ratio']} != 1")
        return problems


class PanelWorkload:
    """``estimate`` and then ``backtest --strategy all --beta-source both``
    on a generated price and caps panel with blank cells."""

    def __init__(self, size: dict):
        self.size = size
        self.blank = None
        self.backtest_days = 0
        self.operations = 0

    def prepare(self, input_dir: Path, out_dir: Path, seed: int) -> list[list[str]]:
        """Write the panel files; the operations are the backtest days of
        every strategy and beta source plus the priced stock-days after
        burn-in, each of which should get a beta."""
        from reactivebeta.strategies import INDICATOR_WINDOW, STRATEGIES, synthetic_universe

        n, T = self.size["stocks"], self.size["days"]
        universe = synthetic_universe(n_stocks=n, T=T, seed=seed)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1911])))
        blank = np.zeros((T, n), dtype=bool)
        n_runs = int(round(BLANK_SHARE * T * n / BLANK_RUN))
        starts = rng.integers(1, T - BLANK_RUN, size=n_runs)
        cols = rng.integers(0, n, size=n_runs)
        for t, j in zip(starts, cols):
            blank[t:t + BLANK_RUN, j] = True
        self.blank = blank
        # backtest() trades days start+1 .. T-1, start as it computes it
        self.backtest_days = 2 * sum(T - 1 - max(BURN_IN, INDICATOR_WINDOW[s] + 1, 90)
                                     for s in STRATEGIES)
        self.operations = self.backtest_days + int(np.count_nonzero(~blank[BURN_IN:]))

        dates = np.busday_offset("2000-01-03", np.arange(T), roll="forward").astype(str)
        input_dir.mkdir(parents=True, exist_ok=True)
        prices, caps = input_dir / "prices.csv", input_dir / "caps.csv"
        _write_panel(prices, dates, ["INDEX"] + list(universe.tickers),
                     np.column_stack([universe.index_prices, universe.prices]),
                     np.column_stack([np.zeros(T, dtype=bool), blank]))
        _write_panel(caps, dates, list(universe.tickers), universe.caps, blank)
        files = ["--prices", str(prices), "--caps", str(caps)]
        return [["estimate", *files, "--out", str(out_dir / "estimate")],
                ["backtest", *files, "--strategy", "all", "--beta-source", "both",
                 "--out", str(out_dir / "backtest")]]

    def digest(self, out_dir: Path) -> str:
        return sha256(out_dir / "estimate" / "betas.csv") \
            + sha256(out_dir / "backtest" / "backtest.json")

    def summarize(self, out_dir: Path) -> Summary:
        report = json.loads((out_dir / "backtest" / "backtest.json").read_text())
        days_skipped = sum(r["skipped_days"]
                           for per_source in report.values() for r in per_source.values())
        stats, nan_priced = _betas_stats(out_dir / "estimate" / "betas.csv", self.blank)
        values = {
            "backtest": {s: {src: {k: r[k] for k in ("bias", "corstd", "n_days",
                                                     "skipped_days")}
                             for src, r in per_source.items()}
                         for s, per_source in report.items()},
            "betas": stats,
        }
        return Summary(failed=days_skipped + nan_priced,
                       values=values, digest=self.digest(out_dir))

    def invariants(self, summary: Summary) -> list[str]:
        problems = []
        n, T = self.size["stocks"], self.size["days"]
        stats = summary.values["betas"]
        if stats["rows"] != (T - BURN_IN) * n:
            problems.append(f"betas.csv has {stats['rows']} rows, "
                            f"expected {(T - BURN_IN) * n}")
        report = summary.values["backtest"]
        days = sum(r["n_days"] + r["skipped_days"]
                   for per_source in report.values() for r in per_source.values())
        if days != self.backtest_days:
            problems.append(f"backtests cover {days} days, expected {self.backtest_days}")
        for strategy in ("low_vol", "reversal", "momentum", "size"):
            for source in ("ols", "reactive"):
                r = report.get(strategy, {}).get(source)
                if r is None:
                    problems.append(f"backtest {strategy}/{source} missing")
                    continue
                if not (r["bias"] is not None and -1.0 <= r["bias"] <= 1.0):
                    problems.append(f"backtest {strategy}/{source} bias={r['bias']}")
                if not (r["corstd"] is not None and r["corstd"] > 0.0):
                    problems.append(f"backtest {strategy}/{source} corstd={r['corstd']}")
        return problems


BETA_COLUMNS = ("reactive_beta", "ols_beta", "reactive_sigma", "ols_sigma")


def _betas_stats(path: Path, blank: np.ndarray):
    """Row count and per-column finite count, sum and sum of squares of
    betas.csv, and the number of priced stock-days without a finite beta."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [header.index(c) for c in BETA_COLUMNS]
        rows = [[float(r[c]) for c in cols] for r in reader]
    data = np.asarray(rows, dtype=float).reshape(-1, len(BETA_COLUMNS))
    priced = ~blank[BURN_IN:].reshape(-1)
    beta_ok = np.isfinite(data[:, 0]) & np.isfinite(data[:, 1])
    stats = {"rows": int(data.shape[0])}
    for k, name in enumerate(BETA_COLUMNS):
        col = data[:, k]
        ok = np.isfinite(col)
        stats[name] = {"finite": int(ok.sum()), "sum": float(col[ok].sum()),
                       "sum_sq": float((col[ok] ** 2).sum())}
    if data.shape[0] != priced.size:
        return stats, int(priced.sum())
    return stats, int(np.count_nonzero(priced & ~beta_ok))


def _write_panel(path: Path, dates, header, values: np.ndarray, blank: np.ndarray):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + header)
        for date, row, gaps in zip(dates, values, blank):
            writer.writerow([date] + ["" if g else f"{v:.12g}" for v, g in zip(row, gaps)])


def make(name: str, size: str = "full"):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; pick from {WORKLOADS}")
    spec = SIZES[size][name]
    return PanelWorkload(spec) if name == "panel" else TableWorkload(spec)
