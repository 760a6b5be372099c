"""Shared test plumbing: the acceptance suite records one line per
criterion and the terminal summary prints them after the run; the
``csv_panel`` fixture writes a price and caps panel with ``csv.writer``."""

import csv
from types import SimpleNamespace

import numpy as np
import pytest

ACCEPTANCE_RESULTS = {}


def record_criterion(number: int, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[number] = ("PASS" if passed else "FAIL", detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        status, detail = ACCEPTANCE_RESULTS[number]
        line = f"criterion {number}: {status}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


def _write_csv(path, header, dates, values):
    """``values`` by ``csv.writer`` (CRLF line ends), a blank cell for NaN."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for date, row in zip(dates, values.tolist()):
            writer.writerow([date] + ["" if np.isnan(v) else v for v in row])


@pytest.fixture
def csv_panel(tmp_path):
    """A 50-stock × 300-day price file and caps file with runs of blank
    stock cells: ``prices`` and ``caps`` are their paths, ``values`` and
    ``cap_values`` what they hold (the index is ``values``' first column),
    NaN at the blanks."""
    rng = np.random.default_rng(2015)
    n, T = 50, 300
    market = 0.01 * rng.standard_normal(T)
    returns = np.column_stack([market, rng.uniform(0.5, 1.5, n) * market[:, None]
                               + 0.015 * rng.standard_normal((T, n))])
    values = 100.0 * np.cumprod(1.0 + returns, axis=0)
    cap_values = values[:, 1:] * rng.uniform(1e6, 1e9, size=n)
    for _ in range(60):                     # runs of 1-20 blank days
        j, t = rng.integers(n), rng.integers(T)
        days = slice(t, t + rng.integers(1, 21))
        values[days, j + 1] = np.nan
        cap_values[days, j] = np.nan
    dates = np.busday_offset("2001-01-02", np.arange(T), roll="forward").astype(str)
    tickers = [f"S{j:02d}" for j in range(n)]
    prices, caps = tmp_path / "prices.csv", tmp_path / "caps.csv"
    _write_csv(prices, ["date", "IDX"] + tickers, dates, values)
    _write_csv(caps, ["date"] + tickers, dates, cap_values)
    return SimpleNamespace(prices=prices, caps=caps, values=values, cap_values=cap_values)
