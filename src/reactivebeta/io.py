"""File ingestion and report emission.

Price panels arrive as delimited text with a ``date`` column followed by
one column per ticker; capitalizations use the same layout and sector
labels a two-column (ticker, label) file. Reports are emitted both as
tab-separated text for reading and as JSON documents for machines;
every run can drop a manifest capturing the configuration, seed,
versions and input digests needed to reproduce it.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import platform
import re
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .strategies import Universe, auto_supersectors

__all__ = [
    "IngestError",
    "ingest_prices",
    "write_table_report",
    "write_json",
    "write_plot_data",
    "write_manifest",
    "sha256_file",
]


class IngestError(ValueError):
    """Malformed input data; the message names the offending line."""


def _parse_date(token: str, line_no: int) -> dt.date:
    try:
        return dt.date.fromisoformat(token.strip())
    except ValueError as exc:
        raise IngestError(f"line {line_no}: unparseable date {token!r}") from exc


#: a blank cell (empty or whitespace only) after its leading comma, in a
#: line that starts and ends with a comma
_BLANK = re.compile(r",\s*(?=,)")


def _numbers(texts: list[str], width: int) -> np.ndarray:
    """The ``(len(texts), width)`` numbers of comma-separated lines, NaN in
    the blank cells; ValueError when a cell is neither blank nor a finite
    number."""
    # no finite number holds an n, while nan, inf and Infinity all do; so
    # once no cell does, the NaNs np.loadtxt returns are the blank cells
    if any("n" in text or "N" in text for text in texts):
        raise ValueError("a cell spells no finite number")
    # from a generator, each filled line lives only while it is parsed
    values = np.loadtxt((_BLANK.sub(",nan", f",{text},")[1:-1] for text in texts),
                        delimiter=",", comments=None, ndmin=2)
    if values.shape != (len(texts), width) or np.isinf(values).any():
        raise ValueError("a cell spells no finite number")
    return values


def _bad_cell(path: Path, width: int, exc: ValueError) -> IngestError:
    """The error naming the first cell of ``path`` that ``_numbers`` cannot
    read; ``exc`` is what it raised."""
    with path.open(newline="") as fh:
        next(csv.reader(fh))
        for line_no, line in enumerate(fh, start=2):
            cells = next(csv.reader([line]), [])[1:]
            try:
                _numbers([",".join(cells)], width)
                continue
            except ValueError:
                pass
            for col, cell in enumerate(cells, start=2):
                if not cell.strip():
                    continue
                try:
                    (value,) = np.loadtxt([cell], delimiter=",", comments=None, ndmin=1)
                except ValueError:
                    return IngestError(f"{path.name} line {line_no}: bad number "
                                       f"{cell.strip()!r} in column {col}")
                if not np.isfinite(value):
                    return IngestError(f"{path.name} line {line_no}: non-finite "
                                       f"number ({value}) in column {col}")
    return IngestError(f"{path.name}: {exc}")


def _split_line(line: str) -> Optional[tuple[str, str, int]]:
    """A data line's date cell, its other cells joined by commas, and its
    number of fields; None when every cell is blank."""
    if '"' in line:     # quoted cells: csv.reader unquotes them
        cells = next(csv.reader([line]))
        if all(not cell.strip() for cell in cells):
            return None
        return cells[0], ",".join(cells[1:]), len(cells)
    line = line.rstrip("\r\n")
    date, _, text = line.partition(",")
    if not date.strip() and not text.replace(",", "").strip():
        return None
    return date, text, line.count(",") + 1


def _read_panel(path) -> tuple[list[dt.date], list[str], np.ndarray]:
    path = Path(path)
    with path.open(newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise IngestError(f"{path.name}: empty file")
        if len(header) < 2 or header[0].strip().lower() != "date":
            raise IngestError(
                f"{path.name}: header must be 'date,<ticker>,...', got {header!r}")
        tickers = [h.strip() for h in header[1:]]
        if len(set(tickers)) != len(tickers):
            raise IngestError(f"{path.name}: duplicate ticker columns")

        # the lines' checks run here, their numbers in one np.loadtxt call
        dates: list[dt.date] = []
        texts: list[str] = []
        seen: dict[dt.date, int] = {}
        for line_no, line in enumerate(fh, start=2):
            split = _split_line(line)
            if split is None:
                continue
            token, text, fields = split
            if fields != len(tickers) + 1:
                raise IngestError(
                    f"{path.name} line {line_no}: expected {len(tickers) + 1} "
                    f"fields, got {fields}")
            date = _parse_date(token, line_no)
            if date in seen:
                raise IngestError(
                    f"{path.name} line {line_no}: duplicate date {date} "
                    f"(first seen on line {seen[date]})")
            if dates and date <= dates[-1]:
                raise IngestError(
                    f"{path.name} line {line_no}: dates must be strictly "
                    f"increasing ({date} after {dates[-1]})")
            seen[date] = line_no
            dates.append(date)
            texts.append(text)
    if not texts:
        raise IngestError(f"{path.name}: no data rows")
    try:
        values = _numbers(texts, len(tickers))
    except ValueError as exc:
        raise _bad_cell(path, len(tickers), exc) from None
    return dates, tickers, values


def _read_sectors(path, tickers) -> np.ndarray:
    labels = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{Path(path).name}: empty sector file")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise IngestError(f"{Path(path).name} line {line_no}: "
                                  "expected 'ticker,supersector'")
            ticker, label = row[0].strip(), row[1].strip()
            if not label:
                raise IngestError(f"{Path(path).name} line {line_no}: "
                                  f"blank supersector for {ticker!r}")
            if labels.setdefault(ticker, (label, line_no))[0] != label:
                raise IngestError(f"{Path(path).name}: {ticker!r} labelled "
                                  f"{labels[ticker][0]!r} on line {labels[ticker][1]} "
                                  f"and {label!r} on line {line_no}")
    missing = [t for t in tickers if t not in labels]
    if missing:
        raise IngestError(f"sector file lacks labels for {missing}")
    uniq = sorted(set(labels[t][0] for t in tickers))
    code = {name: i for i, name in enumerate(uniq)}
    return np.array([code[labels[t][0]] for t in tickers])


def ingest_prices(path, index_ticker: Optional[str] = None,
                  caps_path=None, sectors_path=None) -> Universe:
    """Load a price panel (plus optional caps and sector files).

    The index series is the column named ``index_ticker`` (default: the
    first column). The index must be complete; stock cells may be empty,
    which marks the (stock, day) as missing. Missing sector labels fall
    back to a capitalization-rank partition.
    """
    dates, tickers, values = _read_panel(path)
    if index_ticker is None:
        index_ticker = tickers[0]
    if index_ticker not in tickers:
        raise IngestError(f"index column {index_ticker!r} not in {tickers}")
    idx_col = tickers.index(index_ticker)
    index_prices = values[:, idx_col].copy()   # a view would keep every column alive
    if not np.all(np.isfinite(index_prices)):
        bad = int(np.argmax(~np.isfinite(index_prices)))
        raise IngestError(f"index column {index_ticker!r} has a missing value "
                          f"on {dates[bad]}")
    stock_cols = [j for j in range(len(tickers)) if j != idx_col]
    if not stock_cols:
        raise IngestError(f"{Path(path).name}: no stock column beside the index "
                          f"{index_ticker!r}")
    stock_tickers = tuple(tickers[j] for j in stock_cols)
    prices = values[:, stock_cols]
    finite = prices[np.isfinite(prices)]
    if np.any(finite <= 0.0):
        raise IngestError("prices must be strictly positive")

    caps = None
    if caps_path is not None:
        cdates, ctickers, cvalues = _read_panel(caps_path)
        if cdates != dates:
            raise IngestError("caps file dates do not match the price panel")
        col = {ticker: j for j, ticker in enumerate(ctickers)}
        for ticker in stock_tickers:
            if ticker not in col:
                raise IngestError(f"caps file missing ticker {ticker!r}")
        caps = cvalues[:, [col[t] for t in stock_tickers]]
        if np.any(caps[np.isfinite(caps)] <= 0.0):
            raise IngestError("caps must be strictly positive")

    if sectors_path is not None:
        supersector = _read_sectors(sectors_path, stock_tickers)
    else:
        supersector = auto_supersectors(caps if caps is not None else prices)

    return Universe(dates=np.array(dates), tickers=stock_tickers, prices=prices,
                    index_prices=index_prices, supersector=supersector, caps=caps)


# ---------------------------------------------------------------------------
# emission


def write_table_report(path, rows: dict) -> None:
    """Tab-separated estimator statistics, one line per estimator."""
    cols = ["estimator", "n", "n_skipped", "bias", "bias_star",
            "winner_bias", "winner_star", "loser_bias", "loser_star",
            "low_bias", "low_star", "high_bias", "high_star",
            "absd", "variance_ratio"]
    with Path(path).open("w") as fh:
        fh.write("\t".join(cols) + "\n")
        for name, row in rows.items():
            d = row.to_dict()
            out = [name]
            for c in cols[1:]:
                v = d[c]
                if isinstance(v, bool):
                    out.append("*" if v else "")
                elif v is None:
                    out.append("")
                elif isinstance(v, float):
                    out.append(f"{v:.4f}")
                else:
                    out.append(str(v))
            fh.write("\t".join(out) + "\n")


def write_json(path, payload: dict) -> None:
    with Path(path).open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (dt.date, dt.datetime)):
        return obj.isoformat()
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_plot_data(path, x, y, fit: dict, labels) -> None:
    """Two-column plot data headed ``labels``, with the fit parameters in
    comment lines."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with Path(path).open("w") as fh:
        for k, v in fit.items():
            fh.write(f"# {k} = {v}\n")
        fh.write(f"{labels[0]},{labels[1]}\n")
        for xi, yi in zip(x, y):
            fh.write(f"{xi:.12g},{yi:.12g}\n")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, command: str, config: dict, inputs=(), outputs=(),
                   diagnostics: Optional[dict] = None, *, argv) -> None:
    """Reproducibility record: configuration, the command-line arguments
    ``argv`` that ran, versions, digests, counts."""
    manifest = {
        "command": command,
        "config": config,
        "argv": argv,
        "versions": {
            "reactivebeta": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "written_at": dt.datetime.now(dt.timezone.utc).isoformat(),
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    write_json(path, manifest)
