import csv
import datetime as dt
import io
import json
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import write_csv_panel
from reactivebeta.cli import build_parser, main
from reactivebeta.evaluation import NumericalFailure
from reactivebeta.io import IngestError, _read_panel, ingest_prices, sha256_file
from reactivebeta.params import ReactiveParams
from reactivebeta.strategies import backtest, compute_panels, synthetic_universe


PRICES_CSV = """date,IDX,AAA,BBB,CCC
2020-01-01,100,50,20,10
2020-01-02,101,51,20.5,10.1
2020-01-03,102,52,21,10.2
2020-01-06,101,51.5,,10.1
2020-01-07,103,52.5,21.5,10.4
"""


#: cells that float() reads as a number but that no price or cap can be
NON_FINITE = ("nan", "inf", "-inf", "Infinity", "1e999")


def _with_cell(token):
    """PRICES_CSV with BBB's (blank-free) cell on 2020-01-03 replaced."""
    return PRICES_CSV.replace("2020-01-03,102,52,21,", f"2020-01-03,102,52,{token},")


@pytest.fixture
def price_file(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(PRICES_CSV)
    return path


#: the stages whose wall seconds a command's manifest records
STAGES = {"estimate": {"ingest", "panels", "write"},
          "backtest": {"ingest", "panels", "backtests"}}


def _diagnostics(out):
    """The diagnostics of the manifest in ``out``, and apart from them
    their ``stage_seconds``."""
    diagnostics = json.loads((out / "manifest.json").read_text())["diagnostics"]
    return diagnostics, diagnostics.pop("stage_seconds")


def _assert_same_bits(values, expected):
    """Equal shapes, NaN at the same cells, the same bits everywhere else."""
    expected = np.asarray(expected, dtype=float)
    assert values.shape == expected.shape
    blank = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(values), blank)
    np.testing.assert_array_equal(values[~blank].view(np.int64),
                                  expected[~blank].view(np.int64))


def _write_panel(path, panel):
    """A price CSV of ``panel`` (index first, blank cells for NaN)."""
    dates = np.busday_offset("2020-01-01", np.arange(len(panel)), roll="forward")
    rows = [",".join([str(d)] + ["" if np.isnan(v) else repr(float(v)) for v in row])
            for d, row in zip(dates.astype(str), panel)]
    header = ",".join(["date", "IDX"] + [f"S{j}" for j in range(panel.shape[1] - 1)])
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


#: the spellings of a finite double the property test writes
SPELLINGS = (repr, "%.12g".__mod__, "%.17g".__mod__, "%e".__mod__)

HEAD = "date,IDX,AAA,BBB"

#: how the reader takes each spelling of a panel: the values of its data
#: rows, or the text of the IngestError it raises
READ_CONTRACT = {
    "lf": (HEAD + "\n2020-01-01,1,2,3\n2020-01-02,4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
    "crlf": (HEAD + "\r\n2020-01-01,1,2,3\r\n2020-01-02,4,5,6\r\n", [[1, 2, 3], [4, 5, 6]]),
    "bare cr": (HEAD + "\r2020-01-01,1,2,3\r2020-01-02,4,5,6\r", [[1, 2, 3], [4, 5, 6]]),
    "no final newline": (HEAD + "\n2020-01-01,1,2,3\n2020-01-02,4,5,6", [[1, 2, 3], [4, 5, 6]]),
    "leading blank": (HEAD + "\n2020-01-01,,2,3\n", [[np.nan, 2, 3]]),
    "trailing blank": (HEAD + "\n2020-01-01,1,2,\n", [[1, 2, np.nan]]),
    "adjacent blanks": (HEAD + "\n2020-01-01,1,,\n", [[1, np.nan, np.nan]]),
    "whitespace cell": (HEAD + "\n2020-01-01,1,  ,3\n", [[1, np.nan, 3]]),
    "tab cell": (HEAD + "\n2020-01-01,1,\t,3\n", [[1, np.nan, 3]]),
    "padded": (HEAD + "\n2020-01-01, 1 ,\t2.5\t,  3\n", [[1, 2.5, 3]]),
    "quoted number": (HEAD + '\n2020-01-01,1,"1",3\n', [[1, 1, 3]]),
    "quoted date": (HEAD + '\n"2020-01-01",1,2,3\n', [[1, 2, 3]]),
    "quoted comma": (HEAD + '\n2020-01-01,1,"1,5",3\n',
                     "p.csv line 2: bad number '1,5' in column 3"),
    "signs and points": (HEAD + "\n2020-01-01,+1.5,.5,5.\n", [[1.5, 0.5, 5]]),
    "exponent": (HEAD + "\n2020-01-01,1E5,1e-5,3\n", [[1e5, 1e-5, 3]]),
    "hash": (HEAD + "\n2020-01-01,1,#2,3\n", "p.csv line 2: bad number '#2' in column 3"),
    "hex": (HEAD + "\n2020-01-01,1,0x10,3\n", "p.csv line 2: bad number '0x10' in column 3"),
    "word": (HEAD + "\n2020-01-01,1,abc,3\n", "p.csv line 2: bad number 'abc' in column 3"),
    "none": (HEAD + "\n2020-01-01,1,none,3\n", "p.csv line 2: bad number 'none' in column 3"),
    "nan": (HEAD + "\n2020-01-01,1,nan,3\n",
            "p.csv line 2: non-finite number (nan) in column 3"),
    "padded NaN": (HEAD + "\n2020-01-01,1, NaN ,3\n",
                   "p.csv line 2: non-finite number (nan) in column 3"),
    "Infinity": (HEAD + "\n2020-01-01,1,2,Infinity\n",
                 "p.csv line 2: non-finite number (inf) in column 4"),
    "overflow": (HEAD + "\n2020-01-01,1,2,3\n2020-01-02,4,-1e999,6\n",
                 "p.csv line 3: non-finite number (-inf) in column 3"),
    "blank line": (HEAD + "\n2020-01-01,1,2,3\n\n2020-01-02,4,5,6\n", [[1, 2, 3], [4, 5, 6]]),
    "line of commas": (HEAD + "\n2020-01-01,1,2,3\n,,,\n2020-01-02,4,5,6\n",
                       [[1, 2, 3], [4, 5, 6]]),
    "short row": (HEAD + "\n2020-01-01,1,2,3\n2020-01-02,4,5\n",
                  "p.csv line 3: expected 4 fields, got 3"),
    "one row": (HEAD + "\n2020-01-01,1,2,3\n", [[1, 2, 3]]),
    "header only": (HEAD + "\n", "p.csv: no data rows"),
    "blank lines only": (HEAD + "\n\n,,,\n \t\n", "p.csv: no data rows"),
    # a line's own check stops the parse as it is, whatever follows
    "duplicate date": (HEAD + "\n2020-01-01,1,2,3\n2020-01-01,4,5,6\n",
                       "p.csv line 3: duplicate date 2020-01-01 (first seen on line 2)"),
    "line fault before a bad cell": (
        HEAD + "\n2020-01-02,1,2,3\n2020-01-01,4,5,6\n2020-01-03,1,abc,3\n",
        "p.csv line 3: dates must be strictly increasing (2020-01-01 after 2020-01-02)"),
    # float() read these as 10 and 1; numpy's text parser takes neither
    "underscore": (HEAD + "\n2020-01-01,1,1_0,3\n", "p.csv line 2: bad number '1_0' in column 3"),
    "non-ascii digit": (HEAD + "\n2020-01-01,1,\uff11,3\n",
                        "p.csv line 2: bad number '\uff11' in column 3"),
    # csv.reader carried a quoted cell over the line end; each line now
    # stands alone
    "quoted line end": (HEAD + '\n2020-01-01,1,"2\n",3\n',
                        "p.csv line 2: expected 4 fields, got 3"),
}


class TestIngest:
    def test_well_formed_panel(self, price_file):
        uni = ingest_prices(price_file)
        assert uni.tickers == ("AAA", "BBB", "CCC")
        assert uni.n_days == 5
        assert uni.index_prices[0] == 100.0
        assert uni.prices[1, 1] == 20.5
        assert uni.index_prices.base is None     # it does not keep the parsed panel alive

    def test_missing_cell_is_nan(self, price_file):
        uni = ingest_prices(price_file)
        assert np.isnan(uni.prices[3, 1])
        assert np.isfinite(uni.prices[3, 0])

    @pytest.mark.parametrize("text, expected", READ_CONTRACT.values(), ids=READ_CONTRACT)
    def test_read_contract(self, tmp_path, text, expected):
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # np.loadtxt's no-data warning too
            if isinstance(expected, str):
                with pytest.raises(IngestError) as info:
                    _read_panel(path)
                assert str(info.value) == expected
            else:
                dates, tickers, values = _read_panel(path)
                assert tickers == ["IDX", "AAA", "BBB"]
                assert [str(d) for d in dates] == ["2020-01-01", "2020-01-02"][:len(expected)]
                np.testing.assert_array_equal(values, expected)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reads_every_double_bit_for_bit(self, data):
        # each cell reads as float() reads it, NaN exactly at the blanks
        width = data.draw(st.integers(1, 5))
        number = st.builds(lambda x, spell: spell(x),
                           st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from(SPELLINGS))
        cell = st.one_of(number, st.sampled_from(["", " ", "\t"]))
        rows = data.draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                                  min_size=1, max_size=6))
        ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                                  min_size=len(rows) + 1, max_size=len(rows) + 1))
        lines = ["date," + ",".join(f"C{j}" for j in range(width))]
        lines += [f"2020-01-{t + 1:02d}," + ",".join(row) for t, row in enumerate(rows)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.csv"
            path.write_bytes("".join(map(str.__add__, lines, ends)).encode())
            _, _, values = _read_panel(path)
        _assert_same_bits(values, [[float(c) if c.strip() else np.nan for c in row]
                                   for row in rows])

    def test_reads_csv_writer_panel_bit_for_bit(self, csv_panel):
        for path, expected in ((csv_panel.prices, csv_panel.values),
                               (csv_panel.caps, csv_panel.cap_values)):
            dates, tickers, values = _read_panel(path)
            assert len(dates) == len(values) == 300 and len(tickers) == values.shape[1]
            _assert_same_bits(values, expected)
        uni = ingest_prices(csv_panel.prices, caps_path=csv_panel.caps)
        _assert_same_bits(uni.index_prices, csv_panel.values[:, 0])
        _assert_same_bits(uni.prices, csv_panel.values[:, 1:])
        _assert_same_bits(uni.caps, csv_panel.cap_values)

    def test_traced_peaks_keep_one_copy_of_each_panel(self, tmp_path):
        # in units of one price panel, each bound sits between two measured
        # peaks: ingest 5.2, and 6.6 for a reader that holds every line's
        # text; compute_panels 4.9 above what it is given, and 5.9 with a
        # returns panel
        panel = write_csv_panel(tmp_path, 200, 500)
        unit = panel.values[:, 1:].nbytes
        tracemalloc.start()
        try:
            universe = ingest_prices(panel.prices, caps_path=panel.caps)
            _, ingest_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            compute_panels(universe, ReactiveParams())
            _, panels_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ingest_peak < 5.9 * unit
        assert panels_peak - held < 5.4 * unit

    def test_duplicate_date_names_line(self, tmp_path):
        bad = tmp_path / "dup.csv"
        bad.write_text("date,IDX,AAA\n2020-01-01,1,2\n2020-01-02,1,2\n2020-01-01,1,2\n")
        with pytest.raises(IngestError, match="line 4.*duplicate date"):
            ingest_prices(bad)

    def test_non_monotone_dates_rejected(self, tmp_path):
        bad = tmp_path / "mono.csv"
        bad.write_text("date,IDX,AAA\n2020-01-02,1,2\n2020-01-01,1,2\n")
        with pytest.raises(IngestError, match="strictly increasing"):
            ingest_prices(bad)

    def test_unparseable_date_names_line(self, tmp_path):
        bad = tmp_path / "date.csv"
        bad.write_text("date,IDX,AAA\nnot-a-date,1,2\n")
        with pytest.raises(IngestError, match="line 2"):
            ingest_prices(bad)

    def test_empty_file_rejected(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        with pytest.raises(IngestError, match="empty"):
            ingest_prices(bad)

    def test_bad_number_names_line_and_column(self, tmp_path):
        bad = tmp_path / "num.csv"
        bad.write_text("date,IDX,AAA\n2020-01-01,1,abc\n")
        with pytest.raises(IngestError, match="line 2.*column 3"):
            ingest_prices(bad)

    def test_missing_index_value_rejected(self, tmp_path):
        bad = tmp_path / "idx.csv"
        bad.write_text("date,IDX,AAA\n2020-01-01,,2\n")
        with pytest.raises(IngestError, match="index"):
            ingest_prices(bad)

    def test_caps_and_sectors(self, tmp_path, price_file):
        caps = tmp_path / "caps.csv"
        caps.write_text(PRICES_CSV)
        sectors = tmp_path / "sectors.csv"
        sectors.write_text("ticker,supersector\nAAA,tech\nBBB,energy\nCCC,tech\n")
        uni = ingest_prices(price_file, caps_path=caps, sectors_path=sectors)
        assert uni.caps.shape == (5, 3)
        assert np.isnan(uni.caps[3, 1])             # a blank cap is allowed
        assert uni.supersector[0] == uni.supersector[2] != uni.supersector[1]

    @pytest.mark.parametrize("panel", ["prices", "caps"])
    @pytest.mark.parametrize("token", NON_FINITE)
    def test_non_finite_cell_names_line_and_column(self, tmp_path, price_file,
                                                   token, panel):
        bad = tmp_path / "bad.csv"
        bad.write_text(_with_cell(token))
        with pytest.raises(IngestError, match="bad.csv line 4: .* column 4"):
            if panel == "prices":
                ingest_prices(bad)
            else:
                ingest_prices(price_file, caps_path=bad)

    def test_non_positive_price_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        for token in ("0", "-5"):
            bad.write_text(_with_cell(token))
            with pytest.raises(IngestError, match="strictly positive"):
                ingest_prices(bad)

    def test_non_positive_cap_rejected(self, tmp_path, price_file):
        bad = tmp_path / "caps.csv"
        for token in ("0", "-5"):
            bad.write_text(_with_cell(token))
            with pytest.raises(IngestError, match="caps must be strictly positive"):
                ingest_prices(price_file, caps_path=bad)

    def test_caps_missing_ticker_named(self, tmp_path, price_file):
        caps = tmp_path / "caps.csv"
        caps.write_text(PRICES_CSV.replace("BBB", "ZZZ"))
        with pytest.raises(IngestError, match="caps file missing ticker 'BBB'"):
            ingest_prices(price_file, caps_path=caps)

    def test_missing_sector_label_rejected(self, tmp_path, price_file):
        sectors = tmp_path / "sectors.csv"
        sectors.write_text("ticker,supersector\nAAA,tech\n")
        with pytest.raises(IngestError, match="BBB"):
            ingest_prices(price_file, sectors_path=sectors)


class TestCli:
    def test_selection_bias_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["selection-bias", "--out", str(out)]) == 0
        payload = json.loads((out / "selection_bias.json").read_text())
        assert payload["rho_low_factor_pct"] == "19.1%"
        assert abs(payload["beta_low_factor"]) == pytest.approx(0.0334, abs=5e-4)
        assert (out / "manifest.json").exists()
        assert "19.1%" in capsys.readouterr().out

    def test_estimate_row_count(self, tmp_path, price_file):
        out = tmp_path / "est"
        code = main(["estimate", "--prices", str(price_file),
                     "--burn-in", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "betas.csv").read_text().strip().splitlines()
        # (dates - burn_in) rows per ticker
        assert len(lines) - 1 == (5 - 1) * 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert str(price_file) in manifest["inputs"]
        assert manifest["inputs"][str(price_file)] == sha256_file(price_file)

    def test_estimate_with_a_stock_never_priced(self, tmp_path):
        # a blank column has no mean cap: it ranks last, as np.nanmean's
        # NaN did, without its empty-slice warning (an error in this suite)
        rng = np.random.default_rng(5)
        panel = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal((60, 4)), axis=0))
        panel[:, 2] = np.nan
        path = tmp_path / "prices.csv"
        _write_panel(path, panel)
        assert ingest_prices(path).supersector.tolist() == [0, 4, 2]
        assert main(["estimate", "--prices", str(path), "--burn-in", "1",
                     "--out", str(tmp_path / "est")]) == 0

    def test_estimate_bytes_match_csv_writer(self, tmp_path):
        # tickers that need quoting, one with percent signs that the row
        # templates must keep literal, and a stock frozen for a stretch of
        # days; the file must be exactly what csv.writer writes row by row
        rng = np.random.default_rng(12)
        T = 40
        panel = 100.0 * np.cumprod(1.0 + 0.01 * rng.standard_normal((T, 4)), axis=0)
        dates = np.busday_offset("2020-01-01", np.arange(T), roll="forward").astype(str)
        rows = [",".join([d] + ["" if (j == 3 and 10 <= t < 20) else f"{v:.10g}"
                                for j, v in enumerate(r)])
                for t, (d, r) in enumerate(zip(dates, panel))]
        prices = tmp_path / "prices.csv"
        prices.write_text('date,IDX,"A,%d%%B","Q""X",CCC\n' + "\n".join(rows) + "\n")
        out = tmp_path / "est"
        assert main(["estimate", "--prices", str(prices), "--burn-in", "1",
                     "--out", str(out)]) == 0

        uni = ingest_prices(prices)
        assert uni.tickers == ("A,%d%%B", 'Q"X', "CCC")
        panels = compute_panels(uni, ReactiveParams(burn_in=1))
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["date", "ticker", "reactive_beta", "ols_beta",
                         "reactive_sigma", "ols_sigma"])
        for t in range(1, T):
            for j, ticker in enumerate(uni.tickers):
                writer.writerow([uni.dates[t], ticker,
                                 f"{panels.re_beta[t, j]:.8g}", f"{panels.ols_beta[t, j]:.8g}",
                                 f"{panels.re_sigma[t, j]:.8g}", f"{panels.ols_sigma[t, j]:.8g}"])
        written = (out / "betas.csv").read_bytes()
        assert b"nan" in written
        assert written == expected.getvalue().encode()

    def test_simulate_report_schema(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["simulate", "--model", "mc1", "--estimator", "ols,reactive",
                     "--paths", "50", "--days", "300", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "simulate.json").read_text())
        rows = payload["mc1"]["rows"]
        assert set(rows) == {"ols", "reactive"}
        for row in rows.values():
            for key in ("bias", "absd", "variance_ratio", "n", "n_skipped"):
                assert key in row
        table = (out / "table_mc1.tsv").read_text().splitlines()
        assert table[0].split("\t")[0] == "estimator"
        assert len(table) == 3

    def test_simulate_reports_dcc_diagnostics(self, tmp_path, monkeypatch):
        # a path whose stock is the index drives rho_bar to its bound, where
        # the rho clamp holds; the (A)DCC counts sit beside the rows, which
        # keep their schema
        import dataclasses

        import reactivebeta.benchmark as benchmark

        def one_path_is_the_index(config, offset=0, count=None, tracks=True):
            batch = generate(config, offset, count, tracks)
            r_stock = batch.r_stock.copy()
            r_stock[0] = batch.r_index[0]
            return dataclasses.replace(batch, r_stock=r_stock)

        generate = benchmark.generate_batch
        monkeypatch.setattr(benchmark, "generate_batch", one_path_is_the_index)
        out = tmp_path / "sim"
        code = main(["simulate", "--model", "mc6", "--estimator", "ols,dcc,adcc",
                     "--paths", "6", "--days", "200", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "simulate.json").read_text())["mc6"]
        assert set(payload["rows"]) == {"ols", "dcc", "adcc"}
        assert set(payload["diagnostics"]) == {"dcc", "adcc"}
        for counts in payload["diagnostics"].values():
            assert counts["paths"] == 6
            assert counts["at_bound"] >= 1
            assert counts["converged"] + counts["at_bound"] <= 6
            assert 6 <= counts["evaluations"] <= 6 * 40
            assert counts["rho_clamped_days"] >= 1
        diagnostics, seconds = _diagnostics(out)
        assert set(diagnostics["mc6"].pop("seconds")) == {"generate", "ols", "dcc", "adcc"}
        assert diagnostics == {"mc6": {"clamped": 0, "clamped_index": 0, "clamped_rho": 0,
                                       **payload["diagnostics"]}}
        assert set(seconds) == {"mc6"}

    def test_simulate_reports_price_floor_hits(self, tmp_path, monkeypatch):
        # vols far beyond a market's floor both sides of mc3; the hits are
        # summed over blocks of paths, each side apart
        import reactivebeta.benchmark as benchmark
        import reactivebeta.montecarlo as mc

        batches = []

        def recorded(config, offset=0, count=None, tracks=True):
            batches.append(generate(config, offset, count, tracks))
            return batches[-1]

        generate = benchmark.generate_batch
        monkeypatch.setattr(benchmark, "generate_batch", recorded)
        monkeypatch.setattr(mc, "_STOCK_VOL", 6.0)
        monkeypatch.setattr(mc, "_INDEX_VOL", 3.0)
        monkeypatch.setattr(benchmark, "_BLOCK_PATHS", 16)
        out = tmp_path / "sim"
        code = main(["simulate", "--model", "mc3", "--estimator", "ols",
                     "--paths", "40", "--days", "100", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert len(batches) == 3
        clamped = sum(b.clamped for b in batches)
        clamped_index = sum(b.clamped_index for b in batches)
        assert clamped > 0 and clamped_index > 0
        payload = json.loads((out / "simulate.json").read_text())["mc3"]
        assert (payload["clamped"], payload["clamped_index"]) == (clamped, clamped_index)
        diagnostics, seconds = _diagnostics(out)
        assert set(diagnostics["mc3"].pop("seconds")) == {"generate", "ols"}
        assert diagnostics == {"mc3": {"clamped": clamped, "clamped_index": clamped_index,
                                       "clamped_rho": 0}}
        assert set(seconds) == {"mc3"}

    def test_simulate_reports_generator_rho_clamp(self, tmp_path, monkeypatch):
        # rho_bar = 0.999 puts mc6's correlation on its clamp on many
        # path-days; the count is summed over blocks beside the floor hits
        import reactivebeta.benchmark as benchmark
        import reactivebeta.montecarlo as mc

        batches = []

        def recorded(config, offset=0, count=None, tracks=True):
            batches.append(generate(config, offset, count, tracks))
            return batches[-1]

        generate = benchmark.generate_batch
        monkeypatch.setattr(benchmark, "generate_batch", recorded)
        monkeypatch.setattr(mc, "_INDEX_VOL", 0.3996)
        monkeypatch.setattr(benchmark, "_BLOCK_PATHS", 16)
        out = tmp_path / "sim"
        code = main(["simulate", "--model", "mc6", "--estimator", "ols",
                     "--paths", "40", "--days", "100", "--seed", "0", "--out", str(out)])
        assert code == 0
        assert len(batches) == 3
        clamped_rho = sum(b.clamped_rho for b in batches)
        assert clamped_rho > 0
        assert json.loads((out / "simulate.json").read_text())["mc6"]["clamped_rho"] \
            == clamped_rho
        diagnostics, _ = _diagnostics(out)
        assert diagnostics["mc6"]["clamped_rho"] == clamped_rho

    def test_simulate_times_each_estimator(self, tmp_path, monkeypatch):
        # generation and every estimator run, the implicit ols too, summed
        # over blocks and within the model's stage; simulate.json unchanged
        import reactivebeta.benchmark as benchmark
        monkeypatch.setattr(benchmark, "_BLOCK_PATHS", 16)
        out = tmp_path / "sim"
        assert main(["simulate", "--model", "mc1,mc3", "--estimator", "reactive,mad",
                     "--paths", "40", "--days", "100", "--out", str(out)]) == 0
        diagnostics, stages = _diagnostics(out)
        for model in ("mc1", "mc3"):
            seconds = diagnostics[model]["seconds"]
            assert set(seconds) == {"generate", "ols", "reactive", "mad"}
            assert all(s >= 0.0 for s in seconds.values())
            assert sum(seconds.values()) <= stages[model]
            assert "seconds" not in json.loads((out / "simulate.json").read_text())[model]

    def test_simulate_dump_paths(self, tmp_path):
        out = tmp_path / "dump"
        code = main(["simulate", "--model", "mc3", "--estimator", "ols",
                     "--paths", "20", "--days", "50", "--dump-paths", "4",
                     "--out", str(out)])
        assert code == 0
        dump = (out / "paths_mc3.csv").read_text().splitlines()
        assert dump[0].startswith("path_id,t,")
        assert len(dump) == 1 + 4 * 50

    def test_simulate_reproducible(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["simulate", "--model", "mc1", "--estimator", "ols",
                  "--paths", "30", "--days", "200", "--seed", "11",
                  "--out", str(out)])
            paths.append(json.loads((out / "simulate.json").read_text()))
        assert paths[0] == paths[1]

    def test_backtest_synthetic(self, tmp_path):
        out = tmp_path / "bt"
        code = main(["backtest", "--synthetic", "--stocks", "40", "--days", "500",
                     "--strategy", "reversal", "--beta-source", "both",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "backtest.json").read_text())
        assert set(payload["reversal"]) == {"ols", "reactive"}
        for row in payload["reversal"].values():
            assert -1.0 <= row["bias"] <= 1.0
            assert row["corstd"] >= 0.0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["stocks"], config["days"], config["seed"]) == (40, 500, 2)

    def test_backtest_from_files_records_no_synthetic_settings(self, tmp_path, csv_panel):
        # --stocks, --days and --seed shape the --synthetic universe only
        cfg = tmp_path / "run.ini"
        cfg.write_text("[reactive]\nburn_in = 100\n")
        out = tmp_path / "bt"
        assert main(["backtest", "--prices", str(csv_panel.prices), "--caps",
                     str(csv_panel.caps), "--config", str(cfg), "--strategy", "reversal",
                     "--stocks", "3", "--days", "7", "--seed", "99", "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["synthetic"] is False
        assert not {"stocks", "days", "seed"} & set(config)

    def test_calibrate_ell(self, tmp_path):
        rng = np.random.default_rng(0)
        T = 400
        lf = np.zeros(T)
        for t in range(1, T):
            lf[t] = 0.85 * lf[t - 1] + 0.006 * rng.standard_normal()
        rho = 0.5 * (1 + 1.82 * lf) + 0.002 * rng.standard_normal(T)
        data = tmp_path / "ici.csv"
        day = dt.date(2020, 1, 1)
        lines = ["date,correlation,leverage"]
        for t in range(T):
            lines.append(f"{day + dt.timedelta(days=t)},{rho[t]:.8f},{lf[t]:.8f}")
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "ell"
        assert main(["calibrate-ell", "--data", str(data), "--out", str(out)]) == 0
        payload = json.loads((out / "calibrate_ell.json").read_text())
        assert payload["slope"] == pytest.approx(1.82, abs=0.6)
        assert (out / "calibrate_ell_points.csv").exists()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["estimate", "--prices", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 1
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("panel", ["--prices", "--caps"])
    def test_non_finite_cell_exit_code(self, tmp_path, capsys, price_file, panel):
        bad = tmp_path / "bad.csv"
        bad.write_text(_with_cell("-inf"))
        files = {"--prices": price_file, "--caps": price_file, panel: bad}
        argv = ["estimate", "--out", str(tmp_path / "o")]
        for flag, path in files.items():
            argv += [flag, str(path)]
        assert main(argv) == 1
        assert "bad.csv line 4" in capsys.readouterr().err

    def test_file_with_two_faults_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(HEAD + "\n2020-01-01,1,abc,3\n2020-01-02,4,nan,6\n")
        assert main(["estimate", "--prices", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert ("bad.csv line 2: bad number 'abc' in column 3" in err
                or "bad.csv line 3: non-finite number (nan) in column 3" in err)

    @pytest.mark.parametrize("command", ["estimate", "backtest", "simulate"])
    def test_manifest_stage_seconds(self, tmp_path, csv_panel, command):
        out = tmp_path / command
        if command == "simulate":
            argv = ["simulate", "--model", "mc1,mc3", "--paths", "20", "--days", "100"]
            stages = {"mc1", "mc3"}
        else:
            cfg = tmp_path / "run.ini"
            cfg.write_text("[reactive]\nburn_in = 100\n")
            argv = [command, "--prices", str(csv_panel.prices), "--caps", str(csv_panel.caps),
                    "--config", str(cfg)]
            stages = STAGES[command]
            if command == "backtest":
                argv += ["--strategy", "reversal"]
        assert main(argv + ["--out", str(out)]) == 0
        _, seconds = _diagnostics(out)
        assert set(seconds) == stages
        assert all(isinstance(s, float) and s >= 0.0 for s in seconds.values())

    @pytest.mark.parametrize("token", ["0", "-5"])
    def test_non_positive_cap_exit_code(self, tmp_path, capsys, price_file, token):
        caps = tmp_path / "caps.csv"
        caps.write_text(_with_cell(token))
        assert main(["estimate", "--prices", str(price_file), "--caps", str(caps),
                     "--out", str(tmp_path / "o")]) == 1
        assert "caps must be strictly positive" in capsys.readouterr().err

    def test_bad_estimator_exit_code(self, tmp_path, capsys):
        assert main(["simulate", "--estimator", "magic",
                     "--out", str(tmp_path / "o")]) == 1

    def test_bad_estimator_among_good_ones_runs_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["simulate", "--estimator", "ols,nope", "--paths", "4", "--days", "50",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'nope'" in err and "pick from" in err
        assert not list(out.glob("table_*.tsv"))

    def test_config_overrides(self, tmp_path, price_file):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[reactive]\nlambda_beta = 0.02\nburn_in = 1\n")
        out = tmp_path / "cfg"
        assert main(["estimate", "--prices", str(price_file),
                     "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["params"]["lambda_beta"] == 0.02

    def test_config_values_parse_by_the_type_of_their_default(self, tmp_path, csv_panel):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[reactive]\nhat_normalize = no\nburn_in = 10\nphi = 2\n")
        out = tmp_path / "typed"
        assert main(["estimate", "--prices", str(csv_panel.prices),
                     "--config", str(cfg), "--out", str(out)]) == 0
        params = json.loads((out / "manifest.json").read_text())["config"]["params"]
        assert params["hat_normalize"] is False
        assert params["burn_in"] == 10 and isinstance(params["burn_in"], int)
        assert params["phi"] == 2.0 and isinstance(params["phi"], float)

    def test_unknown_config_key_rejected(self, tmp_path, price_file):
        cfg = tmp_path / "run.ini"
        for key in ("mystery", "elasticity_hi"):    # the latter is no parameter
            cfg.write_text(f"[reactive]\n{key} = 1\n")
            assert main(["estimate", "--prices", str(price_file),
                         "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_config_without_reactive_section_rejected(self, tmp_path, capsys, price_file):
        cfg = tmp_path / "run.ini"
        cfg.write_text("# lambda_beta = 0.02\n")
        assert main(["estimate", "--prices", str(price_file),
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "no [reactive] section" in err

    @pytest.mark.parametrize("text", ["[reactiv]\nphi = 2\n",
                                      "[reactive]\nphi = 2\n[reactiv]\nburn_in = 1\n"])
    def test_config_other_section_rejected(self, tmp_path, capsys, price_file, text):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert main(["estimate", "--prices", str(price_file),
                     "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "unknown section [reactiv]" in capsys.readouterr().err

    def test_manifest_versions(self, tmp_path):
        import reactivebeta

        out = tmp_path / "v"
        main(["selection-bias", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"]["reactivebeta"] == reactivebeta.__version__
        assert "numpy" in manifest["versions"]
        assert "python" in manifest["versions"]
        assert manifest["command"] == "selection-bias"

    def test_manifest_records_the_arguments_main_parsed(self, tmp_path):
        argv = ["selection-bias", "--p", "0.25", "--out", str(tmp_path / "a")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["argv"] == argv

    @pytest.mark.parametrize("command, stage, error", [
        ("estimate", "compute_panels", FloatingPointError),
        ("backtest", "run_backtest", np.linalg.LinAlgError),
        ("simulate", "run_benchmark", NumericalFailure),
    ])
    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch, price_file,
                                         command, stage, error):
        # each command fails inside its own stage, with one of the three
        # errors main reads as a numerical failure
        import reactivebeta.cli as cli

        def boom(*args, **kwargs):
            raise error("variance recursion diverged")

        monkeypatch.setattr(cli, stage, boom)
        inputs = {"estimate": ["--prices", str(price_file), "--burn-in", "1"],
                  "backtest": ["--prices", str(price_file)], "simulate": []}[command]
        code = cli.main([command, *inputs, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "numerical failure: variance recursion diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--paths", "abc"],
        ["simulate", "--no-such-flag"],
        ["estimate"],
        ["backtest", "--synthetic", "--strategy", "nope"],
        ["estimate", "--prices", "p.csv", "--seed", "1"],
        ["selection-bias", "--config", "run.ini"],
    ], ids=["bad-int", "unknown-flag", "missing-prices", "bad-choice", "estimate-seed",
            "selection-bias-config"])
    def test_usage_error_exit_code(self, tmp_path, capsys, argv):
        # a usage error is an input error, not the numerical failure's 2
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_help_exit_code(self, capsys):
        assert main(["simulate", "--help"]) == 0
        assert "--paths" in capsys.readouterr().out

    @pytest.mark.parametrize("fault", ["prices-is-a-directory", "out-is-a-file"])
    def test_os_error_exit_code(self, tmp_path, capsys, price_file, fault):
        prices, out = price_file, tmp_path / "o"
        if fault == "prices-is-a-directory":
            prices = tmp_path / "panel"
            prices.mkdir()
        else:
            out.write_text("taken")
        assert main(["estimate", "--prices", str(prices), "--burn-in", "1",
                     "--out", str(out)]) == 1
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "backtest"])
    def test_panel_without_a_stock_exit_code(self, tmp_path, capsys, command):
        prices = tmp_path / "index_only.csv"
        prices.write_text("date,INDEX\n2020-01-01,100\n2020-01-02,101\n2020-01-03,99\n")
        out = tmp_path / "o"
        assert main([command, "--prices", str(prices), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "input error: index_only.csv: no stock column" in err, err
        assert not out.exists()

    def test_every_flag_is_read(self):
        # each flag of a subcommand is loaded as args.<dest> by its command
        # function or by a function of the module it passes args to
        import ast
        import inspect

        import reactivebeta.cli as cli

        def attributes_read(fn, seen):
            tree = ast.parse(inspect.getsource(fn))
            read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                    and isinstance(n.value, ast.Name) and n.value.id == "args"}
            for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
                helper = getattr(cli, getattr(call.func, "id", ""), None)
                passes_args = any(isinstance(a, ast.Name) and a.id == "args" for a in call.args)
                if passes_args and inspect.isfunction(helper) and helper not in seen:
                    seen.add(helper)
                    read |= attributes_read(helper, seen)
            return read

        (sub,) = (a for a in build_parser()._actions if a.choices)
        assert set(sub.choices) == {"estimate", "simulate", "backtest", "selection-bias",
                                    "calibrate-ell"}
        for name, parser in sub.choices.items():
            func = parser.get_default("func")
            dests = {a.dest for a in parser._actions if a.dest != "help"}
            assert dests - attributes_read(func, {func}) == set(), name

    @pytest.mark.parametrize("command", ["estimate", "backtest"])
    def test_all_nan_beta_panel_exit_code(self, tmp_path, capsys, command):
        # a constant index leaves the regression without variance, so no
        # stock gets a reactive beta after the burn-in
        rng = np.random.default_rng(4)
        panel = np.column_stack([np.full(40, 100.0), 100.0 * np.cumprod(
            1.0 + 0.01 * rng.standard_normal((40, 3)), axis=0)])
        prices = tmp_path / "flat.csv"
        _write_panel(prices, panel)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[reactive]\nburn_in = 1\n")
        code = main([command, "--prices", str(prices), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "no stock has a finite reactive beta" in capsys.readouterr().err

    def test_manifest_counts_frozen_stock_days(self, tmp_path):
        uni = synthetic_universe(n_stocks=40, T=400, seed=3)
        panel = np.column_stack([uni.index_prices, uni.prices])
        panel[100:110, 1] = np.nan      # stock 0: a 10-day run
        panel[395:, 2] = np.nan         # stock 1: blank through the last day
        panel[1:, 3] = np.nan           # stock 2: never priced after day 0
        prices = tmp_path / "prices.csv"
        _write_panel(prices, panel)
        for command in ("estimate", "backtest"):
            out = tmp_path / command
            argv = [command, "--prices", str(prices), "--out", str(out)]
            if command == "backtest":
                argv += ["--strategy", "reversal"]
            assert main(argv) == 0
            diagnostics, seconds = _diagnostics(out)
            diagnostics.pop("rolling_windows", None)
            # the default model's corrections stay off their floors
            assert diagnostics == {"frozen_stock_days": 10 + 5 + 399,
                                   "leverage_floor_stock_days": 0,
                                   "elasticity_floor_stock_days": 0, "nan_final_betas": 1}
            assert set(seconds) == STAGES[command]
        assert "diagnostics" not in json.loads((tmp_path / "backtest" / "backtest.json")
                                               .read_text())

    def test_manifest_counts_rolling_windows(self, tmp_path, csv_panel):
        # one count pair per strategy and beta source, backtest.json as before
        cfg = tmp_path / "run.ini"
        cfg.write_text("[reactive]\nburn_in = 100\n")
        out = tmp_path / "bt"
        assert main(["backtest", "--prices", str(csv_panel.prices), "--caps",
                     str(csv_panel.caps), "--config", str(cfg), "--strategy", "reversal",
                     "--out", str(out)]) == 0
        windows = _diagnostics(out)[0]["rolling_windows"]
        report = json.loads((out / "backtest.json").read_text())
        assert set(windows) == {"reversal"} and set(windows["reversal"]) == {"ols", "reactive"}
        for source, counts in windows["reversal"].items():
            assert set(counts) == {"n_windows", "n_undefined_windows"}
            assert counts["n_windows"] == report["reversal"][source]["n_days"] - 89
            assert 0 <= counts["n_undefined_windows"] < counts["n_windows"]
            assert set(report["reversal"][source]) == {"bias", "corstd", "n_days",
                                                       "skipped_days"}

    @staticmethod
    def _sector_file(path, tickers, skip=None):
        """Text labels for ``tickers`` in sectors of 22, 15, 8, 4 and 1
        stocks, shuffled over the columns; ``skip`` is left out."""
        labels = np.repeat(["Tech", "Banks", "Oil", "Utilities", "Media"], [22, 15, 8, 4, 1])
        labels = np.random.default_rng(7).permutation(labels)
        path.write_text("ticker,supersector\n" + "".join(
            f"{t},{label}\n" for t, label in zip(tickers, labels) if t != skip))
        return path

    @pytest.mark.parametrize("strategy", ["reversal", "size"])
    def test_backtest_with_sector_file(self, tmp_path, csv_panel, strategy):
        files = ["--prices", str(csv_panel.prices), "--caps", str(csv_panel.caps)]
        tickers = [f"S{j:02d}" for j in range(50)]
        sectors = self._sector_file(tmp_path / "sectors.csv", tickers)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[reactive]\nburn_in = 100\n")
        out = tmp_path / "bt"
        assert main(["backtest", *files, "--sectors", str(sectors), "--config", str(cfg),
                     "--strategy", strategy, "--out", str(out)]) == 0
        universe = ingest_prices(csv_panel.prices, caps_path=csv_panel.caps,
                                 sectors_path=sectors)
        assert sorted(np.bincount(universe.supersector)) == [1, 4, 8, 15, 22]
        params = ReactiveParams(burn_in=100)
        panels = compute_panels(universe, params)
        expect = {}
        for source in ("ols", "reactive"):
            result = backtest(universe, strategy, source, params, panels=panels)
            expect[source] = {"bias": result.report.bias, "corstd": result.report.corstd,
                              "n_days": len(result.returns),
                              "skipped_days": result.skipped_days}
        assert json.loads((out / "backtest.json").read_text()) == {strategy: expect}

    def test_sector_file_missing_a_ticker_exit_code(self, tmp_path, capsys, csv_panel):
        tickers = [f"S{j:02d}" for j in range(50)]
        sectors = self._sector_file(tmp_path / "sectors.csv", tickers, skip="S07")
        assert main(["backtest", "--prices", str(csv_panel.prices), "--caps",
                     str(csv_panel.caps), "--sectors", str(sectors), "--strategy", "reversal",
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and "'S07'" in err

    @pytest.mark.parametrize("rows, named", [
        ("AAA,Tech\nBBB,Banks\nAAA,Banks\nCCC,\n", ("'AAA'", "line 2", "line 4")),
        ("AAA,Tech\nBBB,Banks\nCCC,\n", ("'CCC'", "line 4")),
    ], ids=["conflicting", "blank"])
    def test_sector_file_bad_label_exit_code(self, tmp_path, capsys, price_file, rows, named):
        sectors = tmp_path / "sectors.csv"
        sectors.write_text("ticker,supersector\n" + rows)
        assert main(["estimate", "--prices", str(price_file), "--sectors", str(sectors),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "input error" in err and all(s in err for s in named), err

    def test_stock_listed_after_first_day_gets_a_beta(self, tmp_path):
        # S1 has no price on days 0-2: it is seeded on day 3 and has a
        # reactive beta from day 4 on, and S0 reads as without S1
        uni = synthetic_universe(n_stocks=2, T=60, seed=5)
        panel = np.column_stack([uni.index_prices, uni.prices])
        panel[:3, 2] = np.nan
        rows = {}
        for name, cols in (("both", [0, 1, 2]), ("a_only", [0, 1])):
            prices = tmp_path / f"{name}.csv"
            _write_panel(prices, panel[:, cols])
            out = tmp_path / name
            assert main(["estimate", "--prices", str(prices), "--burn-in", "1",
                         "--out", str(out)]) == 0
            lines = (out / "betas.csv").read_text().splitlines()[1:]
            rows[name] = {t: [r for r in lines if r.split(",")[1] == t] for t in ("S0", "S1")}
        assert rows["both"]["S0"] == rows["a_only"]["S0"]
        b = np.array([[float(v) for v in r.split(",")[2:]] for r in rows["both"]["S1"]])
        reactive = b[:, [0, 2]]                     # reactive_beta, reactive_sigma; day 1 on
        assert np.isnan(reactive[:2]).all()
        assert np.isnan(reactive[2, 0])             # day 3 is seeded, without a return
        assert np.isfinite(reactive[3:]).all()

    def test_panel_within_burn_in_exit_code(self, tmp_path, capsys, price_file):
        out = tmp_path / "o"
        for burn_in in ("250", "5"):                # the default, and the edge
            assert main(["estimate", "--prices", str(price_file), "--out", str(out),
                         "--burn-in", burn_in]) == 1
            assert f"5 days leave none after the burn-in of {burn_in}" \
                in capsys.readouterr().err
        assert not (out / "betas.csv").exists()

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_calibrate_ell_non_finite_cell_exit_code(self, tmp_path, capsys, token):
        data = tmp_path / "ici.csv"
        data.write_text("date,correlation,leverage\n2020-01-01,0.5,0.01\n"
                        f"2020-01-02,{token},0.02\n2020-01-03,0.4,0.0\n")
        out = tmp_path / "ell"
        assert main(["calibrate-ell", "--data", str(data), "--out", str(out)]) == 1
        assert "ici.csv line 3: non-finite number" in capsys.readouterr().err
        assert not (out / "calibrate_ell.json").exists()

    @pytest.mark.parametrize("date, fault", [("2020-01-02", "duplicate date"),
                                             ("2019-12-31", "strictly increasing")])
    def test_calibrate_ell_date_out_of_order_exit_code(self, tmp_path, capsys, date, fault):
        data = tmp_path / "ici.csv"
        data.write_text("date,correlation,leverage\n2020-01-01,0.5,0.01\n"
                        f"2020-01-02,0.6,0.02\n{date},0.4,0.0\n")
        out = tmp_path / "ell"
        assert main(["calibrate-ell", "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "ici.csv line 4" in err and fault in err
        assert not (out / "calibrate_ell.json").exists()

    @pytest.mark.parametrize("text, fault", [
        ("date,correlation\n2020-01-01,0.5\n", "expected columns date,correlation,leverage"),
        ("date,correlation,leverage\n2020-01-01,0.5,0.01\n2020-01-02,,0.02\n",
         "blank cell on 2020-01-02"),
    ])
    def test_calibrate_ell_malformed_columns_exit_code(self, tmp_path, capsys, text, fault):
        data = tmp_path / "ici.csv"
        data.write_text(text)
        assert main(["calibrate-ell", "--data", str(data), "--out", str(tmp_path / "ell")]) == 1
        assert f"ici.csv: {fault}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--stocks", "--days"])
    def test_backtest_empty_synthetic_universe_exit_code(self, tmp_path, capsys, flag):
        assert main(["backtest", "--synthetic", flag, "0", "--out", str(tmp_path / "o")]) == 1
        assert "input error" in capsys.readouterr().err

    def test_estimator_without_valid_path_exit_code(self, tmp_path, capsys,
                                                    monkeypatch):
        import reactivebeta.benchmark as benchmark

        monkeypatch.setattr(benchmark, "ols_beta_batch",
                            lambda x, y, lam: np.full(len(x), np.nan))
        code = main(["simulate", "--model", "mc1", "--estimator", "ols",
                     "--paths", "10", "--days", "60", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "no valid paths" in capsys.readouterr().err
