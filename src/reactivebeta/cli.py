"""Command-line surface.

Five subcommands: ``estimate`` (per-stock betas over time from a price
panel), ``simulate`` (the estimator benchmark on synthetic models),
``backtest`` (beta-neutral strategies under both beta sources),
``selection-bias`` (closed-form factor bias) and ``calibrate-ell``
(leverage-gap regression on supplied series). Every run writes its
outputs plus a manifest under ``--out``.

Exit codes: 0 success, 1 input error (a usage error too), 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import io
import sys
import time
from pathlib import Path

import numpy as np

from . import io as rio
from .benchmark import ESTIMATORS, run_benchmark
from .evaluation import (
    NumericalFailure,
    SelectionBiasInputs,
    calibrate_ell_diff,
    selection_bias,
)
from .params import DEFAULT_PARAMS, ReactiveParams
from .strategies import (
    STRATEGIES,
    backtest as run_backtest,
    compute_panels,
    synthetic_universe,
)

__all__ = ["main"]


def _load_params(config_path) -> ReactiveParams:
    if config_path is None:
        return ReactiveParams()
    parser = configparser.ConfigParser()
    read = parser.read(config_path)
    if not read:
        raise rio.IngestError(f"config file {config_path} not found")
    for name in parser.sections():
        if name != "reactive":
            raise rio.IngestError(f"{config_path}: unknown section [{name}]; "
                                  f"expected [reactive] only")
    if not parser.has_section("reactive"):
        raise rio.IngestError(f"{config_path}: no [reactive] section")
    section = parser["reactive"]
    defaults = DEFAULT_PARAMS.__dict__
    # each value parses by the type of its default
    parse = {bool: section.getboolean, int: section.getint, float: section.getfloat}
    kwargs = {}
    for key in section:
        if key not in defaults:
            raise rio.IngestError(f"unknown reactive parameter {key!r} in config")
        kwargs[key] = parse[type(defaults[key])](key)
    return ReactiveParams(**kwargs)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it inside a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-3]


class _Laps:
    """Wall seconds of a command's stages, each timed from the end of the
    one before (the first from construction)."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def __call__(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = now - self._last
        self._last = now


def _reactive_diagnostics(panels, burn_in: int) -> dict:
    """The manifest's counts for the reactive panel; NumericalFailure when
    days follow the burn-in and no stock has a finite beta on any."""
    after = panels.re_beta[max(1, burn_in):]
    if after.size and not np.isfinite(after).any():
        raise NumericalFailure("no stock has a finite reactive beta after burn-in")
    return {"frozen_stock_days": panels.frozen_stock_days,
            "leverage_floor_stock_days": panels.leverage_floor_stock_days,
            "elasticity_floor_stock_days": panels.elasticity_floor_stock_days,
            "nan_final_betas": int(np.count_nonzero(~np.isfinite(panels.re_beta[-1])))}


def _cmd_estimate(args) -> int:
    params = _load_params(args.config)
    if args.burn_in is not None:
        params = dataclasses.replace(params, burn_in=args.burn_in)
    lap = _Laps()
    universe = rio.ingest_prices(args.prices, index_ticker=args.index,
                                 caps_path=args.caps, sectors_path=args.sectors)
    lap("ingest")
    start = max(1, params.burn_in)
    if universe.n_days <= start:
        raise rio.IngestError(f"{args.prices}: {universe.n_days} days leave none "
                              f"after the burn-in of {params.burn_in}")
    panels = compute_panels(universe, params)
    diagnostics = _reactive_diagnostics(panels, params.burn_in)
    lap("panels")
    out = _out_dir(args)
    dest = out / "betas.csv"
    # csv.writer's bytes, one %-format and one write per day: each ticker
    # is quoted once into its row template, each date once a day
    rows = ["," + _csv_field(ticker).replace("%", "%%") + ",%.8g,%.8g,%.8g,%.8g\r\n"
            for ticker in universe.tickers]
    columns = (panels.re_beta, panels.ols_beta, panels.re_sigma, panels.ols_sigma)
    with dest.open("w", newline="") as fh:
        fh.write("date,ticker,reactive_beta,ols_beta,reactive_sigma,ols_sigma\r\n")
        for t in range(start, universe.n_days):
            date = _csv_field(universe.dates[t]).replace("%", "%%")
            cells = np.stack([c[t] for c in columns], axis=1).ravel().tolist()
            fh.write("".join([date + row for row in rows]) % tuple(cells))
    lap("write")
    diagnostics["stage_seconds"] = lap.seconds
    inputs = [p for p in (args.prices, args.caps, args.sectors) if p]
    rio.write_manifest(out / "manifest.json", "estimate",
                       {"params": params.__dict__, "burn_in": params.burn_in},
                       inputs=inputs, outputs=[dest], diagnostics=diagnostics,
                       argv=args.argv)
    print(f"wrote {dest}")
    return 0


def _cmd_simulate(args) -> int:
    params = _load_params(args.config)
    estimators = [e.strip() for e in args.estimator.split(",") if e.strip()]
    out = _out_dir(args)
    results = {}
    lap = _Laps()
    for model in args.model.split(","):
        model = model.strip()
        result = run_benchmark(model, estimators, n_paths=args.paths,
                               T=args.days, seed=args.seed, params=params)
        results[model] = result
        rio.write_table_report(out / f"table_{model}.tsv", result.rows)
        if args.dump_paths:
            from .montecarlo import McConfig, dump_batch, generate_batch
            batch = generate_batch(McConfig(model=model, T=args.days,
                                            n_paths=min(args.paths, args.dump_paths),
                                            seed=args.seed))
            dump_batch(batch, out / f"paths_{model}.csv")
        lap(model)
    payload = {m: r.to_dict() for m, r in results.items()}
    dest = out / "simulate.json"
    rio.write_json(dest, payload)
    diagnostics = {m: {"clamped": r.clamped, "clamped_index": r.clamped_index,
                       "clamped_rho": r.clamped_rho, **r.diagnostics, "seconds": r.seconds}
                   for m, r in results.items()}
    diagnostics["stage_seconds"] = lap.seconds
    rio.write_manifest(out / "manifest.json", "simulate",
                       {"model": args.model, "estimators": estimators,
                        "paths": args.paths, "days": args.days,
                        "seed": args.seed, "params": params.__dict__},
                       outputs=[dest], diagnostics=diagnostics, argv=args.argv)
    for model, result in results.items():
        for name, row in result.rows.items():
            print(f"{model} {name}: bias={row.bias:+.3f}{'*' if row.bias_star else ' '} "
                  f"absd={row.absd:.3f} vratio={row.variance_ratio:.2f}")
    return 0


def _cmd_backtest(args) -> int:
    params = _load_params(args.config)
    lap = _Laps()
    config = {"strategy": args.strategy, "beta_source": args.beta_source,
              "synthetic": bool(args.synthetic)}
    if args.synthetic:
        universe = synthetic_universe(n_stocks=args.stocks, T=args.days,
                                      seed=args.seed, params=params)
        inputs = []
        config.update(stocks=args.stocks, days=args.days, seed=args.seed)
    else:
        if not args.prices:
            raise rio.IngestError("provide --prices or --synthetic")
        universe = rio.ingest_prices(args.prices, index_ticker=args.index,
                                     caps_path=args.caps, sectors_path=args.sectors)
        inputs = [p for p in (args.prices, args.caps, args.sectors) if p]
    lap("ingest")
    panels = compute_panels(universe, params)
    diagnostics = _reactive_diagnostics(panels, params.burn_in)
    lap("panels")
    strategies = list(STRATEGIES) if args.strategy == "all" else [args.strategy]
    sources = ["ols", "reactive"] if args.beta_source == "both" else [args.beta_source]

    out = _out_dir(args)
    report, windows = {}, {}
    for strat in strategies:
        report[strat], windows[strat] = {}, {}
        for source in sources:
            result = run_backtest(universe, strat, source, params, panels=panels)
            report[strat][source] = {
                "bias": result.report.bias,
                "corstd": result.report.corstd,
                "n_days": len(result.returns),
                "skipped_days": result.skipped_days,
            }
            windows[strat][source] = {
                "n_windows": result.report.n_windows,
                "n_undefined_windows": result.report.n_undefined_windows,
            }
            print(f"{strat:<10} {source:<9} bias={result.report.bias:+.4f} "
                  f"corstd={result.report.corstd:.4f}")
    lap("backtests")
    diagnostics["rolling_windows"] = windows
    diagnostics["stage_seconds"] = lap.seconds
    dest = out / "backtest.json"
    rio.write_json(dest, report)
    rio.write_manifest(out / "manifest.json", "backtest",
                       {**config, "params": params.__dict__},
                       inputs=inputs, outputs=[dest], diagnostics=diagnostics,
                       argv=args.argv)
    return 0


def _cmd_selection_bias(args) -> int:
    inputs = SelectionBiasInputs(
        sigma_beta=args.sigma_beta, p=args.p, sigma_index=args.sigma_index,
        vol_ratio=args.vol_ratio, lambda_beta=args.lambda_beta,
        factor_vol=args.factor_vol, sigma_eta=args.sigma_eta,
    )
    result = selection_bias(inputs)
    payload = {
        "inputs": inputs.__dict__,
        "B": result.B,
        "beta_low_factor": result.beta_low_factor,
        "rho_low_factor": result.rho_low_factor,
        "rho_low_factor_pct": f"{100.0 * result.rho_low_factor:.1f}%",
        "sigma_eta": result.sigma_eta,
        "q": result.q,
    }
    out = _out_dir(args)
    dest = out / "selection_bias.json"
    rio.write_json(dest, payload)
    rio.write_manifest(out / "manifest.json", "selection-bias",
                       payload["inputs"], outputs=[dest], argv=args.argv)
    print(f"selection bias B={result.B:.4f} beta_low={result.beta_low_factor:+.4f} "
          f"rho_low={100.0 * result.rho_low_factor:.1f}%")
    return 0


def _cmd_calibrate_ell(args) -> int:
    dates, _, values = rio._read_panel(args.data)
    name = Path(args.data).name
    if values.shape[1] < 2:
        raise rio.IngestError(f"{name}: expected columns date,correlation,leverage")
    blank = np.isnan(values[:, :2]).any(axis=1)
    if blank.any():
        raise rio.IngestError(f"{name}: blank cell on {dates[int(np.argmax(blank))]}")
    corr, lev = values[:, 0], values[:, 1]
    fit = calibrate_ell_diff(corr, lev)
    out = _out_dir(args)
    payload = {
        "slope": fit.slope, "stderr": fit.stderr, "tstat": fit.tstat,
        "r2": fit.r2, "n": fit.n, "ell_diff": fit.ell_diff,
        "intercept": fit.intercept,
    }
    dest = out / "calibrate_ell.json"
    rio.write_json(dest, payload)
    rio.write_plot_data(out / "calibrate_ell_points.csv",
                        np.diff(lev), np.diff(corr / corr.mean()),
                        fit=payload, labels=("leverage_variation", "correlation_variation"))
    rio.write_manifest(out / "manifest.json", "calibrate-ell",
                       {"data": str(args.data)}, inputs=[args.data],
                       outputs=[dest], argv=args.argv)
    print(f"slope={fit.slope:.3f} +/- {fit.stderr:.3f} (t={fit.tstat:.1f}, "
          f"R2={fit.r2:.3f}) -> ell_diff={fit.ell_diff:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reactivebeta",
        description="Leverage-aware beta estimation, benchmarks and backtests.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=False, seed=False):
        """``--out``, and ``--config`` and ``--seed`` where the command reads them."""
        if config:
            p.add_argument("--config", default=None, help="INI file with a [reactive] section")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("estimate", help="per-stock betas over time from a price panel")
    common(p, config=True)
    p.add_argument("--prices", required=True)
    p.add_argument("--index", default=None, help="index column name (default: first)")
    p.add_argument("--caps", default=None)
    p.add_argument("--sectors", default=None)
    p.add_argument("--burn-in", type=int, default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="estimator benchmark on synthetic models")
    common(p, config=True, seed=True)
    p.add_argument("--model", default="mc1", help="comma list from mc1..mc7")
    p.add_argument("--estimator", default="ols,reactive",
                   help=f"comma list from {','.join(ESTIMATORS)}")
    p.add_argument("--paths", type=int, default=2000)
    p.add_argument("--days", type=int, default=1000)
    p.add_argument("--dump-paths", type=int, default=0, metavar="N",
                   help="also dump the first N simulated paths per model")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("backtest", help="beta-neutral factor backtests")
    common(p, config=True, seed=True)
    p.add_argument("--prices", default=None)
    p.add_argument("--index", default=None)
    p.add_argument("--caps", default=None)
    p.add_argument("--sectors", default=None)
    p.add_argument("--synthetic", action="store_true",
                   help="use a generated universe instead of files")
    p.add_argument("--stocks", type=int, default=100)
    p.add_argument("--days", type=int, default=1400)
    p.add_argument("--strategy", default="all", choices=("all",) + STRATEGIES)
    p.add_argument("--beta-source", default="both", choices=("ols", "reactive", "both"))
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("selection-bias", help="closed-form selection bias")
    common(p)
    p.add_argument("--sigma-beta", type=float, default=0.43)
    p.add_argument("--p", type=float, default=0.30)
    p.add_argument("--sigma-index", type=float, default=0.1977)
    p.add_argument("--vol-ratio", type=float, default=1.53)
    p.add_argument("--lambda-beta", type=float, default=DEFAULT_PARAMS.lambda_beta)
    p.add_argument("--factor-vol", type=float, default=0.0346)
    p.add_argument("--sigma-eta", type=float, default=None)
    p.set_defaults(func=_cmd_selection_bias)

    p = sub.add_parser("calibrate-ell", help="leverage-gap calibration regression")
    common(p)
    p.add_argument("--data", required=True,
                   help="CSV date,correlation,leverage; ISO dates, strictly increasing")
    p.set_defaults(func=_cmd_calibrate_ell)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, an input error here
        return 1 if exc.code == 2 else exc.code
    args.argv = argv    # the manifests record the arguments that ran
    try:
        return args.func(args)
    # numerical failures first: LinAlgError is a ValueError
    except (NumericalFailure, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, configparser.Error) as exc:   # IngestError too
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
