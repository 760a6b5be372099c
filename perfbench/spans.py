"""Span tracing of the reactivebeta layers, installed from outside the package.

Each public function of a layer is wrapped in the namespace where its
caller looks it up (``reactivebeta.benchmark.quantile_beta_batch`` is the
name ``estimate_batch`` calls, ``reactivebeta.estimators.quantile_beta_batch``
the one ``trimean_beta_batch`` calls), so nothing under ``src/`` changes.
A wrapper records one span per call: name, start, end and the index of
the enclosing span. Work the tracer itself does after a call (counters,
objective values) runs inside a ``trace.*`` span, so it never inflates a
layer's self time.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

#: span name of the tracer's own work
TRACE_PREFIX = "trace."


class Tracer:
    """In-memory spans and counters of one traced process."""

    def __init__(self):
        # each span is [name, start, end, parent index or None]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, perf_counter(), math.nan, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(tracer, bound_args,
        result)`` updates counters in a ``trace.`` span."""
        signature = inspect.signature(fn) if after is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                own = self._open(TRACE_PREFIX + "counters")
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(self, bound.arguments, result)
                finally:
                    self._close(own)
            return result

        return traced


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` is a sequence of ``(name, start, end, parent)`` with
    ``parent`` an index into the sequence or None. Child intervals are
    clipped to their parent and merged where they overlap, so the covered
    time never exceeds the parent's duration.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[name] += (end - start) - covered
    return dict(out)


def durations(spans) -> dict[str, float]:
    """Total inclusive duration per span name."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, _ in spans:
        out[name] += end - start
    return dict(out)


def call_counts(spans) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for name, *_ in spans:
        out[name] += 1
    return dict(out)


# ---------------------------------------------------------------------------
# counters recorded after a wrapped call returns


def _after_reactive(tracer, args, result):
    tracer.counts["beta.reactive_beta_from_returns.paths"] += np.atleast_1d(result).size


def _after_quantile(tracer, args, result):
    from reactivebeta.estimators import quantile_objective
    x, y = args["x"], args["y"]
    alpha, beta = result
    obj = np.atleast_1d(quantile_objective(np.atleast_2d(x), np.atleast_2d(y),
                                           args["lam"], args["theta"], alpha, beta))
    finite = obj[np.isfinite(obj)]
    tracer.counts["estimators.quantile_beta_batch.paths"] += obj.size
    tracer.counts["estimators.quantile_beta_batch.objective_sum"] += float(finite.sum())
    tracer.counts["estimators.quantile_beta_batch.objective_n"] += finite.size


def _after_dcc_calibrate(tracer, args, result):
    n = np.atleast_1d(result.converged).size
    tracer.counts["estimators.dcc_calibrate.paths"] += n
    tracer.counts["estimators.dcc_calibrate.evaluations"] += result.evaluations
    tracer.counts["estimators.dcc_calibrate.unconverged"] += int(
        np.count_nonzero(~np.atleast_1d(result.converged)))


def _after_generate(tracer, args, result):
    tracer.counts["montecarlo.generate_batch.paths"] += result.n_paths
    tracer.counts["montecarlo.clamped"] += result.clamped


def _after_build_factor(tracer, args, result):
    if result is None:
        tracer.counts["strategies.build_factor.skipped"] += 1


def _after_ingest(tracer, args, result):
    for key in ("path", "caps_path", "sectors_path"):
        if args.get(key) is not None:
            tracer.counts["io.ingest_prices.bytes"] += Path(args[key]).stat().st_size


def _after_estimate(tracer, args, result):
    dest = Path(args["args"].out) / "betas.csv"
    if dest.exists():
        tracer.counts["cli.estimate.bytes_written"] += dest.stat().st_size


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that restores them."""
    import reactivebeta.beta as beta
    import reactivebeta.benchmark as benchmark
    import reactivebeta.cli as cli
    import reactivebeta.estimators as estimators
    import reactivebeta.io as rio
    import reactivebeta.strategies as strategies

    # (owner, attribute, span name, counter hook)
    targets = [
        (cli, "main", "cli.main", None),
        (cli, "_cmd_estimate", "cli.estimate", _after_estimate),
        (cli, "_cmd_simulate", "cli.simulate", None),
        (cli, "_cmd_backtest", "cli.backtest", None),
        (cli, "run_benchmark", "benchmark.run_benchmark", None),
        (cli, "compute_panels", "strategies.compute_panels", None),
        (cli, "run_backtest", "strategies.backtest", None),
        (rio, "ingest_prices", "io.ingest_prices", _after_ingest),
        (rio, "write_manifest", "io.write_manifest", None),
        (rio, "write_json", "io.write_json", None),
        (rio, "write_table_report", "io.write_table_report", None),
        (benchmark, "generate_batch", "montecarlo.generate_batch", _after_generate),
        (benchmark, "ols_beta_batch", "estimators.ols_beta_batch", None),
        (benchmark, "quantile_beta_batch", "estimators.quantile_beta_batch",
         _after_quantile),
        (estimators, "quantile_beta_batch", "estimators.quantile_beta_batch",
         _after_quantile),
        (benchmark, "trimean_beta_batch", "estimators.trimean_beta_batch", None),
        (benchmark, "dcc_beta_batch", "estimators.dcc_beta_batch", None),
        (estimators, "dcc_calibrate", "estimators.dcc_calibrate", _after_dcc_calibrate),
        (benchmark, "reactive_beta_from_returns", "beta.reactive_beta_from_returns",
         _after_reactive),
        (benchmark, "table2_stats", "evaluation.table2_stats", None),
        (strategies, "build_factor", "strategies.build_factor", _after_build_factor),
        (strategies, "strategy_bias_corstd", "evaluation.strategy_bias_corstd", None),
        (beta.ReactiveBetaEngine, "step", "beta.engine_step", None),
    ]
    originals = []
    for owner, attr, name, after in targets:
        fn = getattr(owner, attr)
        originals.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(name, fn, after))

    def restore():
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)

    return restore


#: spans whose self time is reported as ``<name>.self_s``
SELF_TIMED = (
    "cli.main", "cli.estimate", "cli.simulate", "cli.backtest",
    "benchmark.run_benchmark", "montecarlo.generate_batch",
    "estimators.ols_beta_batch", "estimators.quantile_beta_batch",
    "estimators.trimean_beta_batch", "estimators.dcc_calibrate",
    "estimators.dcc_beta_batch", "beta.reactive_beta_from_returns",
    "beta.engine_step", "evaluation.table2_stats",
    "evaluation.strategy_bias_corstd", "strategies.compute_panels",
    "strategies.backtest", "strategies.build_factor", "io.ingest_prices",
    "io.write_manifest", "io.write_json", "io.write_table_report",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer figures of one traced repetition whose CLI calls took
    ``wall_s`` seconds. A layer that did not run reads 0."""
    own = self_times(tracer.spans)
    inclusive = durations(tracer.spans)
    calls = call_counts(tracer.spans)
    c = tracer.counts
    out = {f"{name}.self_s": own.get(name, 0.0) for name in SELF_TIMED}
    q = "estimators.quantile_beta_batch"
    out[q + ".calls"] = calls.get(q, 0)
    out[q + ".paths_per_s"] = _ratio(c[q + ".paths"], inclusive.get(q, 0.0))
    out[q + ".mean_objective"] = _ratio(c[q + ".objective_sum"], c[q + ".objective_n"])
    d = "estimators.dcc_calibrate"
    out[d + ".evaluations_per_path"] = _ratio(c[d + ".evaluations"], c[d + ".paths"])
    out[d + ".unconverged_frac"] = _ratio(c[d + ".unconverged"], c[d + ".paths"])
    b = "strategies.build_factor"
    out[b + ".calls"] = calls.get(b, 0)
    out[b + ".skipped"] = c[b + ".skipped"]
    out["beta.engine_step.calls"] = calls.get("beta.engine_step", 0)
    out["io.ingest_prices.mb_per_s"] = _ratio(c["io.ingest_prices.bytes"] / 2 ** 20,
                                              inclusive.get("io.ingest_prices", 0.0))
    out["cli.estimate.bytes_written"] = c["cli.estimate.bytes_written"]
    for name in ("beta.reactive_beta_from_returns", "montecarlo.generate_batch"):
        out[name + ".paths_per_s"] = _ratio(c[name + ".paths"], inclusive.get(name, 0.0))
    out["montecarlo.clamped"] = c["montecarlo.clamped"]
    out["trace.wall_s"] = wall_s
    out["trace.layer_self_sum_s"] = sum(v for k, v in own.items()
                                        if not k.startswith(TRACE_PREFIX))
    out["trace.own_s"] = sum(v for k, v in own.items() if k.startswith(TRACE_PREFIX))
    return out
