"""Tests of the benchmark itself: tiny-size smoke runs of every workload
through the same runner, the span self-time arithmetic, and the
correctness gate.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _drive(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    proc = _drive("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        # layer self times plus the tracer's own spans cover the traced calls
        assert m["trace.layer_self_sum_s"] + m["trace.own_s"] \
            == pytest.approx(m["trace.wall_s"], rel=0.02)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _drive("--workload", "table_quantile", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _root_total(tree):
    return sum(end - start for _, start, end, parent in tree if parent is None)


def test_self_time_of_synthetic_span_tree():
    tree = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("a", 9.5, 10.0, 0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({"root": 2.5, "a": 2.5, "c": 1.0, "b": 4.0})
    assert sum(own.values()) == pytest.approx(_root_total(tree))
    assert spans.durations(tree)["a"] == pytest.approx(3.5)
    assert spans.call_counts(tree) == {"root": 1, "a": 2, "c": 1, "b": 1}


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    tree = [
        ("p", 0.0, 6.0, None),
        ("x", 1.0, 4.0, 0),
        ("y", 3.0, 5.0, 0),   # overlaps x on [3, 4]
        ("z", 5.5, 7.0, 0),   # runs past the parent's end
    ]
    own = spans.self_times(tree)
    assert own["p"] == pytest.approx(6.0 - 4.0 - 0.5)


def test_tracer_records_nesting_and_keeps_counters_out_of_layers():
    tracer = spans.Tracer()

    def after(t, args, result):
        t.counts["inner.calls"] += 1

    inner = tracer.wrap("inner", lambda v: v + 1, after)
    outer = tracer.wrap("outer", lambda v: inner(v) * 2)
    assert outer(1) == 4
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "trace.counters"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert tracer.counts["inner.calls"] == 1
    own = spans.self_times(tracer.spans)
    assert sum(own.values()) == pytest.approx(_root_total(tracer.spans))


def _reference(workload):
    ref = json.loads(check.reference_path(workload).read_text())
    return ref["seeds"]["0"]["values"]


def test_gate_accepts_reference_and_rejects_perturbed_table():
    ref = _reference("table_quantile")
    assert check.compare(ref, ref) == ([], [])
    bad = copy.deepcopy(ref)
    bad["rows"]["mad"]["bias"] += 0.01
    problems, _ = check.compare(bad, ref)
    assert problems and "mad.bias" in problems[0]
    within = copy.deepcopy(ref)
    within["rows"]["trm"]["absd"] += 0.5 * check.BETA_UNIT_ABS
    assert check.compare(within, ref)[0] == []


def test_gate_rejects_perturbed_panel():
    ref = _reference("panel")
    assert check.compare(ref, ref)[0] == []
    bad = copy.deepcopy(ref)
    bad["backtest"]["momentum"]["reactive"]["corstd"] += 1e-3
    assert check.compare(bad, ref)[0]
    bad = copy.deepcopy(ref)
    bad["betas"]["ols_beta"]["sum"] *= 1.0 + 1e-4
    assert check.compare(bad, ref)[0]


def test_failed_gate_fails_every_operation_and_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(check, "REFERENCE_DIR", tmp_path)
    argv = ["--workload", "table_quantile", "--size", "tiny", "--seed", "0",
            "--seconds", "0"]
    assert run.main(argv + ["--write-reference"]) == 0
    path = check.reference_path("table_quantile")
    ref = json.loads(path.read_text())
    ref["seeds"]["0"]["values"]["rows"]["ols"]["bias"] += 0.05
    path.write_text(json.dumps(ref))
    capsys.readouterr()
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
