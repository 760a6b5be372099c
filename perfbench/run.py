"""reactivebeta benchmark runner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table_quantile --seed 0 --seconds 30 --trace 0

Each repetition runs the workload's CLI calls in a fresh child process
(``child.py``) and the runner repeats until ``--seconds`` have been spent
measuring (at least MIN_REPS times). After each untraced repetition it
runs pairs of import-only children, one importing numpy alone and one
importing the package, for ``setup_s``. Inputs are made from ``--seed`` before
the first repetition, outside the timed region. Every repetition's outputs
are checked: exit codes, invariants, a bit-identical digest across
repetitions, and the committed reference figures when the seed has one.

With ``--trace 0`` the end-to-end metrics are reported (medians over
repetitions); with ``--trace 1`` untraced and traced repetitions alternate
and the per-layer metrics of the traced ones are reported. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when the
check passed, 1 when it failed and 2 when the benchmark could not run.

``--write-reference`` runs one repetition and stores its figures as the
reference for the seed in ``reference/<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(SRC))

import check  # noqa: E402
import workloads  # noqa: E402

#: fewest untraced repetitions a run makes, whatever --seconds says
MIN_REPS = 3
#: pairs of import-only children (numpy alone, then the package) run after
#: each untraced repetition, so that the set-up samples are spread through
#: the run
SETUP_PAIRS_PER_REP = 3
#: fewest package imports, and fewest numpy imports, a run times for setup_s
MIN_SETUP_SAMPLES = 20
#: CPU seconds of a fresh `import numpy` that define the reference speed
REF_NUMPY_IMPORT_S = 0.1
#: no repetition starts that would, at the pace of the slowest one so far,
#: end after this many seconds of measuring, so a run ends inside three minutes
MEASURE_CAP_S = 120.0
#: a child that runs longer than this is killed and its repetition fails
CHILD_TIMEOUT_S = 150.0

#: end-to-end metrics of the result line; the *_raw_s figures are printed only
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


class Failure(Exception):
    """The benchmark itself cannot run (missing program, broken setup)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """The child's environment: BLAS and OpenMP threads capped at nproc."""
    env = dict(os.environ)
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(env.get(var, cap))
        except ValueError:
            current = cap
        env[var] = str(max(1, min(current, cap)))
    return env


def environment(seed: int, blas_threads) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "nproc": nproc(),
        "cpu": cpu,
        "commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


def run_child(spec: dict, workdir: Path, tag: str) -> tuple[int, dict]:
    """Run one child; returns its exit code and figures ({} if none)."""
    spec_path = workdir / f"spec-{tag}.json"
    result_path = workdir / f"result-{tag}.json"
    log_path = workdir / f"log-{tag}.txt"
    spec = dict(spec, result=str(result_path))
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    with log_path.open("w") as log:
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                  stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                  cwd=str(workdir), timeout=CHILD_TIMEOUT_S)
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = -1
    figures = json.loads(result_path.read_text()) if result_path.exists() else {}
    if code != 0:
        tail = log_path.read_text()[-2000:]
        print(f"child {tag} exited {code}:\n{tail}", file=sys.stderr)
    return code, figures


def import_pairs(base: dict, workdir: Path, count: int, setups: list, numpy_imports: list):
    """Run ``count`` pairs of import-only children: one that imports numpy
    alone (the speed reference) and one that imports the package."""
    for _ in range(count):
        code_numpy, numpy_fig = run_child(dict(base, calls=[], reference_import=True),
                                          workdir, "numpy")
        code, fig = run_child(dict(base, calls=[]), workdir, "setup")
        if code_numpy != 0 or code != 0:
            raise Failure("numpy or the package does not import")
        numpy_imports.append(numpy_fig["numpy_import_cpu_s"])
        setups.append(fig)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def bench(args) -> int:
    if not (SRC / "reactivebeta" / "cli.py").is_file():
        raise Failure(f"no reactivebeta package under {SRC}")
    workload = workloads.make(args.workload, args.size)
    workdir = WORK / f"{args.workload}-{args.size}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return _bench(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _bench(args, workload, workdir: Path) -> int:
    out_dir = workdir / "out"
    calls = workload.prepare(workdir / "input", out_dir, args.seed)
    base = {"src": str(SRC), "calls": calls, "trace": False}

    # warm-up: byte-compile the package and fill the file cache, untimed
    code, fig = run_child(dict(base, calls=[]), workdir, "warmup")
    if code != 0:
        raise Failure("the package does not import")
    if not fig["module"].startswith(str(SRC)):
        raise Failure(f"imported {fig['module']}, not the package under {SRC}")

    reference = None if args.write_reference \
        else check.load_reference(args.workload, args.size, args.seed)
    plain, traced_reps, setups, blas = [], [], [], set()  # child figures
    numpy_imports = []  # CPU seconds of the reference children
    problems, notes = [], []
    attempted = failed = reps = 0
    longest = 0.0  # seconds of the slowest repetition so far
    first = None  # the first repetition's summary
    digest_match = None
    t0 = perf_counter()
    while not problems:
        elapsed = perf_counter() - t0
        if args.write_reference and reps == 1:
            break
        if elapsed >= args.seconds and len(plain) >= MIN_REPS \
                and (traced_reps or not args.trace):
            break
        if plain and elapsed + longest > MEASURE_CAP_S:
            break
        traced = bool(args.trace) and reps % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        rep_start = perf_counter()
        code, fig = run_child(dict(base, trace=traced), workdir, f"rep{reps}")
        longest = max(longest, perf_counter() - rep_start)
        reps += 1
        attempted += workload.operations
        if "blas_threads" in fig:
            blas.add(fig["blas_threads"])
        rep_problems = []
        if code != 0 or "wall_s" not in fig:
            rep_problems.append(f"exit code {code}")
        else:
            try:
                if first is None:
                    first = workload.summarize(out_dir)
                    rep_problems += workload.invariants(first)
                    if reference is not None:
                        gate, notes = check.compare(first.values, reference["values"])
                        rep_problems += gate
                        digest_match = first.digest == reference["digest"]
                elif workload.digest(out_dir) != first.digest:
                    rep_problems.append("output differs from the first repetition")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                rep_problems.append(f"unreadable output: {exc!r}")
        if rep_problems:
            # a repetition that fails its check fails every operation it attempted
            failed += workload.operations
            problems += [f"rep{reps - 1}: {p}" for p in rep_problems]
            break
        failed += first.failed
        (traced_reps if traced else plain).append(fig)
        if not args.trace:
            setups.append(fig)
            import_pairs(base, workdir, SETUP_PAIRS_PER_REP, setups, numpy_imports)
    if plain and not args.trace:
        import_pairs(base, workdir, MIN_SETUP_SAMPLES - min(len(setups), len(numpy_imports)),
                     setups, numpy_imports)

    if any(b > nproc() for b in blas):
        problems.append(f"BLAS threads {sorted(blas)} above nproc {nproc()}")
    correct = not problems and bool(plain)

    if args.write_reference:
        if not correct:
            print("\n".join(problems), file=sys.stderr)
            return 1
        path = check.reference_path(args.workload)
        ref = json.loads(path.read_text()) if path.exists() else {}
        if ref.get("size") != args.size:
            ref = {"workload": args.workload, "size": args.size, "seeds": {}}
        ref["seeds"][str(args.seed)] = {"values": first.values, "digest": first.digest}
        ref["seeds"] = dict(sorted(ref["seeds"].items(), key=lambda kv: int(kv[0])))
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote reference for seed {args.seed} to {path}")
        return 0

    env = environment(args.seed, sorted(blas)[0] if len(blas) == 1 else sorted(blas))
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} repetitions={reps}")
    figures = {
        "wall_s": [f["wall_s"] for f in plain],
        "setup_s": [],
        "peak_rss_mb": [f["peak_rss_mb"] for f in plain],
        "wall_raw_s": [f["wall_raw_s"] for f in plain],
        "setup_cpu_s": [f["setup_cpu_s"] for f in setups],
        "setup_raw_s": [f["setup_raw_s"] for f in setups],
        "numpy_import_s": numpy_imports,
    }
    if setups and numpy_imports:
        # the package's import in CPU seconds at the speed where a fresh
        # `import numpy` takes REF_NUMPY_IMPORT_S
        scale = REF_NUMPY_IMPORT_S / statistics.median(numpy_imports)
        figures["setup_s"] = [v * scale for v in figures["setup_cpu_s"]]
    metrics = {}
    for name, values in figures.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"  {name:<12} {med:.4f} {unit}  (median of {len(values)}; "
              f"q1 {q1:.4f}, q3 {q3:.4f}; lower is better)")
        print(f"  {'':<12} samples: {' '.join(f'{v:.4f}' for v in values)}")
        if name in END_TO_END and not args.trace:
            metrics[name] = {"value": med, "unit": unit}
    if args.trace:
        layers = {}
        for name in traced_reps[0]["layers"] if traced_reps else ():
            layers[name] = statistics.median(f["layers"][name] for f in traced_reps)
        if plain and traced_reps:
            layers["trace.overhead_s"] = (statistics.median(f["wall_s"] for f in traced_reps)
                                          - statistics.median(figures["wall_s"]))
        for name, value in layers.items():
            print(f"  {name:<48} {value:.6g}")
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':<12} {frac:.6g}  ({failed} of {attempted} operations; "
          f"lower is better)")
    if reference is None:
        print("  check        invariants and repeatability only "
              f"(no reference figures for seed {args.seed})")
    else:
        print(f"  check        reference seed {args.seed}: "
              f"{'pass' if correct else 'FAIL'}; exact digest match: {digest_match}")
    for note in notes:
        print(f"  note         {note}")
    for p in problems:
        print(f"  problem      {p}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("mean_objective"):
        return "loss"
    return "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measuring time; at least MIN_REPS repetitions run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    p.add_argument("--write-reference", action="store_true",
                   help="store this seed's figures as the reference")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return bench(args)
    except Failure as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
