"""One benchmark repetition, run as a fresh process.

Usage: ``python3 child.py SPEC.json``. The spec names the package source
directory, the CLI argument lists to run and whether to trace. The child
times the import of ``reactivebeta.cli`` (the set-up a user pays on every
command), runs each argument list through ``reactivebeta.cli.main``
in-process, and writes its figures as JSON to the spec's ``result`` path.
It exits 1 if any CLI call returns non-zero.

The CLI time is reported raw and rescaled to a reference CPU speed. The
speed is sampled on the CPU the child runs on: a fixed probe is timed
every PROBE_PERIOD_S from a SIGALRM handler while the CLI calls run. A
shared virtual CPU can run the same code 1.5 times slower, for stretches
of a fraction of a second to minutes, when its host core or cache is
busy; the rescaled time divides that out. The probe allocates nothing,
so the allocator state the package leaves behind cannot change its
speed.

The import is timed as CPU time of the main thread, and in wall-clock
seconds. The CPU time leaves out the BLAS worker threads, which numpy
starts on import and which spin for a while, by a varying amount, as
they wait for work. With ``reference_import`` in the spec the child only
times the import of numpy, in CPU time: the runner uses that fixed
external import as the speed reference for the package's import, in a
process the package never enters.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import signal
import statistics
import sys
from time import perf_counter, thread_time

PROBE_PERIOD_S = 0.05
#: fewest probe ticks the scale is taken from; a shorter timed region adds
#: a burst of this many probes taken just before it
MIN_TICKS = 20
#: probe duration that defines the reference speed
REF_PROBE_S = 4e-4


def make_probe():
    """A Python loop plus numpy arithmetic over preallocated 512 KiB arrays."""
    import numpy as np
    a = np.arange(65536, dtype=float)
    b = np.empty_like(a)

    def probe() -> float:
        t = perf_counter()
        total = 0
        for i in range(1000):
            total += i
        for _ in range(4):
            np.multiply(a, 1.0001, out=b)
            np.add(b, 1.0, out=b)
            b.sum()
        return perf_counter() - t
    return probe


class SpeedProbe:
    """Probe durations sampled while the timed region runs."""

    def __init__(self):
        self.probe = make_probe()
        self.burst = [self.probe() for _ in range(MIN_TICKS)]
        self.ticks: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.ticks.append(self.probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def scale(self) -> float:
        """Factor taking seconds at the sampled speed to reference seconds."""
        samples = self.ticks if len(self.ticks) >= MIN_TICKS else self.ticks + self.burst
        return REF_PROBE_S / statistics.median(samples)


def blas_threads() -> int:
    """Thread count reported by numpy's bundled OpenBLAS, or -1."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def peak_rss_mb() -> float:
    """High-water resident set of this process in MiB.

    ``VmHWM`` belongs to the address space the exec created; ``ru_maxrss``
    would also carry the parent's peak across fork and exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    if spec.get("reference_import"):
        cpu0 = thread_time()
        import numpy  # noqa: F401
        with open(spec["result"], "w") as fh:
            json.dump({"numpy_import_cpu_s": thread_time() - cpu0}, fh)
        return 0
    sys.path.insert(0, spec["src"])

    cpu0, t0 = thread_time(), perf_counter()
    import reactivebeta.cli as cli
    setup_raw_s = perf_counter() - t0
    setup_cpu_s = thread_time() - cpu0
    result = {"setup_raw_s": setup_raw_s, "setup_cpu_s": setup_cpu_s,
              "module": cli.__file__, "codes": []}

    if spec["calls"]:
        tracer = None
        if spec["trace"]:
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        probe = SpeedProbe()
        probe.start()
        t1 = perf_counter()
        try:
            for argv in spec["calls"]:
                result["codes"].append(cli.main(argv))
        finally:
            wall_raw_s = perf_counter() - t1
            probe.stop()
        result.update(wall_raw_s=wall_raw_s, wall_s=wall_raw_s * probe.scale())
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer, wall_raw_s)
    result["peak_rss_mb"] = peak_rss_mb()
    result["blas_threads"] = blas_threads()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if all(code == 0 for code in result["codes"]) else 1


if __name__ == "__main__":
    sys.exit(main())
