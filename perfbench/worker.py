"""One fresh benchmark process: a closed loop of passes through one workload.

Started by ``run.py`` as a script.  It pins BLAS to one thread before
numpy loads, imports chebfred from the checkout's ``src``, runs one untimed
warm-up pass (the set-up clock runs from just before ``import chebfred`` to
its end), then in ``timed`` or ``traced`` mode runs passes back to back for
the given number of seconds.  Every solve goes through ``chebfred.cli.main``
in-process and is checked from the CSV it prints.  The job arrives as JSON
in ``argv[1]``; the result leaves as one JSON line on stdout.

Modes:

* ``setup``: the warm-up pass only;
* ``timed``: unwrapped passes, for the end-to-end metrics;
* ``traced``: passes alternate between unwrapped and wrapped by the tracer,
  so the tracing overhead is measured against passes of the same process.
"""

import contextlib
import ctypes
import glob
import io
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_FAILURE_MESSAGES = 5


class Loop:
    """Runs passes and keeps what the accuracy check and report need."""

    def __init__(self, cli, workload, offsets, reference):
        self.cli = cli
        self.workload = workload
        self.offsets = offsets  # None: every pass is the same
        self.passes = 0
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.configs = {}  # key -> {"error": worst seen, "fails": count}
        self.call_s = {}  # call label -> wall times
        self.elapsed_ms = {}  # key -> CLI-reported elapsed_ms values
        self.orders = {}  # key of a varying-order configuration -> orders solved
        self.messages = []

    def exhausted(self) -> bool:
        return self.offsets is not None and self.passes >= len(self.offsets)

    def run_pass(self) -> float:
        """One timed pass; the accuracy check runs after the clock stops."""
        offset = None if self.offsets is None else self.offsets[self.passes]
        self.passes += 1
        calls = workloads.pass_calls(self.workload, offset)
        results = []
        start = time.perf_counter()
        for call in calls:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli.main(list(call.argv))
                except Exception:  # a crash is a failed solve, not a dead benchmark
                    code = -1
                    err.write(traceback.format_exc())
            results.append((call, code, out.getvalue(), err.getvalue(), time.perf_counter() - t0))
        elapsed = time.perf_counter() - start
        for call, code, csv_text, err_text, wall in results:
            self._check(call, code, csv_text, err_text, wall)
        return elapsed

    def _check(self, call, code, csv_text, err_text, wall):
        self.call_s.setdefault(call.label, []).append(wall)
        for key, error, elapsed, ok in workloads.check_call(call, code, csv_text, self.reference):
            self.attempted += 1
            entry = self.configs.setdefault(key, {"error": None, "fails": 0})
            if error is not None and (entry["error"] is None or error > entry["error"]):
                entry["error"] = error
            if elapsed is not None:
                self.elapsed_ms.setdefault(key, []).append(elapsed)
            if not ok:
                self.failed += 1
                entry["fails"] += 1
                if len(self.messages) < MAX_FAILURE_MESSAGES:
                    self.messages.append(
                        f"{key}: exit {code}, error {error}: {err_text.strip()[-300:]}"
                    )
        if call.varying:
            for key in call.keys():
                self.orders.setdefault(key, set()).update(call.orders)

    def report(self) -> dict:
        configs = {}
        for key, entry in sorted(self.configs.items()):
            ref = self.reference.get(key)
            row = dict(entry, reference=ref, tolerance=None if ref is None else workloads.tolerance(ref))
            if key in self.elapsed_ms:
                row["elapsed_ms_p50"] = statistics.median(self.elapsed_ms[key])
            if key in self.orders:
                row["orders"] = [min(self.orders[key]), max(self.orders[key])]
            configs[key] = row
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "configs": configs,
            "call_ms_p50": {k: 1e3 * statistics.median(v) for k, v in self.call_s.items()},
            "failures": self.messages,
        }


def _blas_threads():
    """Thread counts reported by the OpenBLAS builds numpy and scipy loaded."""
    found = {}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules.get(pkg)
        if mod is None:
            continue
        libdir = pathlib.Path(mod.__file__).parent.parent / f"{pkg}.libs"
        for path in sorted(glob.glob(str(libdir / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg] = fn()
                    break
    return found


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict:
    import numpy
    import scipy

    def blas(show_config):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "blas_numpy": blas(numpy.show_config),
        "blas_scipy": blas(scipy.show_config),
        "blas_threads_env": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas_threads_measured": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main() -> int:
    job = json.loads(sys.argv[1])
    reference = workloads.load_reference()
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})  # read when numpy loads
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import chebfred.cli as cli

    loop = Loop(cli, job["workload"], job["offsets"], reference)
    loop.run_pass()
    setup_s = time.perf_counter() - start

    origin = pathlib.Path(cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"chebfred was imported from {origin}, not from {SRC}")

    result = {"setup_s": setup_s}
    seconds = job["seconds"]
    if job["mode"] == "timed":
        result["pass_s"] = _timed(loop, seconds)
    elif job["mode"] == "traced":
        result.update(_traced(loop, seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(loop.report())
    result["machine"] = machine()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def _timed(loop, seconds):
    times = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and not loop.exhausted():
        times.append(loop.run_pass())
    return times


def _traced(loop, seconds):
    tracer = tracing.Tracer()
    plain, traced, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or not traced) and not loop.exhausted():
        if len(plain) <= len(traced):
            plain.append(loop.run_pass())
            continue
        tracer.install()
        try:
            traced.append(loop.run_pass())
        finally:
            tracer.restore()
        passes.append(tracer.reset())
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0 if traced else 0.0
    layers = tracing.layer_metrics(passes, overhead)
    return {
        "pass_s": plain,
        "traced_pass_s": traced,
        "layers": {name: list(value) for name, value in layers.items()},
        "absent": tracer.absent,
    }


if __name__ == "__main__":
    sys.exit(main())
