#!/usr/bin/env python3
"""Time the start-up of chebfred against a baseline commit and write BENCH_startup.json.

Usage, from the root of a checkout:

    python3 scripts/bench_startup.py --baseline <commit>

The baseline's ``src/`` is taken with ``git archive``; the working tree's
``src/`` is the change.  Each round runs, per side, two fresh
single-threaded processes, the sides alternating round by round:

* ``python -c WORKER``, which times ``import chebfred.cli`` and reports its
  ``ru_maxrss``, the number of modules loaded and which of ``HEAVY`` are
  among them;
* a cold ``python -m chebfred solve --problem example1 --n 8``, timed from
  outside as a whole process, interpreter start included.

One untimed round comes first.  The report gives the best and the median of
each time over ``ROUNDS`` rounds, and the median ``ru_maxrss``.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from worker import BLAS_THREAD_VARS, machine  # noqa: E402

# modules whose import costs a CLI start tens of milliseconds or more;
# "scipy" is there only if scipy's own __init__ ran
HEAVY = (
    "scipy",
    "scipy.linalg",
    "scipy.fft",
    "scipy._lib._array_api",
    "numpy.f2py",
    "numpy.testing",
    "charset_normalizer",
)
CLI_ARGS = ("-m", "chebfred", "solve", "--problem", "example1", "--n", "8")
ROUNDS = 12
OUT = ROOT / "BENCH_startup.json"


# run with python -c, so nothing but json, resource, sys and time is loaded
# before the timed import
WORKER = """
import json, resource, sys, time
start = time.perf_counter()
import chebfred.cli
seconds = time.perf_counter() - start
print(json.dumps({{
    "import_s": seconds,
    "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "modules": len(sys.modules),
    "heavy": [name for name in {heavy!r} if name in sys.modules],
}}))
""".format(heavy=HEAVY)


def run_side(src):
    """One round of one side: the import worker, then a timed cold CLI solve."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", WORKER], env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    start = time.perf_counter()
    subprocess.run([sys.executable, *CLI_ARGS], env=env, capture_output=True, check=True)
    result["cli_s"] = time.perf_counter() - start
    return result


def summarize(runs):
    imports = [r["import_s"] for r in runs]
    clis = [r["cli_s"] for r in runs]
    return {
        "import_best_s": min(imports),
        "import_median_s": statistics.median(imports),
        "import_maxrss_mb_median": statistics.median(r["maxrss_mb"] for r in runs),
        "cli_solve_best_s": min(clis),
        "cli_solve_median_s": statistics.median(clis),
        "modules_loaded": runs[-1]["modules"],
        "heavy_modules_loaded": runs[-1]["heavy"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="git commit whose src/ is the 'before' side")
    args = parser.parse_args()
    if not args.baseline:
        parser.error("--baseline is required")
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})  # for the workers and machine()
    commit = subprocess.run(
        ["git", "rev-parse", "--short", args.baseline], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        archive = pathlib.Path(tmp) / "baseline.tar"
        subprocess.run(["git", "archive", "-o", str(archive), commit, "src"], cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tmp, filter="data")
        sides = {"before": pathlib.Path(tmp) / "src", "after": ROOT / "src"}
        runs = {side: [] for side in sides}
        for r in range(ROUNDS + 1):
            for side in sides if r % 2 == 0 else reversed(list(sides)):
                result = run_side(sides[side])
                if r:  # round 0 is untimed
                    runs[side].append(result)
    summary = {side: summarize(side_runs) for side, side_runs in runs.items()}
    report = {
        "benchmark": (
            "wall time of `import chebfred.cli` in a fresh process (import_*), its ru_maxrss after the "
            "import, and the wall time of a cold `python " + " ".join(CLI_ARGS) + "` process (cli_solve_*)"
        ),
        "command": f"python3 scripts/bench_startup.py --baseline {commit}",
        "before": f"src/ at {commit}",
        "after": "src/ of the checkout this file is committed in",
        "method": (
            f"1 untimed round, then {ROUNDS} rounds of fresh single-threaded processes, sides alternating; "
            "best and median over the rounds"
        ),
        "heavy_modules": "which of " + ", ".join(HEAVY) + " are in sys.modules after the import",
        "machine": machine(),
        "results": summary,
    }
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    for side, row in summary.items():
        print(
            f"{side:>6s}  import {row['import_best_s'] * 1e3:6.1f} / {row['import_median_s'] * 1e3:6.1f} ms"
            f"  maxrss {row['import_maxrss_mb_median']:5.1f} MB"
            f"  cli solve {row['cli_solve_best_s'] * 1e3:6.1f} / {row['cli_solve_median_s'] * 1e3:6.1f} ms"
            f"  modules {row['modules_loaded']}  heavy {', '.join(row['heavy_modules_loaded']) or '-'}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
