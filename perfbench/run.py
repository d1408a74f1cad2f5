"""Layered solve benchmark for chebfred.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Each workload runs in fresh single-worker processes as a closed loop: one
client, each pass starting after the previous one returns.  ``--trace 0``
starts ``SETUP_WORKERS - 1`` processes that only set up, then one that sets
up and runs timed passes, and reports the end-to-end metrics.  ``--trace 1``
starts one process that alternates plain passes with passes wrapped by the
tracer, and reports the per-layer metrics.  A JSON report with every
configuration's error, tolerance and timing, the machine and the seed comes
first; the last line of stdout is the result object.

Nothing in chebfred waits on a queue or another thread, so no metric is a
wait time.
"""

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Fresh processes whose set-up time is measured; the reported set-up time is
# their median, since one import on a shared machine can be slow by chance.
SETUP_WORKERS = 3
# Slack over --seconds for a worker's import and warm-up pass.
WORKER_TIMEOUT_SLACK = 40.0
TAIL_BEYOND = 10


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND passes beyond it.

    With fewer than TAIL_BEYOND + 1 passes no such percentile exists and the
    slowest pass is returned as the 100th percentile.
    """
    ordered = sorted(times)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def spawn(job, seconds):
    """Run one worker to completion and return its parsed result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        capture_output=True,
        text=True,
        timeout=seconds + WORKER_TIMEOUT_SLACK,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {job['workload']} ({job['mode']}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds):
    offsets = workloads.draw_offsets(workload, seed)
    setups, messages = [], []
    attempted = failed = 0
    for i in range(SETUP_WORKERS - 1):
        job_offsets = None if offsets is None else offsets[i : i + 1]
        res = spawn({"workload": workload, "offsets": job_offsets, "mode": "setup", "seconds": 0}, 0)
        setups.append(res["setup_s"])
        messages += res["failures"]
        attempted += res["attempted"]
        failed += res["failed"]
    rest = None if offsets is None else offsets[SETUP_WORKERS - 1 :]
    main = spawn({"workload": workload, "offsets": rest, "mode": "timed", "seconds": seconds}, seconds)
    setups.append(main["setup_s"])
    attempted += main["attempted"]
    failed += main["failed"]
    passes = main["pass_s"]
    tail_s, tail_pct = tail(passes)
    metrics = {
        "pass_s.p50": (statistics.median(passes), "s"),
        "pass_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
        "solved_frac": (1.0 - failed / attempted, "ratio"),
    }
    report = dict(
        main,
        passes=len(passes),
        tail_percentile=tail_pct,
        setup_s_samples=setups,
        failures=messages + main["failures"],
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
    )
    return metrics, report, attempted, failed


def traced(workload, seed, seconds):
    offsets = workloads.draw_offsets(workload, seed)
    res = spawn({"workload": workload, "offsets": offsets, "mode": "traced", "seconds": seconds}, seconds)
    metrics = {name: tuple(value) for name, value in res.pop("layers").items()}
    res["traced_passes"] = len(res["traced_pass_s"])
    res["fail_frac"] = res["failed"] / res["attempted"]
    return metrics, res, res["attempted"], res["failed"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    measure = traced if args.trace else end_to_end
    metrics, report, attempted, failed = measure(args.workload, args.seed, args.seconds)
    if not all(math.isfinite(value) for value, _unit in metrics.values()):
        raise SystemExit(f"non-finite metric in {metrics}")
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
