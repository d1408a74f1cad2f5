"""The before/after driver shared by the scripts/bench_*.py scripts.

The "before" side is the ``src/`` of a baseline commit, taken with
``git archive``; the "after" side is the working tree's ``src/``.  A script
runs both sides in fresh processes, round by round, the side that goes
first alternating between rounds, and reduces what the rounds measured.
"""

import json
import math
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile
import timeit

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from worker import BLAS_THREAD_VARS, machine  # noqa: E402,F401  (machine is re-exported)


def short_commit(baseline):
    """The abbreviated hash of the commit ``baseline`` names."""
    return subprocess.run(
        ["git", "rev-parse", "--short", baseline], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def alternating_rounds(commit, rounds):
    """Yield (round, side, src) for ``rounds`` rounds of the sides "before"
    (``commit``'s ``src/``) and "after" (the working tree's), the side that
    goes first alternating between rounds.

    The baseline's ``src/`` is extracted into a temporary directory that
    lives until the generator is exhausted or closed.
    """
    with tempfile.TemporaryDirectory() as tmp:
        archive = pathlib.Path(tmp) / "baseline.tar"
        subprocess.run(["git", "archive", "-o", str(archive), commit, "src"], cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tmp, filter="data")
        sides = {"before": pathlib.Path(tmp) / "src", "after": ROOT / "src"}
        for r in range(rounds):
            for side in sides if r % 2 == 0 else reversed(list(sides)):
                yield r, side, sides[side]


def run_worker(script, src, *flags):
    """Run ``script --worker *flags`` against ``src`` in a fresh
    single-threaded process and return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in BLAS_THREAD_VARS})
    args = [sys.executable, script, "--worker", *flags]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def best_time(call, sample_s, repeats):
    """Best time per call over ``repeats`` samples of about ``sample_s`` each.

    The loop is sized from warm calls: the first call of a fresh process can
    take ten times as long as the next (cold caches, lazy set-up), and a loop
    sized from it runs samples far shorter than ``sample_s``.
    """
    call()
    number, total = timeit.Timer(call).autorange()
    number = max(1, math.ceil(number * sample_s / total))
    return min(timeit.repeat(call, number=number, repeat=repeats)) / number
