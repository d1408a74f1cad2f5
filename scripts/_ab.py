"""The before/after driver shared by the scripts/bench_*.py scripts.

The "before" side is the ``src/`` of a baseline commit, taken with
``git archive``; the "after" side is the working tree's ``src/``.  A script
runs both sides in fresh processes, round by round, the side that goes
first alternating between rounds, and reduces what the rounds measured.
The helpers that read a system (``fresh``, ``watched_path``) take the API
of commit 9036b52, so a baseline must be that commit or a later one.
"""

import contextlib
import copy
import json
import math
import os
import pathlib
import statistics
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


def run_worker(script, src, *flags, threads=1):
    """Run ``script --worker *flags`` against ``src`` in a fresh process
    with ``threads`` BLAS threads and return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: str(threads) for var in BLAS_THREAD_VARS})
    args = [sys.executable, script, "--worker", *flags]
    proc = subprocess.run(args, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def time_samples(call, sample_s, repeats):
    """Time per call in each of ``repeats`` samples of about ``sample_s`` each.

    The loop is sized from warm calls: the first call of a fresh process can
    take ten times as long as the next (cold caches, lazy set-up), and a loop
    sized from it runs samples far shorter than ``sample_s``.
    """
    call()
    number, total = timeit.Timer(call).autorange()
    number = max(1, math.ceil(number * sample_s / total))
    return [t / number for t in timeit.repeat(call, number=number, repeat=repeats)]


def best_time(call, sample_s, repeats):
    """Best time per call over ``repeats`` samples of about ``sample_s`` each."""
    return min(time_samples(call, sample_s, repeats))


def spread(times):
    """Best, lower quartile, median and upper quartile of ``times``."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"s": min(times), "q1_s": q1, "median_s": median, "q3_s": q3}


def rounds_won(before, after):
    """Rounds in which the "after" side measured less than the "before" side.

    ``before`` and ``after`` hold one value per round, in round order; a
    round where the two are equal counts for neither side.
    """
    return sum(a < b for b, a in zip(before, after, strict=True))


@contextlib.contextmanager
def patched(module, **values):
    """Module attributes set to ``values`` for the duration, then restored."""
    saved = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def fresh(system):
    """A fresh operator of the one-panel ``system``'s matrix, in whatever
    storage it has, which keeps its coarse rule: a solve caches the norms on
    its operator (``_sums``, in every storage since 9036b52), so every timed
    solve gets a copy with them cleared."""
    op = copy.copy(system.matrix)
    op._sums = None
    return op


def watched_path(system):
    """(path, refinement steps) of ``refined_solve`` on the one-panel
    ``system``: the builder whose answer refinement accepted, or "float64"
    (with the builder that failed, if one built) and None steps."""
    from chebfred import fredholm_solver

    built, solves = [], []

    def watch(name):
        build = getattr(fredholm_solver, name)

        def watched(*args):
            result = build(*args)
            if result is None:
                return None
            built.append(name.removesuffix("_solve"))
            solve, rcond = result

            def counted(b):
                solves.append(b)
                return solve(b)

            return counted, rcond

        return watched

    names = ("twogrid_solve", "float32_solve")
    op = fresh(system)
    with patched(fredholm_solver, **{name: watch(name) for name in names}):
        refined = fredholm_solver.refined_solve(op, system.rhs, op.norm1())
    if refined is None:
        return ("float64" + (f" ({built[-1]} failed)" if built else "")), None
    return built[-1], len(solves) - 1
